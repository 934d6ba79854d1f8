"""Spectral estimator: targets, noise levels, kept sets, weights, estimates."""

import math

import numpy as np
import pytest

from nse.errors import AllMasked, InvalidParameter, ShapeMismatch
from nse.estimator import (
    EstimatorConfig,
    estimate,
    kept_set,
    mask_functional,
    noise_levels,
    prepare_scale,
    quantile_threshold,
    relative_mse,
    target_cj,
    two_pass_estimate,
    weights,
)
from nse.model import MaskSpec, NoiseSpec, Scenario, synthesize_field
from nse.needlet import needlet_coeffs_of_sequence, needlet_transform

from oracles import geodesic_distance, mask_functional_direct, noise_covariance, noise_levels_direct

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------- targets

def test_target_cj_trivial_and_flat(fam):
    assert target_cj(fam, 4, np.zeros(33)) == 0.0
    b = fam.table(4)
    ell = np.arange(len(b))
    want = float(np.sum((2 * ell + 1) * b**2)) / FOUR_PI
    assert abs(target_cj(fam, 4, np.ones(33)) - want) < 1e-14 * want
    with pytest.raises(ShapeMismatch):
        target_cj(fam, 4, np.ones(20))


def test_target_cj_scaling_ratio(fam, C_256):
    # alpha = 3 makes successive band averages shrink roughly by B^(2-alpha)
    for j in (4, 5, 6):
        r = target_cj(fam, j + 1, C_256) / target_cj(fam, j, C_256)
        assert abs(r - 0.5) < 0.075


# ------------------------------------------------------------ noise levels

def test_noise_levels_zero_sigma(scale3, full_scen):
    pix = scale3.pix
    assert np.max(noise_levels(scale3, full_scen.mask_map(3, pix), full_scen.noise_map(3, pix))) == 0.0


def test_noise_levels_match_direct_path(scale3, cap_scen):
    W, sig = cap_scen.mask_map(3, scale3.pix), cap_scen.noise_map(3, scale3.pix)
    fast = noise_levels(scale3, W, sig)
    slow = noise_levels_direct(scale3, W, sig)
    assert np.max(np.abs(fast - slow)) < 1e-9 * np.max(slow)


def test_noise_levels_constant_sigma_form(scale3):
    scen = Scenario(schedule=((0, 99, MaskSpec(kind="full_sky"),
                               NoiseSpec(kind="constant", sigma=0.3)),))
    n = noise_levels(scale3, scen.mask_map(3, scale3.pix), scen.noise_map(3, scale3.pix))
    lam = scale3.pix.lam
    # n_k^2 = sigma^2 / lam_k * sum_p lam_p^2 psi_k(xi_p)^2; spot check
    from nse.needlet import eval_needlet

    for k in (11, 901):
        psi = eval_needlet(scale3, k, scale3.pix.xyz)
        want = 0.09 * float(np.sum(lam**2 * psi**2)) / lam[k]
        assert abs(n[k] ** 2 - want) < 1e-12 * max(want, 1.0)


def test_noise_squared_equals_covariance_diagonal(scale3, cap_scen):
    W = cap_scen.mask_map(3, scale3.pix)
    sig = cap_scen.noise_map(3, scale3.pix)
    n = noise_levels(scale3, W, sig)
    rng = np.random.default_rng(0)
    for k in rng.integers(0, scale3.pix.npoints, size=25):
        want = noise_covariance(scale3, W * sig, int(k), int(k))
        assert abs(n[int(k)] ** 2 - want) < 1e-12


# ---------------------------------------------------------------- kept set

def test_kept_set_full_sky_keeps_all(scale3, full_scen):
    kept = kept_set(mask_functional(scale3, full_scen.mask_map(3, scale3.pix)), 0.0)
    assert len(kept) == scale3.pix.npoints


def test_kept_set_fully_masked_is_empty(scale3):
    dark = Scenario(schedule=((0, 99, MaskSpec(kind="polar_cap", theta_cut=4.0),
                               NoiseSpec(kind="constant", sigma=0.0)),))
    assert len(kept_set(mask_functional(scale3, dark.mask_map(3, scale3.pix)), 1e-3)) == 0


def test_kept_set_polar_cap_geometry(scale5, cap_scen):
    # kept fraction sits strictly inside (0, 1) at the working threshold
    m = mask_functional(scale5, cap_scen.mask_map(5, scale5.pix))
    kept = kept_set(m, 0.05)
    frac = len(kept) / scale5.pix.npoints
    assert 0.0 < frac < 1.0
    # tightening the threshold clears the cap and its rim entirely
    tight = kept_set(m, 0.02)
    assert 0 < len(tight) < len(kept)
    north = np.array([0.0, 0.0, 1.0])
    for k in tight:
        d_to_cap = geodesic_distance(scale5.pix.xyz[int(k)], north) - 0.5
        assert d_to_cap > 0.0


def test_kept_set_threshold_monotone(scale4, cap_scen):
    m = mask_functional(scale4, cap_scen.mask_map(4, scale4.pix))
    k1 = kept_set(m, 0.05)
    k2 = kept_set(m, 0.2)
    assert set(k1.tolist()) <= set(k2.tolist())


def test_mask_functional_matches_direct(scale3, cap_scen):
    W = cap_scen.mask_map(3, scale3.pix)
    fast = mask_functional(scale3, W)
    slow = mask_functional_direct(scale3, W)
    assert np.max(np.abs(fast - slow)) < 1e-9 * np.max(slow)


def test_quantile_threshold():
    f = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    assert quantile_threshold(f, 0.2) == 1.0
    assert quantile_threshold(f, 0.6) == 3.0
    assert quantile_threshold(f, 1.0) == 5.0
    with pytest.raises(InvalidParameter):
        quantile_threshold(f, 0.0)
    with pytest.raises(InvalidParameter):
        quantile_threshold(f, 1.2)


# ----------------------------------------------------------------- weights

def test_weights_uniform_and_mle_basics():
    kept = np.array([2, 5, 7])
    n = np.zeros(10)
    w = weights("uniform", kept, n)
    assert np.allclose(w[kept], 1.0 / 3.0)
    assert np.sum(w) == pytest.approx(1.0)
    assert np.count_nonzero(w) == 3
    # zero noise collapses mle onto uniform
    w2 = weights("mle", kept, n, pilot=0.7)
    assert np.allclose(w2, w)


def test_weights_mle_ratio_example():
    # one kept point with n^2 = pilot, one with n^2 = 0: weight ratio 1/4
    kept = np.array([0, 1])
    pilot = 0.42
    n = np.array([math.sqrt(pilot), 0.0])
    w = weights("mle", kept, n, pilot=pilot)
    assert abs(w[0] / w[1] - 0.25) < 1e-14
    assert abs(np.sum(w) - 1.0) < 1e-14


def test_weights_sum_to_one_random():
    rng = np.random.default_rng(3)
    n = rng.uniform(0.0, 0.5, size=50)
    kept = np.sort(rng.choice(50, size=20, replace=False))
    for mode, pilot in (("uniform", None), ("mle", 0.1)):
        w = weights(mode, kept, n, pilot=pilot)
        assert abs(np.sum(w) - 1.0) < 1e-14
        assert np.all(w[np.setdiff1d(np.arange(50), kept)] == 0.0)


def test_weights_validation():
    with pytest.raises(AllMasked):
        weights("uniform", np.array([], dtype=int), np.zeros(4))
    with pytest.raises(InvalidParameter):
        weights("mle", np.array([0]), np.zeros(4), pilot=0.0)
    with pytest.raises(InvalidParameter):
        weights("median", np.array([0]), np.zeros(4))


# ---------------------------------------------------------------- estimate

def test_estimate_trivial_identities():
    g = np.array([0.3, -0.2, 0.9, 0.0])
    w = np.full(4, 0.25)
    assert estimate(g, np.abs(g), w) == pytest.approx(0.0)
    assert estimate(g, np.zeros(4), w) == pytest.approx(float(np.mean(g**2)))


def test_estimate_ignores_unkept_entries():
    rng = np.random.default_rng(9)
    g = rng.normal(size=30)
    n = rng.uniform(0, 0.1, size=30)
    kept = np.arange(5, 12)
    w = weights("uniform", kept, n)
    base = estimate(g, n, w)
    g2, n2 = g.copy(), n.copy()
    outside = np.setdiff1d(np.arange(30), kept)
    g2[outside] = rng.permutation(g2[outside])
    n2[outside] = 99.0
    assert estimate(g2, n2, w) == pytest.approx(base, rel=1e-15)


def test_relative_mse_examples():
    assert relative_mse(np.array([2.0, 2.0, 2.0]), 2.0) == 0.0
    assert relative_mse(np.array([0.0, 2.0]), 1.0) == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        relative_mse(np.array([1.0, 1.0]), 0.0)
    with pytest.raises(InvalidParameter):
        relative_mse(np.array([1.0]), 1.0)


# ------------------------------------------------------------ configuration

def test_estimator_config_threshold_schedule():
    cfg = EstimatorConfig(alpha=3.0, tau0=0.1, eps=0.5)
    assert cfg.threshold(2.0, 0) == pytest.approx(0.1)
    assert cfg.threshold(2.0, 2) == pytest.approx(0.1 * 2.0 ** -7.0)
    # decays strictly faster than B^(-alpha j)
    for j in (1, 2, 3):
        assert cfg.threshold(2.0, j) < 0.1 * 2.0 ** (-3.0 * j)


def test_estimator_config_validation():
    with pytest.raises(InvalidParameter):
        EstimatorConfig(alpha=3.0, tau0=0.0)
    with pytest.raises(InvalidParameter):
        EstimatorConfig(alpha=3.0, eps=0.0)
    with pytest.raises(InvalidParameter):
        EstimatorConfig(alpha=3.0, weight_mode="magic")
    with pytest.raises(InvalidParameter):
        EstimatorConfig(alpha=3.0, threshold_mode="quantile", q=1.5)
    with pytest.raises(InvalidParameter):
        EstimatorConfig(alpha=3.0, pilot=-0.3)


# ---------------------------------------------------------- two-pass flow

def test_prepare_scale_plan_contents(fam, model3, cap_scen):
    cfg = EstimatorConfig(alpha=3.0, threshold_mode="quantile", q=0.5)
    plan = prepare_scale(fam, 3, cap_scen, model3, cfg)
    assert plan.j == 3
    assert plan.scale.pix.npoints == plan.n.size == plan.functional.size
    assert 0 < len(plan.kept) < plan.scale.pix.npoints
    assert plan.c_target > 0
    # quantile mode keeps at least the q fraction; longitude symmetry makes
    # whole rings tie at the cut value, so the set can overshoot by a ring
    n_min = math.ceil(0.5 * plan.scale.pix.npoints)
    assert n_min <= len(plan.kept) < n_min + plan.scale.pix.n_phi
    assert np.all(plan.functional[plan.kept] <= plan.threshold)


def test_two_pass_uniform_equals_single_pass(fam, model3, full_scen):
    cfg = EstimatorConfig(alpha=3.0, weight_mode="mle")
    plan = prepare_scale(fam, 3, full_scen, model3, cfg)
    rng = np.random.default_rng(12)
    from nse.model import spectrum_values

    C = spectrum_values(model3, plan.scale.band_lmax)
    alm = synthesize_field(C, plan.scale.band_lmax, rng)
    gamma = needlet_transform(alm, plan.scale)
    est = two_pass_estimate(gamma, plan, cfg)
    # no noise: mle weights collapse to uniform, so both passes agree
    w = weights("uniform", plan.kept, plan.n)
    want = estimate(gamma, plan.n, w)
    assert est.c_hat == pytest.approx(want, rel=1e-12)
    assert est.kept_count == plan.scale.pix.npoints


def test_two_pass_pilot_floor(fam, model3, hemi_scen):
    cfg = EstimatorConfig(alpha=3.0, weight_mode="mle")
    plan = prepare_scale(fam, 3, hemi_scen, model3, cfg)
    gamma = np.zeros(plan.scale.pix.npoints)  # gamma^2 - n^2 < 0 everywhere
    est = two_pass_estimate(gamma, plan, cfg)
    assert est.pilot == pytest.approx(1e-12 * plan.scale.norm_constant)
    assert est.c_hat < 0.0


def test_two_pass_external_pilot(fam, model3, hemi_scen):
    cfg = EstimatorConfig(alpha=3.0, weight_mode="mle", pilot=0.05)
    plan = prepare_scale(fam, 3, hemi_scen, model3, cfg)
    rng = np.random.default_rng(5)
    gamma = rng.normal(0.0, 0.1, size=plan.scale.pix.npoints)
    est = two_pass_estimate(gamma, plan, cfg)
    assert est.pilot == 0.05
    w = weights("mle", plan.kept, plan.n, pilot=0.05)
    assert est.c_hat == pytest.approx(estimate(gamma, plan.n, w), rel=1e-12)


def test_two_pass_propagates_all_masked(fam, model3):
    dark = Scenario(schedule=((0, 99, MaskSpec(kind="polar_cap", theta_cut=4.0),
                               NoiseSpec(kind="constant", sigma=0.1)),))
    cfg = EstimatorConfig(alpha=3.0)
    plan = prepare_scale(fam, 3, dark, model3, cfg)
    with pytest.raises(AllMasked):
        two_pass_estimate(np.zeros(plan.scale.pix.npoints), plan, cfg)


# ------------------------------------------------------------- MC behavior

def test_zero_signal_debias_unbiased(fam, model3, cap_scen):
    # pure noise through the full pipeline: mean estimate within 3 SE of 0
    cfg = EstimatorConfig(alpha=3.0, weight_mode="uniform", threshold_mode="quantile", q=0.3)
    plan = prepare_scale(fam, 3, cap_scen, model3, cfg)
    pix = plan.scale.pix
    W = cap_scen.mask_map(3, pix)
    sig = cap_scen.noise_map(3, pix)
    rng = np.random.default_rng(2026)
    R = 400
    vals = np.empty(R)
    for r in range(R):
        y = W * (sig * rng.standard_normal(pix.npoints))
        gamma = needlet_coeffs_of_sequence(y, plan.scale)
        vals[r] = two_pass_estimate(gamma, plan, cfg).c_hat
    se = float(np.std(vals, ddof=1)) / math.sqrt(R)
    assert abs(float(np.mean(vals))) < 3 * se


def test_mle_beats_uniform_under_heteroscedastic_noise(fam, model3):
    # paired replicates, same gamma: mle-weighted MSE <= uniform-weighted MSE.
    # The noise contrast is set high enough that the noisy hemisphere
    # dominates the variance and the weighting choice actually matters.
    from nse.model import SeededRng, observe, spectrum_values

    scen = Scenario(schedule=((0, 99, MaskSpec(kind="full_sky"),
                               NoiseSpec(kind="hemisphere_step",
                                         sigma_north=1.0, sigma_south=5.0)),))
    cfg_u = EstimatorConfig(alpha=3.0, weight_mode="uniform")
    cfg_m = EstimatorConfig(alpha=3.0, weight_mode="mle")
    plan = prepare_scale(fam, 3, scen, model3, cfg_u)
    lmax = plan.scale.band_lmax
    C = spectrum_values(model3, lmax)
    target = plan.c_target
    rng = SeededRng(99)
    R = 500
    est_u = np.empty(R)
    est_m = np.empty(R)
    for r in range(R):
        alm = synthesize_field(C, lmax, rng.stream(r, "field"))
        y = observe(alm, plan.scale.pix, plan.W, plan.sigma, rng.stream(r, "noise.j3"))[0]
        gamma = needlet_coeffs_of_sequence(y, plan.scale)
        est_u[r] = two_pass_estimate(gamma, plan, cfg_u).c_hat
        est_m[r] = two_pass_estimate(gamma, plan, cfg_m).c_hat
    mse_u = float(np.mean((est_u - target) ** 2))
    mse_m = float(np.mean((est_m - target) ** 2))
    assert mse_m <= mse_u
    assert float(np.var(est_m, ddof=1)) <= float(np.var(est_u, ddof=1))
