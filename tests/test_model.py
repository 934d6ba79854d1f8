"""Spectrum families, field synthesis, masks/noise, and the observation step."""

import math

import numpy as np
import pytest

from nse.errors import InvalidParameter, ShapeMismatch
from nse.grid import build_pixelization, write_map
from nse.harmonics import Alm, forward_sht, inverse_sht
from nse.model import (
    MaskSpec,
    NoiseSpec,
    Scenario,
    SeededRng,
    SpectrumModel,
    apply_band_limit,
    observe,
    spectrum_values,
    synthesize_field,
)

from conftest import unit
from oracles import eval_legendre_kernel, geodesic_distance, inverse_at_points

FOUR_PI = 4.0 * math.pi


def test_spectrum_power_law_values(model3):
    C = spectrum_values(model3, 10)
    assert C[0] == 0.0
    assert C[4] == 4.0**-3
    assert C[4] == 0.015625
    assert np.all(C[1:] > 0.0)


def test_spectrum_modulated_bounds():
    m = SpectrumModel(alpha=3.0, g_kind="modulated", g0=2.0, eps=0.4)
    C = spectrum_values(m, 512)
    ell = np.arange(1, 513, dtype=float)
    g = C[1:] * ell**3.0
    assert g.min() >= 2.0 * 0.6 - 1e-12
    assert g.max() <= 2.0 * 1.4 + 1e-12


def test_spectrum_square_integrable_tail(model3):
    # sum (2l+1) C_l converges; tail beyond 1000 close to the integral bound
    C = spectrum_values(model3, 100000)
    ell = np.arange(C.size)
    tail = float(np.sum((2 * ell[1001:] + 1) * C[1001:]))
    assert 1.8e-3 < tail < 2.2e-3


def test_spectrum_validation():
    with pytest.raises(InvalidParameter):
        SpectrumModel(alpha=2.0)
    with pytest.raises(InvalidParameter):
        SpectrumModel(alpha=3.0, g0=0.0)
    with pytest.raises(InvalidParameter):
        SpectrumModel(alpha=3.0, g_kind="modulated", eps=1.0)
    with pytest.raises(InvalidParameter):
        SpectrumModel(alpha=3.0, g_kind="bumpy")


def test_synthesize_zero_spectrum():
    rng = np.random.default_rng(0)
    alm = synthesize_field(np.zeros(9), 8, rng)
    assert np.max(np.abs(alm.c)) == 0.0


def test_synthesize_rejects_negative_spectrum():
    rng = np.random.default_rng(0)
    C = np.zeros(5)
    C[3] = -1e-3
    with pytest.raises(InvalidParameter):
        synthesize_field(C, 4, rng)
    with pytest.raises(ShapeMismatch):
        synthesize_field(np.ones(3), 4, rng)


def test_synthesize_coefficient_variance():
    # E |a_{2,1}|^2 = C_2 = 1; 1e4 replicates put the mean within 3 sigma
    rng = np.random.default_rng(42)
    C = np.zeros(3)
    C[2] = 1.0
    vals = np.empty(10000)
    for i in range(vals.size):
        alm = synthesize_field(C, 2, rng)
        vals[i] = abs(alm.c[2, 1]) ** 2
    assert 0.97 < float(np.mean(vals)) < 1.03
    # m = 0 entries real with variance C_2
    assert np.max(np.abs(synthesize_field(C, 2, rng).c[:, 0].imag)) == 0.0


def test_field_variance_at_point(model3):
    # stationarity: Var X(xi) = sum (2l+1) C_l / (4 pi) at any point
    lmax = 32
    C = spectrum_values(model3, lmax)
    want = float(np.sum((2 * np.arange(lmax + 1) + 1) * C)) / FOUR_PI
    rng = np.random.default_rng(4)
    pt = unit(0.0, 0.0)[None, :]
    n = 3000
    vals = np.empty(n)
    for i in range(n):
        alm = synthesize_field(C, lmax, rng)
        vals[i] = inverse_at_points(alm, pt)[0]
    got = float(np.mean(vals**2))
    se = want * math.sqrt(2.0 / n)
    assert abs(got - want) < 3 * se


def test_covariance_depends_only_on_dot(model3):
    # three pairs sharing a dot product share the analytic covariance
    lmax = 16
    C = spectrum_values(model3, lmax)
    want = sum(C[l] * eval_legendre_kernel(l, 0.5) for l in range(lmax + 1))
    pairs = []
    for th, ph in [(0.9, 0.0), (1.7, 2.0), (2.4, 5.0)]:
        a = unit(th, ph)
        # rotate within the plane spanned by a and a perpendicular direction
        perp = np.cross(a, unit(th + 0.3, ph + 1.0))
        perp /= np.linalg.norm(perp)
        b = 0.5 * a + math.sqrt(1 - 0.25) * perp
        pairs.append((a[None, :], b[None, :]))
        assert abs(float(a @ b.T) - 0.5) < 1e-12
    rng = np.random.default_rng(8)
    n = 2000
    prods = np.empty((n, len(pairs)))
    for i in range(n):
        alm = synthesize_field(C, lmax, rng)
        for p, (a, b) in enumerate(pairs):
            prods[i, p] = inverse_at_points(alm, a)[0] * inverse_at_points(alm, b)[0]
    for p in range(len(pairs)):
        got = float(np.mean(prods[:, p]))
        se = float(np.std(prods[:, p], ddof=1)) / math.sqrt(n)
        assert abs(got - want) < 4 * se


def test_apply_band_limit():
    rng = np.random.default_rng(1)
    alm = synthesize_field(np.ones(9) * 0.1, 8, rng)
    same = apply_band_limit(alm, np.ones(9))
    assert np.array_equal(same.c, alm.c)
    sharp = np.zeros(9)
    sharp[:5] = 1.0  # keep through l = 4
    cut = apply_band_limit(alm, sharp)
    assert np.max(np.abs(cut.c[5:, :])) == 0.0
    assert np.array_equal(cut.c[:5, :], alm.c[:5, :])
    # spectrum of the truncated field vanishes above the cut
    pix = build_pixelization(16)
    back = forward_sht(inverse_sht(cut, pix), pix, 8)
    assert np.max(np.abs(back.c[5:, :])) < 1e-12


def test_seeded_rng_keying():
    rng = SeededRng(123)
    a = rng.stream(0, "field").standard_normal(5)
    b = SeededRng(123).stream(0, "field").standard_normal(5)
    assert np.array_equal(a, b)
    c = rng.stream(0, "noise.j3").standard_normal(5)
    d = rng.stream(1, "field").standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(InvalidParameter):
        SeededRng(-1)


def test_mask_spec_geometry():
    pix = build_pixelization(16)
    assert np.array_equal(MaskSpec(kind="full_sky").values(pix), np.ones(pix.npoints))
    cap = MaskSpec(kind="polar_cap", theta_cut=0.5).values(pix)
    assert np.array_equal(cap == 0.0, pix.theta_k <= 0.5)
    disc = MaskSpec(kind="disc", center=(2.0, 1.0), radius=0.8)
    vals = disc.values(pix)
    center = unit(2.0, 1.0)
    for k in (0, 57, 120, 152):
        inside = geodesic_distance(pix.xyz[k], center) <= 0.8
        assert vals[k] == (1.0 if inside else 0.0)
    with pytest.raises(InvalidParameter):
        MaskSpec(kind="swiss_cheese").values(pix)


def test_mask_from_file(tmp_path):
    pix = build_pixelization(8)
    w = (np.arange(pix.npoints) % 2).astype(float)
    path = tmp_path / "w.map"
    write_map(path, pix, w)
    got = MaskSpec(kind="file", path=str(path)).values(pix)
    assert np.array_equal(got, w)
    with pytest.raises(ShapeMismatch):
        MaskSpec(kind="file", path=str(path)).values(build_pixelization(10))


def test_noise_spec_families():
    pix = build_pixelization(16)
    assert np.array_equal(NoiseSpec(kind="constant", sigma=0.3).values(pix),
                          np.full(pix.npoints, 0.3))
    lin = NoiseSpec(kind="colatitude_linear", sigma_min=0.1, sigma_max=0.5).values(pix)
    want = 0.1 + 0.4 * pix.theta_k / math.pi
    assert np.allclose(lin, want, atol=1e-15)
    step = NoiseSpec(kind="hemisphere_step", sigma_north=0.1, sigma_south=0.3).values(pix)
    assert np.array_equal(step, np.where(pix.theta_k < math.pi / 2, 0.1, 0.3))
    with pytest.raises(InvalidParameter):
        NoiseSpec(kind="constant", sigma=-0.1).values(pix)


def test_scenario_schedule_dispatch(cap_scen):
    mask, noise = cap_scen.entry(3)
    assert mask.kind == "polar_cap"
    lone = Scenario(schedule=((5, 6, MaskSpec(kind="full_sky"), NoiseSpec(kind="constant", sigma=0.1)),))
    m, n = lone.entry(2)  # outside every schedule entry: unmasked, noiseless
    assert m.kind == "full_sky" and n.sigma == 0.0


def test_scenario_beam_profiles():
    sharp = Scenario()
    prof = sharp.beam_profile(3, 16)
    assert prof.shape == (33,)
    assert np.array_equal(prof[:17], np.ones(17))
    assert np.array_equal(prof[17:], np.zeros(16))
    assert sharp.sim_lmax(3, 16) == 16
    cos = Scenario(beam="cosine", beam_l=((3, 8),))
    p = cos.beam_profile(3, 16)
    assert p.shape == (17,)
    assert p[8] == 1.0 and abs(p[16]) < 1e-15
    assert np.all(np.diff(p[8:]) <= 1e-15)
    assert cos.sim_lmax(3, 16) == 16
    with pytest.raises(InvalidParameter):
        Scenario(beam="boxcar").beam_profile(3, 8)


def test_observe_trivial_cases(full_scen):
    pix = build_pixelization(8)
    rng = np.random.default_rng(3)
    alm = synthesize_field(np.full(5, 0.2), 4, rng)
    y = observe(alm, pix, full_scen.mask_map(3, pix), full_scen.noise_map(3, pix),
                np.random.default_rng(0))[0]
    assert np.array_equal(y, inverse_sht(alm, pix))
    dark = Scenario(schedule=((0, 99, MaskSpec(kind="polar_cap", theta_cut=4.0),
                               NoiseSpec(kind="constant", sigma=1.0)),))
    y0 = observe(alm, pix, dark.mask_map(3, pix), dark.noise_map(3, pix), np.random.default_rng(0))[0]
    assert np.array_equal(y0, np.zeros(pix.npoints))


def test_observe_noise_variance():
    pix = build_pixelization(8)
    scen = Scenario(schedule=((0, 99, MaskSpec(kind="full_sky"),
                               NoiseSpec(kind="constant", sigma=2.0)),))
    zero = Alm(4)
    rng = np.random.default_rng(77)
    W, sigma = scen.mask_map(3, pix), scen.noise_map(3, pix)
    samples = [observe(zero, pix, W, sigma, rng)[0] for _ in range(100)]
    flat = np.concatenate(samples)
    assert 3.9 < float(np.var(flat)) < 4.1


def test_observe_noise_independence():
    pix = build_pixelization(4)
    scen = Scenario(schedule=((0, 99, MaskSpec(kind="full_sky"),
                               NoiseSpec(kind="constant", sigma=1.0)),))
    zero = Alm(2)
    rng = np.random.default_rng(5)
    n = 2000
    W, sigma = scen.mask_map(3, pix), scen.noise_map(3, pix)
    draws = np.stack([observe(zero, pix, W, sigma, rng)[0] for _ in range(n)])
    r = np.corrcoef(draws[:, 2], draws[:, 9])[0, 1]
    assert abs(r) < 4.0 / math.sqrt(n)
