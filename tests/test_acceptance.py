"""End-to-end acceptance checks.

One test per claim; the verbose pytest run is the pass/fail report.
Each test reduces its claim to a numeric margin at a fixed tolerance and
prints the measured values, so a failing margin is visible directly in
the test output.  Monte Carlo seeds are frozen; the whole module runs in
a few minutes on one desktop core.
"""

import math
import os
import textwrap
from dataclasses import replace

import numpy as np

from nse.cli import main
from nse.config import load_config
from nse.estimator import (
    EstimatorConfig,
    kept_set,
    noise_levels,
    prepare_scale,
    two_pass_estimate,
)
from nse.grid import build_pixelization
from nse.harmonics import Alm, band_kernel, forward_sht, inverse_sht
from nse.mc import Experiment, run_experiment
from nse.model import (
    MaskSpec,
    NoiseSpec,
    Scenario,
    SeededRng,
    SpectrumModel,
    observe,
    spectrum_values,
    synthesize_field,
)
from nse.needlet import make_scale, needlet_coeffs_of_sequence, needlet_transform
from nse.window import build_windows, partition_sum

from oracles import correlation_decay_report, eval_ylm, noise_covariance, signal_covariance

HERE = os.path.dirname(__file__)
ABC = os.path.join(HERE, os.pardir, "configs", "abc.ini")

FAM = build_windows(2.0, 5, 0, 8, "tight")
MODEL = SpectrumModel(alpha=3.0)

CAP_SCEN = Scenario(schedule=(
    (0, 9,
     MaskSpec(kind="polar_cap", theta_cut=0.5),
     NoiseSpec(kind="colatitude_linear", sigma_min=0.3, sigma_max=0.6)),
))


def test_01_cubature_gram_identity():
    # exactness holds for harmonic products of total degree within the
    # grid order, negative orders included
    worst = 0.0
    for L in (4, 8, 16, 32):
        pix = build_pixelization(L)
        rows = []
        degs = []
        for l in range(L + 1):
            block = [eval_ylm(l, m, pix.xyz) for m in range(l + 1)]
            for m in range(-l, 0):
                rows.append((-1.0) ** m * np.conj(block[-m]))
                degs.append(l)
            for m in range(l + 1):
                rows.append(block[m])
                degs.append(l)
        Y = np.array(rows)
        degs = np.array(degs)
        G = (Y * pix.lam) @ np.conj(Y.T)
        within = degs[:, None] + degs[None, :] <= L
        err = float(np.max(np.abs(G - np.eye(len(Y)))[within]))
        print(f"L={L}: max Gram error {err:.3e}")
        worst = max(worst, err)
    assert worst < 1e-12


def test_02_sht_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for L in (8, 16, 32, 64):
        a = Alm(L)
        for l in range(L + 1):
            a.c[l, 1 : l + 1] = rng.standard_normal(l) + 1j * rng.standard_normal(l)
            a.c[l, 0] = rng.standard_normal()
        pix = build_pixelization(2 * L)
        field = inverse_sht(a, pix)
        back = forward_sht(field, pix, L)
        err = float(np.max(np.abs(back.c - a.c)) / np.max(np.abs(a.c)))
        again = inverse_sht(back, pix)
        err = max(err, float(np.max(np.abs(again - field)) / np.max(np.abs(field))))
        print(f"L={L}: round-trip error {err:.3e}")
        worst = max(worst, err)
    assert worst < 1e-10


def test_03_tight_frame_partition():
    worst = 0.0
    for M in (3, 5, 9):
        fam = build_windows(2.0, M, 0, 8, "tight")
        part = partition_sum(fam, 128)
        err = float(np.max(np.abs(part[1:129] - 1.0)))
        print(f"M={M}: max partition error {err:.3e}")
        worst = max(worst, err)
    assert worst < 1e-12


def test_04_needlet_norm_identity_every_point():
    # psi_k(xi_p)^2 = lam_k K_b(xi_k . xi_p)^2, so the cubature of psi_k^2
    # reduces to a kernel row sum; blocked rows keep memory flat
    worst = 0.0
    for j in (3, 4):
        scale = make_scale(FAM, j)
        xyz, lam = scale.pix.xyz, scale.pix.lam
        n = scale.pix.npoints
        rhs_const = scale.norm_constant
        err = 0.0
        block = max(1, 2**22 // n)
        for s in range(0, n, block):
            dots = np.clip(xyz[s : s + block] @ xyz.T, -1.0, 1.0)
            lhs = lam[s : s + block] * (band_kernel(scale.window, dots) ** 2 @ lam)
            rhs = lam[s : s + block] * rhs_const
            err = max(err, float(np.max(np.abs(lhs - rhs) / rhs)))
        print(f"j={j}: max relative error over all {n} points {err:.3e}")
        worst = max(worst, err)
    assert worst < 1e-9


def test_05_covariance_oracles():
    scale = make_scale(FAM, 3)
    pix = scale.pix
    C = spectrum_values(MODEL, scale.band_lmax)
    W = CAP_SCEN.mask_map(3, pix)
    sigma_eff = W * CAP_SCEN.noise_map(3, pix)

    R = 4000
    picker = np.random.default_rng(20260814)
    ks = picker.choice(pix.npoints, size=10, replace=False)
    pairs = ks.reshape(5, 2)
    seeded = SeededRng(515151)
    sig = np.empty((R, len(ks)))
    noi = np.empty((R, len(ks)))
    for r in range(R):
        alm = synthesize_field(C, scale.band_lmax, seeded.stream(r, "field"))
        sig[r] = needlet_transform(alm, scale)[ks]
        u = seeded.stream(r, "noise").standard_normal(pix.npoints)
        noi[r] = needlet_coeffs_of_sequence(sigma_eff * u, scale)[ks]

    worst = 0.0
    for name, draws, cov in (
        ("field", sig, lambda a, b: signal_covariance(scale, C, a, b)),
        ("noise", noi, lambda a, b: noise_covariance(scale, sigma_eff, a, b)),
    ):
        for i, (k1, k2) in enumerate(pairs):
            want = cov(k1, k2)
            se = math.sqrt((cov(k1, k1) * cov(k2, k2) + want**2) / (R - 1))
            got = float(np.cov(draws[:, 2 * i], draws[:, 2 * i + 1])[0, 1])
            z = abs(got - want) / se
            print(f"{name} pair ({k1},{k2}): analytic {want:.4e} mc {got:.4e} z {z:.2f}")
            worst = max(worst, z)
    assert worst < 4.0

    # the per-coefficient noise sd squares to the covariance diagonal
    n = noise_levels(scale, W, CAP_SCEN.noise_map(3, pix))
    spots = picker.choice(pix.npoints, size=25, replace=False)
    diag_err = max(
        abs(n[k] ** 2 - noise_covariance(scale, sigma_eff, k, k)) for k in spots
    )
    print(f"noise diagonal identity: max error {diag_err:.3e}")
    assert diag_err < 1e-12


def test_06_unbiased_on_full_sky():
    # full coverage, uneven noise: the debias term must cancel exactly
    scen = Scenario(schedule=(
        (0, 9, MaskSpec(kind="full_sky"),
         NoiseSpec(kind="hemisphere_step", sigma_north=0.1, sigma_south=0.3)),
    ))
    cfg = EstimatorConfig(alpha=3.0, weight_mode="uniform")
    exp = Experiment(fam=FAM, model=MODEL, scen=scen, scales=(3, 4, 5),
                     replicates=500, seed=60606, cfg=cfg)
    rows, summary = run_experiment(exp, threads=4)
    assert len(rows) == 3 * 500
    worst = 0.0
    for s in summary:
        se = math.sqrt(s.var / 500)
        z = abs(s.bias) / se
        print(f"j={s.j}: mean {s.mean:.6e} bias {s.bias:+.2e} ({z:.2f} SE)")
        worst = max(worst, z)
    assert worst < 3.0


def test_07_bias_shrinks_with_threshold():
    thresholds = (0.2, 0.1, 0.05)
    cfg = EstimatorConfig(alpha=3.0, weight_mode="uniform")
    base = prepare_scale(FAM, 5, CAP_SCEN, MODEL, cfg)
    plans = [
        replace(base, threshold=t,
                kept=kept_set(base.functional, t))
        for t in thresholds
    ]
    assert all(len(p.kept) > 0 for p in plans)

    R = 500
    seeded = SeededRng(70707)
    lmax = base.scale.band_lmax
    C_top = spectrum_values(MODEL, lmax)
    sums = np.zeros(len(plans))
    for r in range(R):
        alm = synthesize_field(C_top, lmax, seeded.stream(r, "field"))
        y = observe(alm, base.scale.pix, base.W, base.sigma, seeded.stream(r, "noise.j5"))[0]
        gamma = needlet_coeffs_of_sequence(y, base.scale)
        for i, plan in enumerate(plans):
            sums[i] += two_pass_estimate(gamma, plan, cfg).c_hat
    rel_bias = np.abs(sums / R - base.c_target) / base.c_target
    for t, p, rb in zip(thresholds, plans, rel_bias):
        print(f"t={t}: kept {len(p.kept)} |bias|/target {rb:.4f}")
    assert rel_bias[0] >= rel_bias[1] >= rel_bias[2]


def test_08_relative_mse_falls_across_scales():
    cfg = load_config(ABC)
    exp = Experiment(fam=cfg.fam, model=cfg.model, scen=cfg.scen, scales=cfg.scales,
                     replicates=cfg.replicates, seed=cfg.seed, cfg=cfg.est,
                     order_cap=cfg.order_cap)
    rows, summary = run_experiment(exp, threads=4)
    rel = [s.rel_mse for s in summary]
    for s in summary:
        print(f"j={s.j}: rel_mse {s.rel_mse:.4f}")
    assert rel[-1] < rel[0]
    inversions = sum(1 for a, b in zip(rel, rel[1:]) if b > a)
    assert inversions <= 1


def test_09_localization_tail_slopes():
    scale = make_scale(FAM, 4)
    C = spectrum_values(MODEL, scale.band_lmax)
    rep = correlation_decay_report(scale, C)
    print(f"psi slope {rep['psi_slope']:.2f}  correlation slope {rep['cor_slope']:.2f}")
    assert rep["psi_slope"] <= -(FAM.cutoff.M - 0.5)
    assert rep["cor_slope"] <= -(FAM.cutoff.M - 1.0)


def test_10_estimates_gaussianize_at_fine_scales():
    cfg = EstimatorConfig(alpha=3.0, weight_mode="uniform")
    exp = Experiment(fam=FAM, model=MODEL, scen=Scenario(), scales=(3, 6),
                     replicates=500, seed=42, cfg=cfg)
    rows, summary = run_experiment(exp, threads=4)
    sk = {s.j: s.skew for s in summary}
    print(f"skewness: j=3 {sk[3]:+.3f}  j=6 {sk[6]:+.3f}")
    assert abs(sk[6]) < abs(sk[3])


def test_11_thread_count_invariance(tmp_path):
    text = textwrap.dedent("""\
    [window]
    b = 2
    m = 5
    j_min = 0
    j_max = 8

    [model]
    alpha = 3

    [scenario]
    schedule = A:0-4, B:5-5

    [mask.A]
    kind = polar_cap
    theta_cut = 0.5

    [noise.A]
    kind = colatitude_linear
    sigma_min = 0.3
    sigma_max = 0.6

    [mask.B]
    kind = disc
    center_theta = 2.0
    center_phi = 1.0
    radius = 1.2

    [noise.B]
    kind = constant
    sigma = 0.1

    [estimator]
    threshold = quantile
    q = 0.05

    [mc]
    scales = 3-5
    replicates = 30
    seed = 13
    """)
    path = tmp_path / "det.ini"
    path.write_text(text)
    outs = {}
    for threads in (1, 8):
        out = str(tmp_path / f"t{threads}")
        assert main(["mc", "--config", str(path), "--out", out, "--threads", str(threads)]) == 0
        outs[threads] = {
            name: open(os.path.join(out, name), "rb").read()
            for name in ("results.csv", "summary.csv")
        }
    assert outs[1]["results.csv"] == outs[8]["results.csv"]
    assert outs[1]["summary.csv"] == outs[8]["summary.csv"]
    assert outs[1]["results.csv"].count(b"\n") == 3 * 30 + 1
    print("results.csv and summary.csv byte-identical for 1 and 8 threads")
