"""Monte Carlo runner: determinism, shared-field layout, diagnostics."""

import io
import math

import numpy as np
import pytest

from nse.errors import ConventionViolation, DegenerateSample, InvalidParameter
from nse.grid import read_map, write_map
from nse.estimator import EstimatorConfig, two_pass_estimate
from nse.mc import (
    Experiment,
    anderson_darling,
    build_plans,
    run_experiment,
    skew_kurt,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from nse.model import MaskSpec, NoiseSpec, Scenario, SeededRng, spectrum_values, synthesize_field
from nse.needlet import make_scale, needlet_coeffs_of_sequence
from nse.model import observe


def small_experiment(fam, model3, scen, scales=(3, 4), R=2, seed=7, **cfg_kw):
    cfg = EstimatorConfig(alpha=3.0, weight_mode="uniform", **cfg_kw)
    return Experiment(fam=fam, model=model3, scen=scen, scales=tuple(scales),
                      replicates=R, seed=seed, cfg=cfg)


def test_smoke_run_counts(fam, model3, full_scen):
    exp = small_experiment(fam, model3, full_scen)
    rows, summary = run_experiment(exp)
    assert len(rows) == 4
    assert [r[0] for r in rows] == [3, 3, 4, 4]
    assert [r[1] for r in rows] == [0, 1, 0, 1]
    for r in rows:
        assert math.isfinite(r[2]) and r[3] > 0 and r[4] >= 1 and r[5] == "uniform"
    assert [s.j for s in summary] == [3, 4]


def test_determinism_same_seed(fam, model3, hemi_scen):
    exp = small_experiment(fam, model3, hemi_scen, R=3)
    rows1, _ = run_experiment(exp)
    rows2, _ = run_experiment(exp)
    assert rows1 == rows2
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_results_csv(buf1, rows1)
    write_results_csv(buf2, rows2)
    assert buf1.getvalue() == buf2.getvalue()


def test_determinism_across_threads(fam, model3, hemi_scen):
    exp = small_experiment(fam, model3, hemi_scen, R=6)
    rows1, sum1 = run_experiment(exp, threads=1)
    rows2, sum2 = run_experiment(exp, threads=4)
    assert rows1 == rows2
    assert sum1 == sum2


def test_rows_reproducible_from_documented_streams(fam, model3, hemi_scen):
    # the row for (j, r) must be recomputable from scratch given only the
    # seed layout: one field draw per replicate at the top band limit,
    # one noise stream per (replicate, scale)
    exp = small_experiment(fam, model3, hemi_scen, scales=(3, 4), R=2, seed=31)
    rows, _ = run_experiment(exp)
    plans = build_plans(exp)
    rng = SeededRng(31)
    lmax_top = max(exp.scen.sim_lmax(j, plans[j].scale.band_lmax) for j in exp.scales)
    C_top = spectrum_values(model3, lmax_top)
    for j in exp.scales:
        plan = plans[j]
        lj = exp.scen.sim_lmax(j, plan.scale.band_lmax)
        for r in range(2):
            alm = synthesize_field(C_top, lmax_top, rng.stream(r, "field")).truncated(lj)
            prof = exp.scen.beam_profile(j, plan.scale.band_lmax)[: lj + 1]
            alm.c *= prof[:, None]
            y = observe(alm, plan.scale.pix, plan.W, plan.sigma, rng.stream(r, f"noise.j{j}"))[0]
            gamma = needlet_coeffs_of_sequence(y, plan.scale)
            est = two_pass_estimate(gamma, plan, exp.cfg)
            row = next(t for t in rows if t[0] == j and t[1] == r)
            assert row[2] == est.c_hat
            assert row[3] == est.c_target
            assert row[4] == est.kept_count


def test_failed_scale_drops_rows_and_run_continues(fam, model3):
    # scale 4 fully masked: its rows disappear, scale 3 comes out intact;
    # the summary still lists scale 4, with nan diagnostics
    scen = Scenario(schedule=(
        (3, 3, MaskSpec(kind="full_sky"), NoiseSpec(kind="constant", sigma=0.1)),
        (4, 4, MaskSpec(kind="polar_cap", theta_cut=4.0), NoiseSpec(kind="constant", sigma=0.1)),
    ))
    exp = small_experiment(fam, model3, scen, scales=(3, 4), R=2)
    rows, summary = run_experiment(exp)
    assert [r[0] for r in rows] == [3, 3]
    assert [s.j for s in summary] == [3, 4]
    dead = summary[1]
    assert math.isnan(dead.mean) and math.isnan(dead.var) and math.isnan(dead.bias)
    alive = summary[0]
    assert math.isfinite(alive.mean) and math.isfinite(alive.bias)


def test_convention_violation_ends_the_run(fam, model3, full_scen, monkeypatch):
    def broken(samples, scale):
        raise ConventionViolation("malformed coefficient set")

    monkeypatch.setattr("nse.mc.needlet_coeffs_of_sequence", broken)
    with pytest.raises(ConventionViolation):
        run_experiment(small_experiment(fam, model3, full_scen))


@pytest.mark.parametrize("R", [2, 6])
def test_file_maps_read_once_per_scale(fam, model3, tmp_path, monkeypatch, R):
    # the plan holds W and sigma: two reads per scale, whatever R is
    schedule = []
    for j in (3, 4):
        pix = make_scale(fam, j).pix
        paths = []
        for what, values in (("mask", (pix.theta_k > 0.5).astype(float)),
                             ("noise", 0.1 + 0.2 * pix.theta_k / math.pi)):
            paths.append(str(tmp_path / f"j{j}_{what}.map"))
            write_map(paths[-1], pix, values)
        schedule.append((j, j, MaskSpec(kind="file", path=paths[0]), NoiseSpec(kind="file", path=paths[1])))
    calls = []

    def counting(path):
        calls.append(path)
        return read_map(path)

    monkeypatch.setattr("nse.model.read_map", counting)
    exp = small_experiment(fam, model3, Scenario(schedule=tuple(schedule)), R=R,
                           threshold_mode="quantile", q=0.5)
    rows, _ = run_experiment(exp)
    assert len(rows) == 2 * R
    assert len(calls) == 4 and len(set(calls)) == 4


def test_experiment_validation(fam, model3, full_scen):
    cfg = EstimatorConfig(alpha=3.0)
    with pytest.raises(InvalidParameter):
        Experiment(fam=fam, model=model3, scen=full_scen, scales=(3,),
                   replicates=1, seed=0, cfg=cfg)
    with pytest.raises(InvalidParameter):
        Experiment(fam=fam, model=model3, scen=full_scen, scales=(3, 99),
                   replicates=2, seed=0, cfg=cfg)
    with pytest.raises(InvalidParameter):
        Experiment(fam=fam, model=model3, scen=full_scen, scales=(),
                   replicates=2, seed=0, cfg=cfg)


def test_summarize_values_and_nan_guards():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    row = summarize(5, x, 2.0)
    assert row.j == 5
    assert row.mean == pytest.approx(2.5)
    assert row.var == pytest.approx(float(np.var(x, ddof=1)))
    assert row.bias == pytest.approx(0.5)
    assert row.rel_mse == pytest.approx(float(np.mean((x - 2.0) ** 2) / 4.0))
    assert row.skew == pytest.approx(0.0)
    assert math.isnan(row.ad_stat)  # needs 8 replicates
    tiny = summarize(5, np.array([1.0, 2.0]), 2.0)
    assert math.isnan(tiny.skew)
    flat = summarize(5, np.full(10, 3.0), 2.0)
    assert math.isnan(flat.ad_stat)  # degenerate sample
    assert math.isnan(flat.skew)


def test_csv_formats(tmp_path):
    rows = [(3, 0, 0.012345678901234567, 0.01, 100, "mle")]
    p = tmp_path / "results.csv"
    with open(p, "w") as fh:
        write_results_csv(fh, rows)
    text = p.read_text().splitlines()
    assert text[0] == "j,replicate,c_hat,c_target,kept_count,mode"
    assert text[1].startswith("3,0,0.012345678901234567,")
    row = summarize(3, np.array([1.0, 2.0, 3.0, 4.0]), 2.0)
    q = tmp_path / "summary.csv"
    with open(q, "w") as fh:
        write_summary_csv(fh, [row])
    lines = q.read_text().splitlines()
    assert lines[0] == "j,mean,var,bias,rel_mse,skew,exkurt,ad_stat"
    assert lines[1].split(",")[0] == "3"
    assert lines[1].split(",")[7] == "nan"


# ------------------------------------------------------------- diagnostics

def test_anderson_darling_normal_calibration():
    rng = np.random.default_rng(55)
    below = sum(anderson_darling(rng.standard_normal(10000)) < 1.035 for _ in range(100))
    assert below >= 95


def test_anderson_darling_rejects_exponential():
    rng = np.random.default_rng(6)
    assert anderson_darling(rng.exponential(size=10000)) > 1.035


def test_anderson_darling_validation():
    with pytest.raises(DegenerateSample):
        anderson_darling(np.full(20, 1.5))
    with pytest.raises(InvalidParameter):
        anderson_darling(np.arange(5, dtype=float))


def test_skew_kurt_examples():
    s, k = skew_kurt(np.array([-1.0, 1.0, -1.0, 1.0]))
    assert s == 0.0
    assert k == pytest.approx(-2.0)
    rng = np.random.default_rng(7)
    s, k = skew_kurt(rng.standard_normal(10000))
    assert abs(s) < 0.08
    assert abs(k) < 0.15
    s, _ = skew_kurt(rng.standard_normal(10000) ** 2)
    assert s > 0.5
    with pytest.raises(DegenerateSample):
        skew_kurt(np.full(6, 2.0))
    with pytest.raises(InvalidParameter):
        skew_kurt(np.array([1.0, 2.0, 3.0]))
