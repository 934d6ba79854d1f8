"""Self-tests of the benchmark's own logic on a small config (scales 3-4).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 7
FILES = run.Workload("small-files", "configs/abc.ini", "files", 8, 1, "self-test", scales="3-4")
MC = run.Workload("small-mc", "configs/abc.ini", "mc", 8, 2, "self-test", scales="3-4")


def one_pass(w, tmp: Path, traced: bool):
    env = run.child_env()
    manifest = run.prepare(w, tmp, env)
    return manifest, run.run_pass(w, manifest, SEED, tmp / "pass", env, traced=traced)


@pytest.fixture(scope="module")
def files_pass(tmp_path_factory):
    return one_pass(FILES, tmp_path_factory.mktemp("files"), traced=False)[1]


@pytest.fixture(scope="module")
def traced_mc(tmp_path_factory):
    return one_pass(MC, tmp_path_factory.mktemp("mc"), traced=True)


def test_files_pass_passes_the_gate(files_pass):
    assert files_pass.problems == []
    assert files_pass.failed == 0
    # synth, estimate and mc, plus every (j, replicate) row of mc and estimate
    assert files_pass.attempted == 3 + 2 * 8 + 2
    assert set(files_pass.children) == {"synth", "estimate", "mc"}


def test_gate_fails_on_tampered_estimate_results(files_pass):
    est = files_pass.csvs["maps/results.csv"]
    header, first, *rest = est.splitlines()
    fields = first.split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-12))
    tampered = "\n".join([header, ",".join(fields), *rest]) + "\n"
    assert tampered != est
    problems = gate.check_estimate_matches_mc(tampered, files_pass.csvs["mc/results.csv"], [3, 4])
    assert len(problems) == 1 and "differs from mc row" in problems[0]


def test_gate_counts_a_dropped_row(files_pass):
    lines = files_pass.csvs["mc/results.csv"].splitlines()
    dropped = "\n".join(lines[:5] + lines[6:]) + "\n"
    missing, problems = gate.check_results(dropped, [3, 4], 8)
    assert missing == 1
    assert problems == ["results.csv lacks 1 of 16 (j, replicate) rows"]
    assert gate.check_results(files_pass.csvs["mc/results.csv"], [3, 4], 8) == (0, [])


def test_gate_fails_on_non_finite_summary(files_pass):
    summary = files_pass.csvs["mc/summary.csv"]
    assert gate.check_summary(summary, [3, 4]) == []
    header, first, *rest = summary.splitlines()
    bad = "\n".join([header, first.rsplit(",", 1)[0] + ",nan", *rest])
    assert len(gate.check_summary(bad, [3, 4])) == 1
    assert len(gate.check_summary("\n".join([header, first]), [3, 4])) == 1


def test_reference_comparison_tolerates_roundoff_only(files_pass):
    text = files_pass.csvs["mc/results.csv"]
    ref = gate.reference_record(text)
    assert gate.compare_reference(text, ref) == (True, 0.0, [])

    def scaled(factor):
        header, *rows = text.splitlines()
        out = [header]
        for row in rows:
            f = row.split(",")
            f[2] = repr(float(f[2]) * factor)
            out.append(",".join(f))
        return "\n".join(out) + "\n"

    identical, dev, problems = gate.compare_reference(scaled(1 + 1e-14), ref)
    assert not identical and dev < gate.REFERENCE_TOLERANCE and problems == []
    identical, dev, problems = gate.compare_reference(scaled(1 + 1e-6), ref)
    assert not identical and len(problems) == 1


def test_traced_pass_records_spans_per_replicate(traced_mc):
    manifest, p = traced_mc
    assert p.problems == []
    [(header, spans)] = p.spans
    assert header["missing"] == [] and header["rc"] == 0
    for s in spans:
        assert {"id", "name", "start", "end", "parent", "replicate"} <= s.keys()
        assert s["start"] <= s["end"]
    reps = [s for s in spans if s["name"] == tracer.REPLICATE]
    assert sorted(s["replicate"] for s in reps) == list(range(8))
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "model.observe":
            parent = by_id[s["parent"]]
            assert parent["name"] == tracer.REPLICATE and parent["replicate"] == s["replicate"]

    m = layers.pass_metrics(p.spans, manifest["grid"].get("6", {}).get("order"), MC.threads)
    assert set(m) == set(layers.METRICS) - {"tracing.overhead_frac"}
    assert m["model.observe.calls"] == 2 * 8
    assert m["estimator.two_pass_estimate.calls"] == 2 * 8
    # every replicate evaluates mask and noise at both scales; the plans
    # evaluate them three times per scale (noise levels twice, mask functional once)
    assert m["model.scenario_maps.calls"] == 2 * 2 * 8 + 3 * 2
    assert m["grid.read_map.calls"] == 0 and m["grid.write_map.calls"] == 0
    assert m["harmonics.sht.gflop_s_j6"] == 0.0  # no scale 6 in this config
    assert 0.0 < m["mc.pool.busy_frac"] <= 1.0


def test_missing_function_is_reported_not_fatal(monkeypatch):
    import nse.cli  # noqa: F401
    import nse.grid

    recorder = tracer.Recorder()
    wanted = tracer.TRACED + (("grid", "no_such_function"), ("model", "NoSuchClass.method"))
    missing = tracer.install(recorder, wanted, patch=monkeypatch.setattr)
    assert missing == ["grid.no_such_function", "model.NoSuchClass.method"]
    nse.grid.build_pixelization(8)
    [span] = recorder.spans
    assert span["name"] == "grid.build_pixelization" and span["parent"] is None
    assert span["order"] == 8 and span["n_rings"] == 5


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 2, "start": 2.0, "end": 3.0},
        {"id": 4, "parent": 1, "start": 5.0, "end": 9.0},
    ]
    assert layers.self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_first_call_excess_counts_only_repeated_keys():
    def sht(start, dur, lmax):
        return {"name": "harmonics.forward_sht", "command": 0, "order": 64, "lmax": lmax,
                "start": start, "end": start + dur}

    spans = [sht(0, 5.0, 16), sht(10, 1.0, 16), sht(20, 1.5, 16), sht(30, 9.0, 32)]
    assert layers.first_call_excess(spans) == pytest.approx(5.0 - 1.25)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-abc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2
    assert res.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values() if w.name not in run.EXTRA
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
    mapped = [name for row in json.loads((BENCH / "layers.json").read_text())["mapping"]
              for name in row["metrics"]]
    assert sorted(mapped) == sorted(layers.METRICS)
