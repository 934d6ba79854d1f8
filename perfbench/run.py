#!/usr/bin/env python3
"""End-to-end and per-module benchmark of the `nse` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through `nse` in fresh processes, from the root of a
checkout.  Before timing it writes the workload's inputs (config, and for
cli-files the per-scale maps) under .perfbench_runs/.  It then repeats
cycles of a setup probe and a pass of the workload's commands for about S
seconds: a cycle starts only if it should end within half a cycle of S.
It gates every pass on correct outputs and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs every pass once
untraced and once under perfbench/tracer.py and reports the per-module
metrics of perfbench/layers.py, plus the overhead of tracing.

Workloads (closed loop, one command at a time, pool threads x BLAS threads
<= 2):
  mc-abc      `nse mc` on configs/abc.ini, --threads 2
  cli-files   abc geometry with every mask and noise given as a map file:
              `nse synth`, `nse estimate` on its maps, a short `nse mc`,
              --threads 2
  mc-fullsky  `nse mc` on configs/fullsky.ini, --threads 1; not listed in
              BENCHMARK.json (see EXTRA)

Exit status: 0 when every output is correct, 1 when the gate failed (the
result is still printed), 2 when the checkout has no `nse` sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"
REFERENCE = BENCH / "reference.json"

# one BLAS thread per process: with OpenBLAS's default of one per core, two
# pool threads oversubscribe the 2-core box and timings depend on it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str  # relative to the checkout root
    kind: str  # "mc": nse mc only; "files": synth, estimate and mc on file maps
    replicates: int
    threads: int
    why: str
    scales: str | None = None  # replaces [mc] scales; the self-tests use a small range


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-abc", "configs/abc.ini", "mc", 80, 2,
            "the paper's three-campaign experiment on two pool threads: SHT-bound "
            "replicates, masked plan build with filtered transforms",
        ),
        # two pool threads although map parsing holds the GIL: on a shared
        # 2-vCPU VM each vCPU slows down independently, and passing the GIL
        # across both averages their speeds, which halved the run-to-run
        # spread of replicates_per_s against one thread.  8 replicates is the
        # fewest for which summary.csv is finite (Anderson-Darling needs 8)
        Workload(
            "cli-files", "configs/abc.ini", "files", 8, 2,
            "abc geometry with masks and noise as map files through synth, estimate "
            "and mc: map text I/O bound",
        ),
        Workload(
            "mc-fullsky", "configs/fullsky.ini", "mc", 80, 1,
            "single-threaded full-sky baseline: no mask, no noise, plan build with "
            "no transforms, every point kept",
        ),
    )
}
# runnable by name but not listed in BENCHMARK.json: comparing two commits
# takes 22 runs of each listed workload within an hour, and a third workload
# would cut runs to about 30 s, too short to steady cli-files' map parsing
EXTRA = ("mc-fullsky",)


@dataclass
class Child:
    """A finished child process, timed from outside."""

    rc: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv, workdir: Path, env: dict) -> Child:
    """Run argv to completion; wall time and peak RSS are the child's own."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode, wall_s=wall, maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(), stderr=err_path.read_text(),
    )


def nse_argv(command: str, config: Path, seed: int, out: Path, threads: int | None, spans: Path | None):
    if spans is None:
        argv = [sys.executable, "-m", "nse.cli"]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--"]
    argv += [command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


@dataclass
class Pass:
    """One execution of a workload's commands and what the gate found."""

    children: dict  # command -> Child
    wall_s: float
    attempted: int
    failed: int
    problems: list
    csvs: dict  # output file (relative to the pass dir) -> text
    spans: list  # (header, spans) per traced command


def run_pass(w: Workload, manifest: dict, seed: int, passdir: Path, env: dict, traced: bool) -> Pass:
    """Run the workload's commands once and gate their outputs."""
    config = Path(manifest["config"])
    scales = manifest["scales"]
    passdir.mkdir(parents=True)
    if w.kind == "files":
        steps = [
            ("synth", "maps", None),
            ("estimate", "maps", None),  # reads the maps synth wrote to its --out
            ("mc", "mc", w.threads),
        ]
    else:
        steps = [("mc", "mc", w.threads)]
    children, spans, problems = {}, [], []
    attempted = failed = 0
    for command, out, threads in steps:
        span_file = passdir / f"{command}.spans.jsonl" if traced else None
        child = run_child(nse_argv(command, config, seed, passdir / out, threads, span_file), passdir, env)
        children[command] = child
        attempted += 1
        if child.rc != 0:
            failed += 1
            problems.append(f"nse {command} exited {child.rc}: {child.stderr.strip()[-500:]}")
        elif traced:
            spans.append(layers.load_spans(span_file))
    csvs = {}
    for name in ("mc/results.csv", "mc/summary.csv", "maps/results.csv"):
        if (passdir / name).exists():
            csvs[name] = (passdir / name).read_text()
    attempted += len(scales) * w.replicates
    missing, found = gate.check_results(csvs.get("mc/results.csv", ""), scales, w.replicates)
    failed += missing
    problems += found
    problems += gate.check_summary(csvs.get("mc/summary.csv", ""), scales)
    if w.kind == "files":
        attempted += len(scales)
        est_missing, found = gate.check_results(csvs.get("maps/results.csv", ""), scales, 1)
        failed += est_missing
        problems += [f"estimate {p}" for p in found]
        problems += gate.check_estimate_matches_mc(
            csvs.get("maps/results.csv", ""), csvs.get("mc/results.csv", ""), scales
        )
    shutil.rmtree(passdir)  # synth's maps are tens of MB per pass
    return Pass(
        children=children, wall_s=sum(c.wall_s for c in children.values()),
        attempted=attempted, failed=failed, problems=problems, csvs=csvs, spans=spans,
    )


def check_reference(w: Workload, seed: int, csvs: dict) -> list:
    """Compare with the stored outputs of this seed, if there are any."""
    if not REFERENCE.exists():
        return []
    refs = json.loads(REFERENCE.read_text()).get(w.name, {}).get(str(seed))
    if refs is None:
        print(f"reference: none stored for seed {seed}")
        return []
    problems = []
    for name, ref in refs.items():
        if name not in csvs:
            problems.append(f"reference: {name} was not produced")
            continue
        identical, dev, found = gate.compare_reference(csvs[name], ref)
        print(
            f"reference seed {seed} {name}: byte-identical {'yes' if identical else 'no'}, "
            f"max relative c_hat deviation {dev:.3e} (tolerance {gate.REFERENCE_TOLERANCE:g})"
        )
        problems += found
    return problems


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def prepare(w: Workload, workdir: Path, env: dict) -> dict:
    """Write the workload's inputs (untimed) and return the run manifest."""
    argv = [sys.executable, str(BENCH / "probe.py"), "prepare", w.kind,
            str(ROOT / w.base_config), str(workdir), str(w.replicates)]
    if w.scales is not None:
        argv.append(w.scales)
    child = run_child(argv, workdir, env)
    if child.rc != 0:
        raise RuntimeError(f"preparing {w.name} failed: {child.stderr.strip()[-2000:]}")
    manifest = json.loads(child.stdout.splitlines()[-1])
    manifest.update(
        workload=w.name, replicates=w.replicates, threads=w.threads, blas_threads=BLAS_ENV,
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), platform=platform.platform(),
        git_commit=git_commit(), source_sha256=source_digest(),
    )
    return manifest


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(w: Workload, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    """Run a workload for about `seconds` of measurement; returns the result object."""
    env = child_env()
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=outdir))
    try:
        manifest = prepare(w, workdir, env)
        manifest["seed"] = seed
        print("manifest: " + json.dumps(manifest, sort_keys=True))
        setup_argv = [sys.executable, str(BENCH / "probe.py"), "setup", manifest["config"]]
        start = time.perf_counter()
        probes, passes, traced = [], [], []
        # a setup probe right before every pass keeps setup_s and the mc wall
        # time it is subtracted from under the same host load
        while True:
            if not trace:
                probes.append(run_child(setup_argv, workdir, env))
            i = len(passes)
            passes.append(run_pass(w, manifest, seed, workdir / f"pass{i}", env, traced=False))
            if trace:
                traced.append(run_pass(w, manifest, seed, workdir / f"traced{i}", env, traced=True))
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(passes) > seconds:
                break
        while not trace and len(probes) < SETUP_PROBES:
            probes.append(run_child(setup_argv, workdir, env))
        runs = passes + traced
        problems = [p for r in runs for p in r.problems]
        problems += [f"setup probe exited {c.rc}: {c.stderr.strip()[-500:]}" for c in probes if c.rc]
        # every pass runs the same seed, so every pass must write the same bytes
        for r in runs[1:]:
            for name, text in runs[0].csvs.items():
                if r.csvs.get(name) != text:
                    problems.append(f"{name} differs between passes of one seed")
        problems += check_reference(w, seed, runs[0].csvs)
        attempted = sum(r.attempted for r in runs) + len(probes)
        failed = sum(r.failed for r in runs) + sum(1 for c in probes if c.rc)

        if trace:
            metrics = trace_metrics(w, manifest, passes, traced)
        else:
            metrics = end_to_end_metrics(w, probes, passes)
        for p in problems:
            print(f"FAIL {p}")
        units = {**{k: v[0] for k, v in layers.METRICS.items()}, **END_TO_END_UNITS}
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        (outdir / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
            {"manifest": manifest, "result": result, "problems": problems,
             "pass_wall_s": [p.wall_s for p in passes],
             "mc_wall_s": [p.children["mc"].wall_s for p in passes],
             "setup_s": [c.wall_s for c in probes]}, indent=1,
        ))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "replicates_per_s": "1/s", "peak_rss_mb": "MB"}


def end_to_end_metrics(w: Workload, probes, passes) -> dict:
    setup = statistics.median(c.wall_s for c in probes)
    walls = [p.wall_s for p in passes]
    rates = [w.replicates / (p.children["mc"].wall_s - setup) for p in passes]
    rss = max(c.maxrss_kb for c in probes + [c for p in passes for c in p.children.values()])
    for name, values in (("wall_s", walls), ("replicates_per_s", rates), ("setup_s", [c.wall_s for c in probes])):
        q1, q2, q3 = quartiles(values)
        print(f"{name}: median {q2:.4g}, quartiles {q1:.4g}..{q3:.4g}, {len(values)} samples")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "replicates_per_s": statistics.median(rates),
        "peak_rss_mb": rss * 1024 / 1e6,
    }


def trace_metrics(w: Workload, manifest: dict, passes, traced) -> dict:
    j6 = manifest["grid"].get("6", {}).get("order")
    per_pass = [layers.pass_metrics(t.spans, j6, w.threads) for t in traced if t.spans]
    metrics = {
        name: statistics.median(p[name] for p in per_pass) if per_pass else 0.0
        for name in layers.METRICS if name != "tracing.overhead_frac"
    }
    untraced = statistics.median(p.wall_s for p in passes)
    metrics["tracing.overhead_frac"] = statistics.median(t.wall_s for t in traced) / untraced - 1.0
    missing = layers.missing_functions(h for t in traced for h, _ in t.spans)
    for name in missing:
        print(f"missing: {name} is not in the package; its metrics read 0")
    return {name: metrics[name] for name in layers.METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_child so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nse" / "cli.py").is_file():
        print(f"no nse sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), RUNS)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
