#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload: one untraced run per seed, then one traced run at the
first seed.  For each end-to-end metric it records the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json; the traced run gives the
per-module values.  Any run that is not correct stops the tool.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH, EXTRA, ROOT, RUNS, WORKLOADS


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(res.stdout.splitlines()[-1]) if res.stdout.strip() else None
    if res.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{res.stdout[-3000:]}\n{res.stderr[-3000:]}")
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - start:.1f} s "
          + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}
                       if not trace else {}), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w for w in WORKLOADS if w not in EXTRA))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in args.workloads.split(","):
        values = {}
        for seed in seeds:
            for metric, v in bench(name, seed, spec["run_seconds"], 0)["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        traced = bench(name, seeds[0], spec["run_seconds"], 1)
        manifest = json.loads((RUNS / f"{name}-seed{seeds[0]}-trace0.json").read_text())["manifest"]
        rows = {}
        for metric, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                            "bound": bounds[metric], "values": v}
            print(f"{name} {metric}: median {median:.4g}, spread {rows[metric]['spread']:.1%} "
                  f"(bound {bounds[metric]:g})", flush=True)
        summary["workloads"][name] = {
            "manifest": {k: manifest[k] for k in manifest if k not in ("config", "seed")},
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
