#!/usr/bin/env python3
"""Write perfbench/reference.json: each workload's result CSVs at the
reference seeds, produced with one pool thread.

    python3 perfbench/make_reference.py

run.py compares a run's first pass with the stored record of its seed:
byte identity, and the largest c_hat deviation within
gate.REFERENCE_TOLERANCE.  mc-abc runs on two threads, so its comparison
also checks that results do not depend on the thread count.  Regenerate
only when a change is meant to alter the results, and say so.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run

REFERENCE_SEEDS = range(1, 11)


def main() -> int:
    env = run.child_env()
    run.RUNS.mkdir(exist_ok=True)
    reference = {}
    for w in run.WORKLOADS.values():
        single = dataclasses.replace(w, threads=1)
        workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.RUNS))
        try:
            manifest = run.prepare(single, workdir, env)
            for seed in REFERENCE_SEEDS:
                p = run.run_pass(single, manifest, seed, workdir / f"seed{seed}", env, traced=False)
                if p.problems:
                    print(f"{w.name} seed {seed}: {p.problems}", file=sys.stderr)
                    return 1
                reference.setdefault(w.name, {})[str(seed)] = {
                    name: gate.reference_record(text)
                    for name, text in sorted(p.csvs.items())
                    if name.endswith("results.csv")
                }
                print(f"{w.name} seed {seed}: recorded", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
