"""Correctness gate for the benchmark's `nse` outputs.

Every check returns a list of problems (empty means the output passed).
Rows the run should have produced but did not are counted separately, so
that silently dropped `(j, replicate)` rows show up as failures.
"""

from __future__ import annotations

import hashlib
import math

RESULT_HEADER = "j,replicate,c_hat,c_target,kept_count,mode"

# largest |c_hat - c_hat_ref| / c_target accepted against a stored reference;
# a change that only reorders floating-point sums moves c_hat by ~1e-15
REFERENCE_TOLERANCE = 1e-9


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_rows(text: str) -> dict:
    """Map (j, replicate) -> the row's text, for a results.csv body."""
    lines = text.splitlines()
    if not lines or lines[0] != RESULT_HEADER:
        raise ValueError(f"results.csv header is {lines[:1]!r}, want {RESULT_HEADER!r}")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"results.csv row {line!r} has {len(fields)} fields")
        key = (int(fields[0]), int(fields[1]))
        if key in rows:
            raise ValueError(f"results.csv repeats row {key}")
        rows[key] = line
    return rows


def c_hats(text: str) -> dict:
    """Map (j, replicate) -> (c_hat, c_target) for a results.csv body."""
    return {
        key: (float(line.split(",")[2]), float(line.split(",")[3]))
        for key, line in result_rows(text).items()
    }


def check_results(text: str, scales, replicates: int):
    """Check a results.csv against the rows a run of `replicates` replicates
    over `scales` must produce.  Returns (missing row count, problems)."""
    try:
        values = c_hats(text)
    except ValueError as exc:
        return len(scales) * replicates, [str(exc)]
    expected = {(j, r) for j in scales for r in range(replicates)}
    problems = []
    missing = len(expected - values.keys())
    if missing:
        problems.append(f"results.csv lacks {missing} of {len(expected)} (j, replicate) rows")
    extra = sorted(values.keys() - expected)
    if extra:
        problems.append(f"results.csv has unexpected rows {extra[:5]}")
    bad = [key for key, (c, t) in values.items() if not (math.isfinite(c) and math.isfinite(t))]
    if bad:
        problems.append(f"results.csv has non-finite values in rows {bad[:5]}")
    return missing, problems


def check_summary(text: str, scales) -> list:
    """One row per scale, every statistic finite."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("j,"):
        return [f"summary.csv header is {lines[:1]!r}"]
    problems = []
    seen = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            seen.append(int(fields[0]))
            values = [float(v) for v in fields[1:]]
        except ValueError:
            problems.append(f"summary.csv row {line!r} does not parse")
            continue
        if len(values) != len(lines[0].split(",")) - 1 or not all(map(math.isfinite, values)):
            problems.append(f"summary.csv row {line!r} is incomplete or not finite")
    if seen != list(scales):
        problems.append(f"summary.csv covers scales {seen}, want {list(scales)}")
    return problems


def check_estimate_matches_mc(estimate_text: str, mc_text: str, scales) -> list:
    """`nse estimate` on `nse synth` maps must reproduce mc replicate 0 byte for byte."""
    try:
        est = result_rows(estimate_text)
        mc = result_rows(mc_text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if sorted(est) != [(j, 0) for j in scales]:
        problems.append(f"estimate results.csv has rows {sorted(est)}, want replicate 0 of {list(scales)}")
    for key, line in sorted(est.items()):
        if mc.get(key) != line:
            problems.append(f"estimate row {line!r} differs from mc row {mc.get(key)!r}")
    return problems


def reference_record(text: str) -> dict:
    """What the benchmark stores about a results.csv to compare later runs with."""
    return {"sha256": sha256(text), "c_hat": [line.split(",")[2] for line in text.splitlines()[1:]]}


def compare_reference(text: str, ref: dict):
    """Returns (byte identical, max relative c_hat deviation, problems).

    The deviation is taken relative to each row's c_target, the scale's
    expected value, because c_hat itself can sit near zero."""
    identical = sha256(text) == ref["sha256"]
    try:
        rows = list(c_hats(text).values())
    except ValueError as exc:
        return identical, math.inf, [str(exc)]
    if len(rows) != len(ref["c_hat"]):
        return identical, math.inf, [f"{len(rows)} rows against {len(ref['c_hat'])} in the reference"]
    dev = max(
        (abs(c - float(c_ref)) / abs(t) for (c, t), c_ref in zip(rows, ref["c_hat"])),
        default=0.0,
    )
    problems = []
    if not dev <= REFERENCE_TOLERANCE:
        problems.append(f"c_hat deviates from the reference by {dev:.3e} > {REFERENCE_TOLERANCE:g}")
    return identical, dev, problems
