"""Per-module metrics from the spans of traced `nse` commands.

A span's self time is its duration minus the durations of its direct
children (spans nest within one thread).  `s` metrics sum self time over
every call; `ms_p50_j6` is the median call duration on the scale-6 grid.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

# per-layer metric -> (unit, better); the order is the order of the output
METRICS = {
    "config.load_config.s": ("s", "lower"),
    "window.build_windows.s": ("s", "lower"),
    "grid.build_pixelization.calls": ("count", "lower"),
    "grid.build_pixelization.s": ("s", "lower"),
    "grid.read_map.calls": ("count", "lower"),
    "grid.read_map.s": ("s", "lower"),
    "grid.read_map.mb_per_s": ("MB/s", "higher"),
    "grid.write_map.calls": ("count", "lower"),
    "grid.write_map.s": ("s", "lower"),
    "grid.write_map.mb_per_s": ("MB/s", "higher"),
    "harmonics.forward_sht.calls": ("count", "lower"),
    "harmonics.forward_sht.s": ("s", "lower"),
    "harmonics.forward_sht.ms_p50_j6": ("ms", "lower"),
    "harmonics.inverse_sht.calls": ("count", "lower"),
    "harmonics.inverse_sht.s": ("s", "lower"),
    "harmonics.inverse_sht.ms_p50_j6": ("ms", "lower"),
    "harmonics.sht.gflop_s_j6": ("Gflop/s", "higher"),
    "harmonics.sht.flop_per_byte_j6": ("flop/B", "higher"),
    "harmonics.sht.first_call_excess_s": ("s", "lower"),
    "needlet.make_scale.s": ("s", "lower"),
    "needlet.needlet_coeffs_of_sequence.calls": ("count", "lower"),
    "needlet.needlet_coeffs_of_sequence.s": ("s", "lower"),
    "needlet.needlet_coeffs_of_sequence.ms_p50_j6": ("ms", "lower"),
    "needlet.filtered_square_functional.calls": ("count", "lower"),
    "needlet.filtered_square_functional.s": ("s", "lower"),
    "model.observe.calls": ("count", "lower"),
    "model.observe.s": ("s", "lower"),
    "model.observe.ms_p50_j6": ("ms", "lower"),
    "model.synthesize_field.calls": ("count", "lower"),
    "model.synthesize_field.s": ("s", "lower"),
    "model.scenario_maps.calls": ("count", "lower"),
    "model.scenario_maps.s": ("s", "lower"),
    "estimator.prepare_scale.calls": ("count", "lower"),
    "estimator.prepare_scale.s": ("s", "lower"),
    "estimator.noise_levels.s": ("s", "lower"),
    "estimator.mask_functional.s": ("s", "lower"),
    "estimator.two_pass_estimate.calls": ("count", "lower"),
    "estimator.two_pass_estimate.s": ("s", "lower"),
    "mc.build_plans.s": ("s", "lower"),
    "mc.build_plans.wall_s": ("s", "lower"),
    "mc.replicate.ms_p50": ("ms", "lower"),
    "mc.replicate.ms_p99": ("ms", "lower"),
    "mc.pool.busy_frac": ("ratio", "higher"),
    "mc.summarize.s": ("s", "lower"),
    "mc.write_csv.s": ("s", "lower"),
    "cli.cmd_mc.wall_s": ("s", "lower"),
    "cli.cmd_synth.wall_s": ("s", "lower"),
    "cli.cmd_estimate.wall_s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "tracing.overhead_frac": ("ratio", "lower"),
    "tracing.missing_functions": ("count", "lower"),
}

# metric prefix -> traced functions it aggregates
GROUPS = {
    "model.scenario_maps": ("model.Scenario.mask_map", "model.Scenario.noise_map"),
    "mc.replicate": ("mc._replicate_rows",),
    "mc.write_csv": ("mc.write_results_csv", "mc.write_summary_csv"),
}

SHT = ("harmonics.forward_sht", "harmonics.inverse_sht")


def load_spans(path: str):
    """(header, spans) of one traced command's span file."""
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [json.loads(line) for line in f]
    return header, spans


def self_times(spans) -> dict:
    """span id -> duration minus the summed durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def sht_flops(span) -> float:
    """Legendre contraction of one transform: a real table entry times a
    complex ring coefficient, accumulated, for every ring and (l, m <= l)."""
    lmax = span["lmax"]
    return 4.0 * span["n_rings"] * (lmax + 1) * (lmax + 2) / 2


def sht_bytes(span) -> float:
    """Computed bytes: the Legendre table (float64), the ring Fourier
    coefficients and the (l, m) coefficient array (complex128), each once."""
    lmax = span["lmax"]
    n = span["n_rings"]
    return 8.0 * n * (lmax + 1) * (lmax + 2) / 2 + 16.0 * n * (lmax + 1) + 16.0 * (lmax + 1) ** 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def first_call_excess(spans) -> float:
    """Extra time of the first SHT call on each (process, transform, grid,
    degree) over the median of the later ones: the lazily built Legendre
    tables."""
    groups = defaultdict(list)
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] in SHT and "lmax" in s:
            groups[(s["command"], s["name"], s["order"], s["lmax"])].append(s["end"] - s["start"])
    return sum(
        max(0.0, d[0] - statistics.median(d[1:])) for d in groups.values() if len(d) > 1
    )


def pass_metrics(commands, j6_order, threads: int) -> dict:
    """Per-layer metrics of one traced pass, without the tracing overhead.

    `commands` holds (header, spans) of each traced process of the pass;
    `threads` is the mc pool size; `j6_order` the scale-6 grid order."""
    spans = []
    for k, (_, command_spans) in enumerate(commands):
        for s in command_spans:
            parent = None if s["parent"] is None else (k, s["parent"])
            spans.append(dict(s, id=(k, s["id"]), parent=parent, command=k))
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def members(prefix):
        return [s for n in GROUPS.get(prefix, (prefix,)) for s in by_name[n]]

    def duration(group):
        return sum((s["end"] - s["start"] for s in group), 0.0)

    def ms_p50_j6(prefix):
        d = [s["end"] - s["start"] for s in members(prefix) if s.get("order") == j6_order]
        return 1e3 * statistics.median(d) if d else 0.0

    def mb_per_s(prefix):
        t = duration(members(prefix))
        return sum(s.get("bytes", 0) for s in members(prefix)) / 1e6 / t if t > 0 else 0.0

    out = {}
    for metric in METRICS:
        prefix, quantity = metric.rsplit(".", 1)
        if quantity == "calls":
            out[metric] = float(len(members(prefix)))
        elif quantity == "s":
            out[metric] = sum((own[s["id"]] for s in members(prefix)), 0.0)
        elif quantity == "wall_s":
            out[metric] = duration(members(prefix))
        elif quantity == "ms_p50_j6":
            out[metric] = ms_p50_j6(prefix)
        elif quantity == "mb_per_s":
            out[metric] = mb_per_s(prefix)

    j6_sht = [s for n in SHT for s in by_name[n] if s.get("order") == j6_order and "lmax" in s]
    flops = sum(map(sht_flops, j6_sht))
    out["harmonics.sht.gflop_s_j6"] = flops / duration(j6_sht) / 1e9 if j6_sht else 0.0
    out["harmonics.sht.flop_per_byte_j6"] = flops / sum(map(sht_bytes, j6_sht)) if j6_sht else 0.0
    out["harmonics.sht.first_call_excess_s"] = first_call_excess(spans)

    reps = members("mc.replicate")
    rep_ms = [1e3 * (s["end"] - s["start"]) for s in reps]
    out["mc.replicate.ms_p50"] = statistics.median(rep_ms) if rep_ms else 0.0
    out["mc.replicate.ms_p99"] = percentile(rep_ms, 99) if rep_ms else 0.0
    window = max((s["end"] for s in reps), default=0.0) - min((s["start"] for s in reps), default=0.0)
    out["mc.pool.busy_frac"] = sum(rep_ms) / 1e3 / (threads * window) if window > 0 else 0.0

    headers = [h for h, _ in commands]
    out["process.import_s"] = sum(h["import_s"] for h in headers)
    out["tracing.missing_functions"] = float(len(missing_functions(headers)))
    return out


def missing_functions(headers) -> list:
    return sorted({name for h in headers for name in h["missing"]})
