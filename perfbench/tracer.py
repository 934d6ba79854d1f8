"""Run one `nse` CLI command with a span around every call into the
modules' public functions.

    python3 perfbench/tracer.py --spans FILE -- <nse arguments>

The functions are wrapped from outside the package after import: each
wrapper is bound in place of the original in every `nse` module that holds
it, so calls between modules are traced too.  Spans are kept in memory and
written to FILE as JSON lines when the command ends.  The first line is a
header with the import time and the functions that could not be found
(a refactor may remove or rename one; that is reported, not fatal).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# (module, attribute path) of every traced function, module by module
TRACED = (
    ("config", "load_config"),
    ("window", "build_windows"),
    ("grid", "build_pixelization"),
    ("grid", "read_map"),
    ("grid", "write_map"),
    ("harmonics", "forward_sht"),
    ("harmonics", "inverse_sht"),
    ("needlet", "make_scale"),
    ("needlet", "needlet_coeffs_of_sequence"),
    ("needlet", "filtered_square_functional"),
    ("model", "observe"),
    ("model", "synthesize_field"),
    ("model", "Scenario.mask_map"),
    ("model", "Scenario.noise_map"),
    ("estimator", "prepare_scale"),
    ("estimator", "noise_levels"),
    ("estimator", "mask_functional"),
    ("estimator", "two_pass_estimate"),
    ("mc", "build_plans"),
    ("mc", "_replicate_rows"),
    ("mc", "summarize"),
    ("mc", "write_results_csv"),
    ("mc", "write_summary_csv"),
    ("cli", "cmd_mc"),
    ("cli", "cmd_synth"),
    ("cli", "cmd_estimate"),
)

# the function the mc thread pool maps over; its `r` argument becomes the
# replicate id of every span recorded beneath it
REPLICATE = "mc._replicate_rows"
REPLICATE_ARG = 3


def _grid(args):
    """The Pixelization an argument list works on, if any."""
    for a in args:
        for pix in (a, getattr(a, "pix", None), getattr(getattr(a, "scale", None), "pix", None)):
            if hasattr(pix, "n_phi") and hasattr(pix, "n_rings"):
                return pix
    return None


def _attrs(name, args, result) -> dict:
    """Sizes a span needs for rates: grid order and rings, SHT degree, file bytes."""
    out = {}
    pix = _grid(args)
    if pix is None:
        pix = _grid([result])  # build_pixelization and make_scale return their grid
    if pix is not None:
        out["order"] = pix.order
        out["n_rings"] = pix.n_rings
    if name == "harmonics.forward_sht" and pix is not None:
        out["lmax"] = int(args[2])
    elif name == "harmonics.inverse_sht" and pix is not None:
        out["lmax"] = int(args[0].lmax)
    elif name in ("grid.read_map", "grid.write_map"):
        out["bytes"] = os.path.getsize(args[0])
        if name == "grid.read_map":
            out["order"] = int(result[0]["order"])
    return out


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        is_replicate = name == REPLICATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            replicate = local.__dict__.get("replicate")
            if is_replicate:
                local.replicate = args[REPLICATE_ARG] if len(args) > REPLICATE_ARG else kwargs.get("r")
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": span_id, "name": name, "start": start, "end": end, "parent": parent,
                    "replicate": local.__dict__.get("replicate"), "thread": threading.get_ident(),
                }
                local.replicate = replicate
                try:
                    span.update(_attrs(name, args, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    pass  # a changed signature costs the span its sizes, not the run
                spans.append(span)

        return traced


def install(recorder: Recorder, traced=TRACED, patch=setattr) -> list:
    """Wrap every function in `traced`; returns the names that were not found.

    `patch` does the rebinding; a test passes one that is undone afterwards."""
    modules = [m for n, m in sys.modules.items() if n == "nse" or n.startswith("nse.")]
    missing = []
    for module, path in traced:
        name = f"{module}.{path}"
        owner = sys.modules.get(f"nse.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            missing.append(name)
            continue
        wrapper = recorder.wrap(name, fn)
        patch(owner, attr, wrapper)
        if outer:
            continue  # a method: patching the class reaches every caller
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patch(mod, key, wrapper)
    return missing


def write_spans(path: str, header: dict, spans) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for span in spans:
            f.write(json.dumps(span) + "\n")


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, nse_args = argv[1], argv[3:]
    start = time.perf_counter()
    import nse.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    missing = install(recorder)
    rc = 1
    try:
        rc = nse.cli.main(nse_args)
    finally:
        header = {"import_s": import_s, "missing": missing, "argv": nse_args, "rc": rc}
        write_spans(spans_path, header, recorder.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
