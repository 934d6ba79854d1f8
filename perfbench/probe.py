"""Child processes of the benchmark that import `nse` as a library.

    python3 perfbench/probe.py setup CONFIG
        Import nse, load CONFIG and build the plan of every scale, then exit.
        The parent times the whole process from outside: that is setup_s.

    python3 perfbench/probe.py prepare KIND BASE_CONFIG WORKDIR REPLICATES [SCALES]
        Write the workload's config to WORKDIR/bench.ini: BASE_CONFIG with
        [mc] replicates (and scales, if given) replaced.  For KIND "files"
        every scale's mask and noise are also evaluated from BASE_CONFIG's
        scenario and written as `kind = file` maps beside the config.
        Prints a JSON manifest of the grids and library versions.

Both run with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import configparser
import json
import os
import platform
import sys


def _plans(cfg):
    from nse.mc import Experiment, build_plans

    exp = Experiment(
        fam=cfg.fam, model=cfg.model, scen=cfg.scen, scales=cfg.scales,
        replicates=cfg.replicates, seed=cfg.seed, cfg=cfg.est, order_cap=cfg.order_cap,
    )
    return build_plans(exp)


def setup(config: str) -> None:
    from nse.config import load_config

    _plans(load_config(config))


def _write_file_maps(cfg, plans, parser: configparser.ConfigParser, workdir: str) -> None:
    """Replace the schedule by one `kind = file` campaign per scale whose maps
    hold the values the base scenario gives on that scale's grid."""
    from nse.grid import write_map

    for section in parser.sections():
        if section.startswith(("mask.", "noise.")):
            parser.remove_section(section)
    schedule = []
    for j, plan in plans.items():
        pix = plan.scale.pix
        for what, values in (("mask", cfg.scen.mask_map(j, pix)), ("noise", cfg.scen.noise_map(j, pix))):
            name = f"j{j}_{what}.map"
            write_map(os.path.join(workdir, name), pix, values)
            parser[f"{what}.s{j}"] = {"kind": "file", "path": name}
        schedule.append(f"s{j}:{j}-{j}")
    if not parser.has_section("scenario"):
        parser.add_section("scenario")
    parser["scenario"]["schedule"] = ", ".join(schedule)


def prepare(kind: str, base: str, workdir: str, replicates: int, scales: str | None) -> dict:
    import numpy
    import scipy
    from nse.config import load_config

    parser = configparser.ConfigParser(interpolation=None)
    with open(base) as f:
        parser.read_file(f)
    if not parser.has_section("mc"):
        parser.add_section("mc")
    parser["mc"]["replicates"] = str(replicates)
    if scales is not None:
        parser["mc"]["scales"] = scales
    config = os.path.join(workdir, "bench.ini")
    with open(config, "w") as f:
        parser.write(f)
    cfg = load_config(config)
    plans = _plans(cfg)
    if kind == "files":
        _write_file_maps(cfg, plans, parser, workdir)
        with open(config, "w") as f:
            parser.write(f)
    elif kind != "mc":
        raise SystemExit(f"unknown workload kind {kind!r}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "config": config,
        "scales": list(cfg.scales),
        "grid": {
            str(j): {"order": p.scale.pix.order, "npoints": p.scale.pix.npoints}
            for j, p in plans.items()
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
        return 0
    if argv[:1] == ["prepare"] and len(argv) in (5, 6):
        kind, base, workdir, replicates = argv[1:5]
        scales = argv[5] if len(argv) == 6 else None
        print(json.dumps(prepare(kind, base, workdir, int(replicates), scales)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
