"""Command line front end.

Subcommands: windows, synth, estimate, mc, validate.  Every command is a
pure function of (config bytes, seed, input files): identical inputs give
byte-identical outputs regardless of --threads.

Exit codes: 0 success, 2 config or input error, 3 numerical contract
violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import Config, load_config
from .errors import ConfigError, ConventionViolation, NseError
from .estimator import prepare_scale, two_pass_estimate
from .grid import build_pixelization, read_map, write_map, map_matches_grid
from .harmonics import Alm, band_kernel, forward_sht, inverse_sht
from .mc import Experiment, run_experiment, write_results_csv, write_summary_csv
from .model import SeededRng, observe, replicate_field
from .needlet import grid_order, make_scale, needlet_coeffs_of_sequence, needlet_norm_identity_check
from .window import partition_sum

PROFILE_POINTS = 1025


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--seed", type=int, default=None, help="override [mc] seed")
    common.add_argument("--out", default=None, help="override [io] out directory")
    common.add_argument("--threads", type=int, default=1, help="worker threads (never affects results)")
    common.add_argument("--validate", action="store_true", help="run structural checks first")

    parser = argparse.ArgumentParser(prog="nse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("windows", parents=[common], help="window tables and needlet profiles")
    p_synth = sub.add_parser("synth", parents=[common], help="write one replicate's maps")
    p_est = sub.add_parser("estimate", parents=[common], help="estimate from observed maps")
    p_est.add_argument("--maps", default=None, help="directory of Y maps (default: out dir)")
    sub.add_parser("mc", parents=[common], help="run the Monte Carlo experiment")
    sub.add_parser("validate", parents=[common], help="structural invariant checks only")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            out = args.out if os.path.isabs(args.out) else os.path.abspath(args.out)
            cfg = replace(cfg, out=out)

        if args.command == "validate" or args.validate:
            failures = run_validation(cfg)
            if failures:
                for line in failures:
                    print(line, file=sys.stderr)
                return 3
            if args.command == "validate":
                return 0

        if args.command == "windows":
            cmd_windows(cfg)
        elif args.command == "synth":
            cmd_synth(cfg)
        elif args.command == "estimate":
            cmd_estimate(cfg, args.maps)
        elif args.command == "mc":
            cmd_mc(cfg, args.threads)
        return 0
    except ConventionViolation as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, NseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_validation(cfg: Config) -> list:
    """Structural checks: window partition, cubature Gram identity, and the
    needlet norm identity.  Returns failure messages (empty means pass)."""
    failures = []
    fam = cfg.fam
    # full coverage of l needs every scale through log_B(l) + 1
    l_hi = int(fam.B ** (fam.j_max - 1))
    if l_hi >= 2:
        # tight windows partition unity in squares, literal ones in plain sums
        tight = fam.mode == "tight"
        part = partition_sum(fam, l_hi, 2 if tight else 1)
        what = "sum of squared windows" if tight else "sum of windows"
        err = float(np.max(np.abs(part[1:] - 1.0)))
        line = f"{what} over l = 1..{l_hi}: max error {err:.3e}"
        if err > 1e-12:
            failures.append("FAIL " + line)
        else:
            print("PASS " + line)

    for L in (8, 16):
        err = _gram_error(L)
        line = f"cubature Gram identity at order {L}: max error {err:.3e}"
        if err > 1e-12:
            failures.append("FAIL " + line)
        else:
            print("PASS " + line)

    for j in cfg.scales[:2]:
        scale = make_scale(fam, j, order=grid_order(fam, j, cfg.order_cap))
        probes = range(0, scale.pix.npoints, max(1, scale.pix.npoints // 32))
        err = 0.0
        for k in probes:
            lhs, rhs = needlet_norm_identity_check(scale, k)
            err = max(err, abs(lhs - rhs) / rhs)
        line = f"needlet norm identity at scale {j}: max relative error {err:.3e}"
        if err > 1e-9:
            failures.append("FAIL " + line)
        else:
            print("PASS " + line)
    return failures


def _gram_error(L: int) -> float:
    """Max deviation of the cubature projector from the identity, measured
    by round-tripping every real-convention basis vector through the grid.

    The order-L grid integrates products of harmonics with l + l' <= L
    exactly, so the basis runs to L/2.
    """
    pix = build_pixelization(L)
    half = L // 2
    worst = 0.0
    for l in range(half + 1):
        for m in range(l + 1):
            a = Alm(half)
            a.c[l, m] = 1.0
            back = forward_sht(inverse_sht(a, pix), pix, half)
            worst = max(worst, float(np.max(np.abs(back.c - a.c))))
    return worst


def cmd_windows(cfg: Config) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    fam = cfg.fam
    with open(os.path.join(cfg.out, "windows.csv"), "w") as f:
        f.write("j,l,b\n")
        for j in cfg.scales:
            b = fam.table(j)
            for l, v in enumerate(b):
                f.write(f"{j},{l},{v:.17g}\n")
    theta = np.linspace(0.0, math.pi, PROFILE_POINTS)
    ct = np.cos(theta)
    with open(os.path.join(cfg.out, "profiles.csv"), "w") as f:
        f.write("j,theta,value\n")
        for j in cfg.scales:
            prof = band_kernel(fam.table(j), ct)
            for t, v in zip(theta, prof):
                f.write(f"{j},{t:.17g},{v:.17g}\n")
    l_hi = fam.band_lmax(fam.j_max)
    part = partition_sum(fam, l_hi)
    with open(os.path.join(cfg.out, "partition.csv"), "w") as f:
        f.write("l,sum\n")
        for l, v in enumerate(part):
            f.write(f"{l},{v:.17g}\n")
    print(f"wrote windows.csv, profiles.csv, partition.csv to {cfg.out}")


def cmd_synth(cfg: Config) -> None:
    """Write one replicate's maps per scale: the masked field WX, the masked
    noise level Wsigma, the masked noise WZ, and the observation Y.

    The draws replicate the MC runner's replicate 0 exactly: a single field
    at the largest simulated degree shared by all scales, fresh noise per
    scale, so `estimate` on these maps reproduces an R = 1 mc row.
    """
    if not cfg.scales:
        raise ConfigError("no scales configured")
    os.makedirs(cfg.out, exist_ok=True)
    rng = SeededRng(cfg.seed)
    fam = cfg.fam
    alm = replicate_field(cfg.model, cfg.scen, fam, cfg.scales, rng, 0)
    for j in cfg.scales:
        scale = make_scale(fam, j, order=grid_order(fam, j, cfg.order_cap))
        pix = scale.pix
        W = cfg.scen.mask_map(j, pix)
        sigma = cfg.scen.noise_map(j, pix)
        alm_j = cfg.scen.beamed(alm, j, scale.band_lmax)
        y, x, u = observe(alm_j, pix, W, sigma, rng.stream(0, f"noise.j{j}"))
        maps = {"WX": W * x, "Wsigma": W * sigma, "WZ": W * sigma * u, "Y": y}
        for name, values in maps.items():
            write_map(os.path.join(cfg.out, f"j{j}_{name}.map"), pix, values)
    print(f"wrote {4 * len(cfg.scales)} maps to {cfg.out}")


def cmd_estimate(cfg: Config, maps_dir: str | None) -> None:
    maps_dir = maps_dir if maps_dir is not None else cfg.out
    os.makedirs(cfg.out, exist_ok=True)
    rows = []
    for j in cfg.scales:
        path = os.path.join(maps_dir, f"j{j}_Y.map")
        if not os.path.exists(path):
            raise ConfigError(f"scale {j}: missing map file {path}")
        header, values, theta, phi, lam = read_map(path)
        order = grid_order(cfg.fam, j, cfg.order_cap)
        plan = prepare_scale(cfg.fam, j, cfg.scen, cfg.model, cfg.est, order=order)
        if not map_matches_grid(header, theta, phi, lam, plan.scale.pix):
            raise ConfigError(f"scale {j}: map {path} does not match the order-{order} grid")
        gamma = needlet_coeffs_of_sequence(values, plan.scale)
        est = two_pass_estimate(gamma, plan, cfg.est)
        rows.append((j, 0, est.c_hat, est.c_target, est.kept_count, est.mode))
    out_path = os.path.join(cfg.out, "results.csv")
    write_results_csv(out_path, rows)
    print(f"wrote {out_path}")


def cmd_mc(cfg: Config, threads: int) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    exp = Experiment(
        fam=cfg.fam, model=cfg.model, scen=cfg.scen, scales=cfg.scales,
        replicates=cfg.replicates, seed=cfg.seed, cfg=cfg.est,
        order_cap=cfg.order_cap,
    )
    rows, summary = run_experiment(exp, threads=threads)
    write_results_csv(os.path.join(cfg.out, "results.csv"), rows)
    write_summary_csv(os.path.join(cfg.out, "summary.csv"), summary)
    print(f"wrote results.csv and summary.csv to {cfg.out}")


if __name__ == "__main__":
    sys.exit(main())
