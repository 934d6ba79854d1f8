"""INI experiment configs.

One file fully specifies an experiment: window family, spectrum model,
observation scenario, estimator settings, and run parameters.  Unknown
sections or keys are errors, not warnings; silent typos in MC configs
cost hours.  `#` starts a comment line.

Sections and keys (all lowercase):

    [window]     b, m, j_min, j_max, mode
    [model]      alpha, g, g0, eps
    [scenario]   beam, schedule, beam_l
    [mask.X]     kind, then kind-specific keys
    [noise.X]    kind, then kind-specific keys
    [estimator]  alpha, tau0, eps, weights, threshold, q, pilot
    [mc]         scales, replicates, seed, order_cap
    [io]         out

The schedule maps named (mask, noise) pairs to inclusive, non-overlapping
scale ranges, e.g. `schedule = A:0-4, B:5-5, C:6-6`; scales not covered
see the full sky with no noise.  File paths inside mask/noise sections are
resolved relative to the config file.  A key left out takes the default of
the class it configures; `_DEFAULTS` holds the ones no class owns.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .errors import ConfigError, NseError
from .estimator import EstimatorConfig
from .model import FULL_SKY, NO_NOISE, MaskSpec, NoiseSpec, Scenario, SpectrumModel
from .needlet import ORDER_CAP
from .window import WindowFamily, build_windows

_MASK_KEYS = {
    "full_sky": set(),
    "polar_cap": {"theta_cut"},
    "disc": {"center_theta", "center_phi", "radius"},
    "file": {"path"},
}
_NOISE_KEYS = {
    "constant": {"sigma"},
    "colatitude_linear": {"sigma_min", "sigma_max"},
    "hemisphere_step": {"sigma_north", "sigma_south"},
    "file": {"path"},
}


@dataclass(frozen=True)
class Config:
    fam: WindowFamily
    model: SpectrumModel
    scen: Scenario
    est: EstimatorConfig
    scales: tuple
    replicates: int
    seed: int
    order_cap: int
    out: str


def _known(section: str, keys, allowed) -> None:
    extra = set(keys) - set(allowed)
    if extra:
        raise ConfigError(f"[{section}] has unknown keys: {sorted(extra)}")


def parse_scales(text: str) -> tuple:
    """"3-6" or "3,4,6" or a mix; empty text means no scales."""
    out = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError as exc:
                raise ConfigError(f"bad scale range {part!r}") from exc
            if hi < lo:
                raise ConfigError(f"bad scale range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as exc:
                raise ConfigError(f"bad scale {part!r}") from exc
    if len(set(out)) != len(out):
        raise ConfigError(f"a scale is listed more than once in {text!r}")
    return tuple(out)


def _parse_schedule(text: str):
    """"A:0-4, B:5-5" -> [(name, lo, hi), ...]; ranges may not overlap."""
    entries = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        name, sep, rng = part.partition(":")
        lo, sep2, hi = rng.partition("-")
        if not (sep and sep2 and name):
            raise ConfigError(f"bad schedule entry {part!r}, want NAME:LO-HI")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad schedule entry {part!r}") from exc
        if hi < lo:
            raise ConfigError(f"bad schedule entry {part!r}: LO exceeds HI")
        entries.append((name, lo, hi))
    spans = sorted((lo, hi) for _, lo, hi in entries)
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        if lo <= hi:
            raise ConfigError(f"scale {lo} lies in two schedule ranges")
    return entries


def _parse_beam_l(text: str) -> tuple:
    """"5:32, 6:64" -> ((5, 32), (6, 64))."""
    out = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        j, sep, L = part.partition(":")
        if not sep:
            raise ConfigError(f"bad beam_l entry {part!r}, want J:L")
        try:
            out.append((int(j), int(L)))
        except ValueError as exc:
            raise ConfigError(f"bad beam_l entry {part!r}") from exc
    return tuple(out)


def _parse_pilot(text: str):
    """"two-pass" or an external pilot value."""
    return text if text == "two-pass" else float(text)


# config key -> (the argument it sets, cast), per plain section
_KEYS = {
    "window": {"b": ("B", float), "m": ("M", int), "j_min": ("j_min", int),
               "j_max": ("j_max", int), "mode": ("mode", str)},
    "model": {"alpha": ("alpha", float), "g": ("g_kind", str), "g0": ("g0", float),
              "eps": ("eps", float)},
    "scenario": {"beam": ("beam", str), "schedule": ("schedule", _parse_schedule),
                 "beam_l": ("beam_l", _parse_beam_l)},
    "estimator": {"alpha": ("alpha", float), "tau0": ("tau0", float), "eps": ("eps", float),
                  "weights": ("weight_mode", str), "threshold": ("threshold_mode", str),
                  "q": ("q", float), "pilot": ("pilot", _parse_pilot)},
    "mc": {"scales": ("scales", parse_scales), "replicates": ("replicates", int),
           "seed": ("seed", int), "order_cap": ("order_cap", int)},
    "io": {"out": ("out", str)},
}

# the defaults no class owns; the estimator's alpha defaults to the model's
_DEFAULTS = {
    "window": {"B": 2.0, "M": 5, "j_min": 0, "j_max": 8},
    "model": {"alpha": 3.0},
    "mc": {"scales": (3, 4, 5, 6), "replicates": 500, "seed": 0, "order_cap": ORDER_CAP},
    "io": {"out": "out"},
}


def _options(parser, section: str) -> dict:
    """The keys set in [section] (none when it is absent), cast and keyed by
    the argument they set, over the section's defaults."""
    keys = _KEYS[section]
    out = dict(_DEFAULTS.get(section, {}))
    if not parser.has_section(section):
        return out
    _known(section, parser[section], keys)
    for key, raw in parser[section].items():
        name, cast = keys[key]
        try:
            out[name] = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return out


def _spec_from(parser, section: str, base_dir: str):
    """The MaskSpec or NoiseSpec of [mask.X] or [noise.X]; keys left out keep
    the class defaults."""
    what = section.partition(".")[0]
    cls, kinds = (MaskSpec, _MASK_KEYS) if what == "mask" else (NoiseSpec, _NOISE_KEYS)
    keys = dict(parser.items(section))
    kind = keys.pop("kind", None)
    if kind not in kinds:
        raise ConfigError(f"[{section}] kind must be one of {sorted(kinds)}")
    _known(section, keys, kinds[kind])
    if kind == "file":
        if "path" not in keys:
            raise ConfigError(f"[{section}] file {what} needs a path")
        return cls(kind=kind, path=os.path.join(base_dir, keys["path"]))
    try:
        values = {key: float(raw) for key, raw in keys.items()}
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc
    if kind == "disc":
        theta, phi = MaskSpec.center
        values["center"] = (values.pop("center_theta", theta), values.pop("center_phi", phi))
    return cls(kind=kind, **values)


def _campaigns(parser, entries, base_dir: str) -> tuple:
    """Schedule entries as (lo, hi, MaskSpec, NoiseSpec); a campaign without
    a mask or noise section sees the full sky or no noise."""
    out = []
    for name, lo, hi in entries:
        msec, nsec = f"mask.{name}", f"noise.{name}"
        mask = _spec_from(parser, msec, base_dir) if parser.has_section(msec) else FULL_SKY
        noise = _spec_from(parser, nsec, base_dir) if parser.has_section(nsec) else NO_NOISE
        out.append((lo, hi, mask, noise))
    return tuple(out)


def load_config(path: str) -> Config:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))

    for section in parser.sections():
        if section in _KEYS or section.startswith("mask.") or section.startswith("noise."):
            continue
        raise ConfigError(f"unknown section [{section}]")
    opts = {section: _options(parser, section) for section in _KEYS}

    scenario = opts["scenario"]
    entries = scenario.get("schedule", [])
    referenced = {f"{what}.{name}" for name, _, _ in entries for what in ("mask", "noise")}
    for section in parser.sections():
        if (section.startswith("mask.") or section.startswith("noise.")) and section not in referenced:
            raise ConfigError(f"[{section}] is not referenced by the schedule")
    if "schedule" in scenario:
        scenario["schedule"] = _campaigns(parser, entries, base_dir)

    try:
        fam = build_windows(**opts["window"])
        model = SpectrumModel(B=opts["window"]["B"], **opts["model"])
        scen = Scenario(**scenario)
        est = EstimatorConfig(**{"alpha": opts["model"]["alpha"], **opts["estimator"]})
    except NseError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    return Config(
        fam=fam, model=model, scen=scen, est=est,
        out=os.path.join(base_dir, opts["io"]["out"]), **opts["mc"],
    )
