import os
import textwrap

import numpy as np
import pytest

from nse.config import load_config, parse_scales
from nse.errors import ConfigError
from nse.grid import build_pixelization, write_map

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, os.pardir, "configs")


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def test_parse_scales():
    assert parse_scales("3-6") == (3, 4, 5, 6)
    assert parse_scales("3,4,6") == (3, 4, 6)
    assert parse_scales("0-2, 5") == (0, 1, 2, 5)
    assert parse_scales("") == ()
    assert parse_scales("7") == (7,)


@pytest.mark.parametrize("bad", ["6-3", "x", "1-b", "1--3", "3,3", "3-5,4"])
def test_parse_scales_rejects(bad):
    with pytest.raises(ConfigError):
        parse_scales(bad)


def test_load_abc_ini():
    cfg = load_config(os.path.join(CONFIGS, "abc.ini"))
    assert cfg.fam.cutoff.B == 2.0 and cfg.fam.cutoff.M == 5
    assert cfg.fam.j_min == 0 and cfg.fam.j_max == 8 and cfg.fam.mode == "tight"
    assert cfg.model.alpha == 3.0 and cfg.model.g_kind == "constant"
    assert cfg.scen.beam == "sharp"
    assert [(lo, hi) for lo, hi, _, _ in cfg.scen.schedule] == [(0, 4), (5, 5), (6, 6)]
    mask_a, noise_a = cfg.scen.schedule[0][2], cfg.scen.schedule[0][3]
    assert mask_a.kind == "polar_cap" and mask_a.theta_cut == 0.5
    assert noise_a.kind == "colatitude_linear"
    assert (noise_a.sigma_min, noise_a.sigma_max) == (0.3, 0.6)
    mask_c = cfg.scen.schedule[2][2]
    assert mask_c.kind == "disc" and mask_c.radius == 0.7
    assert cfg.est.weight_mode == "mle"
    assert cfg.est.threshold_mode == "quantile" and cfg.est.q == 0.05
    assert cfg.scales == (3, 4, 5, 6)
    assert cfg.replicates == 500 and cfg.seed == 20260814
    assert cfg.out == os.path.join(os.path.abspath(CONFIGS), "out", "abc")


def test_load_fullsky_ini():
    cfg = load_config(os.path.join(CONFIGS, "fullsky.ini"))
    assert cfg.scen.schedule == ()
    assert cfg.est.weight_mode == "uniform"
    assert cfg.seed == 4


def test_defaults_on_minimal_config(tmp_path):
    cfg = load_config(write(tmp_path, "[model]\nalpha = 3\n"))
    assert cfg.fam.cutoff.B == 2.0 and cfg.fam.cutoff.M == 5
    assert cfg.fam.mode == "tight"
    assert cfg.scen.schedule == () and cfg.scen.beam == "sharp"
    assert cfg.est.tau0 == 0.1 and cfg.est.eps == 0.5
    assert cfg.est.weight_mode == "mle" and cfg.est.threshold_mode == "schedule"
    assert cfg.est.pilot == "two-pass"
    assert cfg.scales == (3, 4, 5, 6)
    assert cfg.replicates == 500 and cfg.seed == 0 and cfg.order_cap == 512
    assert cfg.out == os.path.join(str(tmp_path), "out")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, "[modle]\nalpha = 3\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write(tmp_path, "[window]\nb = 2\nbee = 3\n"))


def test_unreferenced_mask_section_rejected(tmp_path):
    text = """\
    [scenario]
    schedule = A:0-3
    [mask.A]
    kind = full_sky
    [mask.B]
    kind = full_sky
    """
    with pytest.raises(ConfigError, match="not referenced"):
        load_config(write(tmp_path, text))


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[window]\nb = banana\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[mc]\nreplicates = 2.5\n"))
    # invalid downstream parameter surfaces as a config error too
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[model]\nalpha = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[estimator]\npilot = soon\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[scenario]\nschedule = A0-4\n"))
    with pytest.raises(ConfigError, match="LO exceeds HI"):
        load_config(write(tmp_path, "[scenario]\nschedule = A:3-1\n"))
    with pytest.raises(ConfigError, match="two schedule ranges"):
        load_config(write(tmp_path, "[scenario]\nschedule = A:0-2, B:2-4\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[scenario]\nbeam_l = 5x32\n"))
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(write(tmp_path, "[scenario]\nbeam_l = 2:-3\n"))
    with pytest.raises(ConfigError, match="more than once"):
        load_config(write(tmp_path, "[scenario]\nbeam_l = 5:32, 5:16\n"))
    with pytest.raises(ConfigError, match="beam must be one of"):
        load_config(write(tmp_path, "[scenario]\nbeam = cosin\n"))
    with pytest.raises(ConfigError, match="needs a path"):
        load_config(write(tmp_path, "[scenario]\nschedule = A:0-1\n[mask.A]\nkind = file\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[mask.A]\nkind = moon\n[scenario]\nschedule = A:0-1\n"))


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.ini"))
    with pytest.raises(ConfigError, match="malformed"):
        load_config(write(tmp_path, "alpha = 3\n"))  # key before any section


def test_numeric_pilot_and_beam_l(tmp_path):
    text = """\
    [estimator]
    pilot = 0.25
    [scenario]
    beam = cosine
    beam_l = 5:32, 6:64
    """
    cfg = load_config(write(tmp_path, text))
    assert cfg.est.pilot == 0.25
    assert cfg.scen.beam == "cosine"
    assert cfg.scen.beam_l == ((5, 32), (6, 64))


def test_paths_resolve_relative_to_config_file(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    pix = build_pixelization(8)
    write_map(str(sub / "m.map"), pix, np.ones(pix.npoints))
    text = """\
    [scenario]
    schedule = A:0-3
    [mask.A]
    kind = file
    path = m.map
    [io]
    out = results
    """
    cfg = load_config(write(sub, text))
    mask = cfg.scen.schedule[0][2]
    assert mask.path == str(sub / "m.map")
    assert cfg.out == str(sub / "results")
    # loading is cwd-independent because paths are anchored at the file
    here = os.getcwd()
    os.chdir(str(tmp_path))
    try:
        again = load_config(str(sub / "exp.ini"))
    finally:
        os.chdir(here)
    assert again.scen.schedule[0][2].path == mask.path
