import math
import os
import textwrap

import numpy as np
import pytest

from nse.cli import main
from nse.errors import ConventionViolation
from nse.grid import read_map, write_map
from nse.needlet import make_scale
from nse.window import build_windows

HERE = os.path.dirname(__file__)
ABC = os.path.join(HERE, os.pardir, "configs", "abc.ini")

SMALL = """\
[window]
b = 2
m = 5
j_min = 0
j_max = 4

[model]
alpha = 3

[mc]
scales = 3-4
replicates = 2
seed = 11
"""

OBSERVED = """\
[window]
b = 2
m = 5
j_min = 0
j_max = 5

[model]
alpha = 3

[scenario]
schedule = A:0-9

[mask.A]
kind = polar_cap
theta_cut = 0.5

[noise.A]
kind = colatitude_linear
sigma_min = 0.1
sigma_max = 0.3

[estimator]
threshold = quantile
q = 0.3

[mc]
scales = 3-4
replicates = 2
seed = 11
"""


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def csv_rows(path):
    with open(path) as f:
        lines = f.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_validate_abc_exits_clean(capsys):
    assert main(["validate", "--config", ABC]) == 0
    out = capsys.readouterr()
    assert "PASS" in out.out and "FAIL" not in out.out


def test_validate_flags_incomplete_family(tmp_path, capsys):
    # starting the family at j = 2 leaves low degrees uncovered
    cfg = write(tmp_path, SMALL.replace("j_min = 0", "j_min = 2"))
    assert main(["validate", "--config", cfg]) == 3
    assert "FAIL" in capsys.readouterr().err


def test_missing_config_is_an_input_error(tmp_path, capsys):
    rc = main(["windows", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_windows_tables(tmp_path):
    cfg = write(tmp_path, SMALL)
    out = str(tmp_path / "w")
    assert main(["windows", "--config", cfg, "--out", out]) == 0
    fam = build_windows(2.0, 5, 0, 4, "tight")

    header, rows = csv_rows(os.path.join(out, "windows.csv"))
    assert header == "j,l,b"
    got3 = np.array([float(b) for j, l, b in rows if j == "3"])
    assert np.array_equal(got3, fam.table(3))

    header, rows = csv_rows(os.path.join(out, "profiles.csv"))
    assert header == "j,theta,value"
    for j in (3, 4):
        b = fam.table(j)
        peak = sum(b[l] * (2 * l + 1) for l in range(len(b))) / (4 * math.pi)
        at0 = [float(v) for jj, t, v in rows if jj == str(j) and float(t) == 0.0]
        assert len(at0) == 1
        assert abs(at0[0] - peak) < 1e-12 * abs(peak)

    header, rows = csv_rows(os.path.join(out, "partition.csv"))
    assert header == "l,sum"
    part = {int(l): float(s) for l, s in rows}
    # complete through B^j_max, tapering off above
    for l in range(1, 17):
        assert abs(part[l] - 1.0) < 1e-12
    assert part[32] < 1e-12


def test_windows_with_no_scales(tmp_path):
    cfg = write(tmp_path, SMALL.replace("scales = 3-4", "scales ="))
    out = str(tmp_path / "w")
    assert main(["windows", "--config", cfg, "--out", out]) == 0
    for name in ("windows.csv", "profiles.csv"):
        _, rows = csv_rows(os.path.join(out, name))
        assert rows == []
    _, rows = csv_rows(os.path.join(out, "partition.csv"))
    assert len(rows) > 1


def test_synth_with_no_scales(tmp_path, capsys):
    cfg = write(tmp_path, SMALL.replace("scales = 3-4", "scales ="))
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "no scales" in capsys.readouterr().err


def test_synth_zero_noise_and_zero_mask(tmp_path):
    cfg = write(tmp_path, SMALL)
    out = str(tmp_path / "clean")
    assert main(["synth", "--config", cfg, "--out", out]) == 0
    for j in (3, 4):
        _, wz, _, _, _ = read_map(os.path.join(out, f"j{j}_WZ.map"))
        assert np.all(wz == 0.0)
        _, y, _, _, _ = read_map(os.path.join(out, f"j{j}_Y.map"))
        _, wx, _, _, _ = read_map(os.path.join(out, f"j{j}_WX.map"))
        assert np.array_equal(y, wx) and np.any(y != 0.0)

    # a cap of geodesic radius 4.0 swallows the whole sphere
    masked = OBSERVED.replace("theta_cut = 0.5", "theta_cut = 4.0")
    cfg2 = write(tmp_path, masked, name="masked.ini")
    out2 = str(tmp_path / "dark")
    assert main(["synth", "--config", cfg2, "--out", out2]) == 0
    _, y, _, _, _ = read_map(os.path.join(out2, "j3_Y.map"))
    assert np.all(y == 0.0)


def test_synth_deterministic_and_seed_override(tmp_path):
    cfg = write(tmp_path, OBSERVED)
    a, b, c = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert main(["synth", "--config", cfg, "--out", a]) == 0
    assert main(["synth", "--config", cfg, "--out", b]) == 0
    assert main(["synth", "--config", cfg, "--out", c, "--seed", "999"]) == 0
    for j in (3, 4):
        for kind in ("WX", "Wsigma", "WZ", "Y"):
            name = f"j{j}_{kind}.map"
            ba = open(os.path.join(a, name), "rb").read()
            bb = open(os.path.join(b, name), "rb").read()
            assert ba == bb
    assert open(os.path.join(a, "j3_Y.map"), "rb").read() != open(
        os.path.join(c, "j3_Y.map"), "rb").read()


def test_estimate_missing_map(tmp_path, capsys):
    cfg = write(tmp_path, OBSERVED)
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "e"), "--maps", str(empty)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scale 3" in err and "missing map" in err


def test_estimate_rejects_wrong_grid(tmp_path, capsys):
    cfg = write(tmp_path, OBSERVED)
    maps = str(tmp_path / "maps")
    assert main(["synth", "--config", cfg, "--out", maps]) == 0
    coarse = write(tmp_path, OBSERVED + "\norder_cap = 32\n", name="coarse.ini")
    rc = main(["estimate", "--config", coarse, "--out", str(tmp_path / "e"), "--maps", maps])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_estimate_reproduces_first_mc_replicate(tmp_path):
    cfg = write(tmp_path, OBSERVED)
    run = str(tmp_path / "run")
    assert main(["synth", "--config", cfg, "--out", run]) == 0
    assert main(["estimate", "--config", cfg, "--out", run]) == 0
    _, est_rows = csv_rows(os.path.join(run, "results.csv"))

    mc_out = str(tmp_path / "mc")
    assert main(["mc", "--config", cfg, "--out", mc_out]) == 0
    _, mc_rows = csv_rows(os.path.join(mc_out, "results.csv"))
    first = [r for r in mc_rows if r[1] == "0"]
    assert est_rows == first


def test_mc_exits_3_on_a_convention_violation(tmp_path, capsys, monkeypatch):
    def broken(samples, scale):
        raise ConventionViolation("malformed coefficient set")

    monkeypatch.setattr("nse.mc.needlet_coeffs_of_sequence", broken)
    cfg = write(tmp_path, SMALL)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "mc")]) == 3
    assert "numerical contract violated" in capsys.readouterr().err


def file_scenario_config(tmp_path, mask, noise):
    """SMALL at scale 3 only, with its mask and noise read from map files."""
    pix = make_scale(build_windows(2.0, 5, 0, 4, "tight"), 3).pix
    write_map(tmp_path / "mask.map", pix, np.full(pix.npoints, mask))
    write_map(tmp_path / "noise.map", pix, np.full(pix.npoints, noise))
    text = SMALL.replace("scales = 3-4", "scales = 3") + textwrap.dedent("""
        [scenario]
        schedule = F:3-3

        [mask.F]
        kind = file
        path = mask.map

        [noise.F]
        kind = file
        path = noise.map
        """)
    return write(tmp_path, text)


def test_mc_reads_file_maps(tmp_path):
    cfg = file_scenario_config(tmp_path, 1.0, 0.2)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "mc")]) == 0


@pytest.mark.parametrize("mask, noise, what", [
    (1.0, math.nan, "non-finite"),
    (1.5, 0.2, "outside [0, 1]"),
])
def test_mc_rejects_bad_file_maps(tmp_path, capsys, mask, noise, what):
    cfg = file_scenario_config(tmp_path, mask, noise)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "mc")]) == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("command, beam, what", [
    ("mc", "beam_l = 3:-3", "nonnegative"),
    ("mc", "beam_l = 3:8, 3:16", "more than once"),
    ("validate", "beam = cosin", "beam must be one of"),
])
def test_bad_beam_settings_exit_2_before_any_work(tmp_path, capsys, command, beam, what):
    cfg = write(tmp_path, SMALL + f"[scenario]\n{beam}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert what in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_estimate_rejects_non_finite_observation(tmp_path, capsys):
    cfg = write(tmp_path, OBSERVED)
    maps = str(tmp_path / "maps")
    assert main(["synth", "--config", cfg, "--out", maps]) == 0
    path = os.path.join(maps, "j3_Y.map")
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    lines[10] = lines[10].rsplit(",", 1)[0] + ",inf\n"
    with open(path, "w") as f:
        f.writelines(lines)
    rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "e"), "--maps", maps])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


def test_mc_thread_count_does_not_change_output(tmp_path):
    cfg = write(tmp_path, OBSERVED)
    one, four = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert main(["mc", "--config", cfg, "--out", one, "--threads", "1"]) == 0
    assert main(["mc", "--config", cfg, "--out", four, "--threads", "4"]) == 0
    for name in ("results.csv", "summary.csv"):
        ba = open(os.path.join(one, name), "rb").read()
        bb = open(os.path.join(four, name), "rb").read()
        assert ba == bb


def test_relative_out_override_lands_in_cwd(tmp_path, monkeypatch):
    cfg = write(tmp_path, SMALL)
    monkeypatch.chdir(tmp_path)
    assert main(["windows", "--config", cfg, "--out", "outrel"]) == 0
    assert os.path.exists(os.path.join(str(tmp_path), "outrel", "windows.csv"))
