"""Cutoff construction and window tables."""

import numpy as np
import pytest
from scipy.special import betainc

from nse.errors import InvalidParameter
from nse.window import build_cutoff, build_windows, partition_sum, scale_band

from oracles import derivative_coeffs, eval_window


def test_transition_degree_matches_smoothness():
    assert build_cutoff(1.25, 9).degree == 19
    assert build_cutoff(2.0, 3).degree == 7


@pytest.mark.parametrize("B,M", [(2.0, 3), (2.0, 5), (1.25, 9), (3.0, 4)])
def test_cutoff_endpoint_values(B, M):
    a = build_cutoff(B, M)
    assert a(1.0 / B) == 1.0
    assert a(1.0) == 0.0
    assert a(0.0) == 1.0
    assert a(2.0) == 0.0
    # even in x
    x = np.linspace(0.0, 1.2, 7)
    assert np.array_equal(a(x), a(-x))


def test_transition_matches_regularized_beta_oracle():
    # independent closed form: descent p(u) = 1 - I_u(M+1, M+1)
    for M in (3, 5, 9):
        a = build_cutoff(2.0, M)
        u = np.linspace(0.0, 1.0, 41)
        x = 0.5 + 0.5 * u  # map normalized descent variable to [1/B, 1]
        ref = 1.0 - betainc(M + 1, M + 1, u)
        assert np.max(np.abs(a(x) - ref)) < 1e-13


def test_cutoff_monotone_and_bounded():
    a = build_cutoff(2.0, 5)
    x = np.linspace(0.0, 1.0, 2001)
    v = a(x)
    assert np.all(v <= 1.0) and np.all(v >= 0.0)
    assert np.all(np.diff(v) <= 1e-15)


def test_endpoint_derivatives_vanish():
    # derivatives 1..M of the transition vanish at both knots
    a = build_cutoff(2.0, 3)
    for order in range(1, a.M + 1):
        d = derivative_coeffs(a, order)
        at0 = d[0]
        at1 = np.polyval(d[::-1], 1.0)
        assert abs(at0) < 1e-12
        assert abs(at1) < 1e-12


def test_cutoff_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        build_cutoff(1.0, 5)
    with pytest.raises(InvalidParameter):
        build_cutoff(0.8, 5)
    with pytest.raises(InvalidParameter):
        build_cutoff(2.0, 2)


def test_plateau_value_tight(fam):
    # l = B^j sits where the inner cutoff is 1 and the outer is 0
    assert eval_window(fam, 3, 8) == 1.0
    assert eval_window(fam, 4, 16) == 1.0


def test_support_band(fam, fam_literal):
    for f in (fam, fam_literal):
        for j in (2, 3, 5):
            B = f.B
            lo = int(B ** (j - 1))
            hi = int(np.ceil(B ** (j + 1)))
            assert eval_window(f, j, lo) == 0.0
            for ell in range(hi, hi + 4):
                assert eval_window(f, j, ell) == 0.0


def test_scale_band_example(fam):
    assert scale_band(fam, 3) == (5, 15)
    lo, hi = scale_band(fam, 3)
    assert eval_window(fam, 3, lo - 1) == 0.0
    assert hi <= fam.band_lmax(3)


def test_scale_band_empty_for_narrow_ratio():
    f = build_windows(1.25, 5, 0, 20, mode="tight")
    # support (1, 1.5625) contains no integer
    assert scale_band(f, 1) is None
    # low scales of a narrow ratio hold very few multipoles; (B^6, B^8)
    # = (3.81, 5.96) carries exactly {4, 5}
    lo, hi = scale_band(f, 7)
    assert (lo, hi) == (4, 5)
    # band occupancy grows with j: by j = 10 the open interval
    # (7.45, 11.64) holds four multipoles
    lo, hi = scale_band(f, 10)
    assert hi - lo + 1 == 4


def test_partition_of_unity_tight(fam):
    s = partition_sum(fam, 128)
    assert np.max(np.abs(s[1:129] - 1.0)) < 1e-12


def test_partition_narrow_ratio_single_multipole():
    f = build_windows(1.25, 9, 0, 25, mode="tight")
    s = partition_sum(f, 40)
    assert abs(s[40] - 1.0) < 1e-12
    # cross-check by direct summation over contributing scales
    total = sum(float(eval_window(f, j, 40)) ** 2 for j in range(26))
    assert abs(total - 1.0) < 1e-12


def test_literal_mode_telescopes_in_b(fam_literal):
    out = np.zeros(129)
    for j in range(fam_literal.j_min, fam_literal.j_max + 1):
        t = fam_literal.table(j)
        n = min(len(t), 129)
        out[:n] += t[:n]
    assert np.max(np.abs(out[1:129] - 1.0)) < 1e-12


def test_tight_window_bounds(fam):
    for j in range(fam.j_min, fam.j_max + 1):
        t = fam.table(j)
        assert np.all(t >= 0.0) and np.all(t <= 1.0)


def test_eval_window_input_validation(fam):
    with pytest.raises(InvalidParameter):
        eval_window(fam, 3, 4.5)
    with pytest.raises(InvalidParameter):
        eval_window(fam, 3, -1)
    with pytest.raises(InvalidParameter):
        eval_window(fam, 99, 8)
    with pytest.raises(InvalidParameter):
        fam.table(-1)


def test_build_windows_validation():
    with pytest.raises(InvalidParameter):
        build_windows(2.0, 5, 3, 2)
    with pytest.raises(InvalidParameter):
        build_windows(2.0, 5, 0, 4, mode="loose")
