"""Harmonic evaluation, Legendre kernels, and the transforms."""

import math

import numpy as np
import pytest

from nse.errors import ConventionViolation, InvalidParameter, ShapeMismatch
from nse.grid import build_pixelization
from nse.harmonics import Alm, band_kernel, forward_sht, inverse_sht

from conftest import unit
from oracles import eval_legendre_kernel, eval_ylm, inverse_at_points

FOUR_PI = 4.0 * math.pi

# reference values from a 40-digit evaluation of the orthonormal
# Condon-Shortley harmonics, rounded to double precision
YLM_ORACLE = [
    (50, 30, 1.0, 0.7, 0.2092179594154574211043 - 0.3195801249622467925028j),
    (36, 0, 2.2, 0.0, -0.1979752524811015320967 + 0.0j),
    (12, 12, 0.9, 3.3, -0.009796177529524028007898 + 0.02859133681025326312987j),
]


def test_eval_ylm_constant_and_axial():
    xi = unit(0.73, 2.1)
    assert abs(eval_ylm(0, 0, xi) - 1.0 / math.sqrt(FOUR_PI)) < 1e-15
    north = np.array([0.0, 0.0, 1.0])
    assert abs(eval_ylm(1, 0, north) - math.sqrt(3.0 / FOUR_PI)) < 1e-15


def test_eval_ylm_extended_precision_oracle():
    for l, m, th, ph, want in YLM_ORACLE:
        got = eval_ylm(l, m, unit(th, ph))
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_eval_ylm_negative_m_symmetry():
    xi = unit(1.1, 0.4)
    for l, m in [(5, 3), (9, 1), (20, 20)]:
        plus = eval_ylm(l, m, xi)
        minus = eval_ylm(l, -m, xi)
        assert abs(minus - (-1) ** m * np.conj(plus)) < 1e-14


def test_eval_ylm_rejects_m_out_of_range():
    with pytest.raises(InvalidParameter):
        eval_ylm(3, 4, np.array([0.0, 0.0, 1.0]))


def test_legendre_kernel_normalization_and_linear():
    for ell in (0, 1, 5):
        assert abs(eval_legendre_kernel(ell, 1.0) - (2 * ell + 1) / FOUR_PI) < 1e-14
    t = np.linspace(-1, 1, 9)
    assert np.max(np.abs(eval_legendre_kernel(1, t) - 3.0 * t / FOUR_PI)) < 1e-15


def test_legendre_kernel_addition_theorem():
    # L_l(xi . xi') = sum_m Y_lm(xi) conj(Y_lm(xi'))
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(8):
        a = unit(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        b = unit(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        pairs.append((a, b))
    # one pair engineered to hit the example dot product exactly
    t0 = 0.3
    pairs.append((np.array([0.0, 0.0, 1.0]), np.array([math.sqrt(1 - t0**2), 0.0, t0])))
    for ell in (1, 2, 10, 31, 64):
        subset = pairs if ell <= 10 else pairs[:3]
        for a, b in subset:
            s = sum(eval_ylm(ell, m, a) * np.conj(eval_ylm(ell, m, b))
                    for m in range(-ell, ell + 1))
            want = eval_legendre_kernel(ell, float(a @ b))
            assert abs(s - want) < 1e-11


def test_band_kernel_matches_termwise_sum():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=18)
    t = rng.uniform(-1.0, 1.0, size=40)
    want = sum(c * eval_legendre_kernel(l, t) for l, c in enumerate(coeffs))
    got = band_kernel(coeffs, t)
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_constant_field():
    pix = build_pixelization(8)
    alm = forward_sht(np.full(pix.npoints, 2.5), pix, 4)
    assert abs(alm.c[0, 0] - 2.5 * math.sqrt(FOUR_PI)) < 1e-12
    rest = alm.c.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_forward_recovers_single_real_harmonic():
    # samples of Re Y_32 carry exactly the (3,2) and implied (3,-2) content
    pix = build_pixelization(8)
    samples = eval_ylm(3, 2, pix.xyz).real
    alm = forward_sht(samples, pix, 6)
    want = np.zeros_like(alm.c)
    want[3, 2] = 0.5  # Re Y = (Y + conj Y)/2 splits across +-m
    resid = alm.c - want
    assert np.max(np.abs(resid)) < 1e-11


def test_round_trip_band8():
    rng = np.random.default_rng(9)
    pix = build_pixelization(16)
    alm = Alm(8)
    alm.c[:, 0] = rng.normal(size=9)
    for m in range(1, 9):
        alm.c[m:, m] = rng.normal(size=9 - m) + 1j * rng.normal(size=9 - m)
    samples = inverse_sht(alm, pix)
    back = forward_sht(samples, pix, 8)
    again = inverse_sht(back, pix)
    rel = np.max(np.abs(again - samples)) / np.max(np.abs(samples))
    assert rel < 1e-10
    assert np.max(np.abs(back.c - alm.c)) < 1e-11


def test_inverse_trivial_fields():
    pix = build_pixelization(4)
    assert np.array_equal(inverse_sht(Alm(3), pix), np.zeros(pix.npoints))
    alm = Alm(2)
    alm.c[0, 0] = math.sqrt(FOUR_PI)
    assert np.max(np.abs(inverse_sht(alm, pix) - 1.0)) < 1e-14


def test_inverse_at_point_list():
    alm = Alm(6)
    alm.c[4, 2] = 1.0 - 0.3j
    pts = np.stack([unit(0.3, 1.0), unit(2.0, 4.4)])
    got = inverse_at_points(alm, pts)
    want = [2.0 * (alm.c[4, 2] * eval_ylm(4, 2, p)).real for p in pts]
    assert np.allclose(got, want, atol=1e-13)


def test_parseval_identity():
    rng = np.random.default_rng(17)
    pix = build_pixelization(32)
    alm = Alm(16)
    alm.c[:, 0] = rng.normal(size=17)
    for m in range(1, 17):
        alm.c[m:, m] = rng.normal(size=17 - m) + 1j * rng.normal(size=17 - m)
    f = inverse_sht(alm, pix)
    lhs = float(np.sum(pix.lam * f * f))
    rhs = float(np.sum(alm.c[:, 0].real ** 2) + 2.0 * np.sum(np.abs(alm.c[:, 1:]) ** 2))
    assert abs(lhs - rhs) < 1e-10 * rhs


def test_inverse_rejects_malformed_alm():
    pix = build_pixelization(4)
    alm = Alm(2)
    alm.c[1, 0] = 1j  # an imaginary m = 0 entry cannot come from a real field
    with pytest.raises(ConventionViolation):
        inverse_sht(alm, pix)


def test_forward_shape_and_band_checks():
    pix = build_pixelization(8)
    with pytest.raises(ShapeMismatch):
        forward_sht(np.zeros(pix.npoints + 2), pix, 4)
    with pytest.raises(InvalidParameter):
        forward_sht(np.zeros(pix.npoints), pix, 9)


def test_alm_power_and_truncate():
    alm = Alm(5)
    alm.c[3, 0] = 2.0
    alm.c[3, 2] = 1.0 + 1.0j
    short = alm.truncated(3)
    assert short.lmax == 3
    assert short.c[3, 2] == alm.c[3, 2]
    ext = alm.truncated(8)
    assert ext.lmax == 8
    assert np.max(np.abs(ext.c[6:, :])) == 0.0
