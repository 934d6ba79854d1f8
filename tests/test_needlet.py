"""Needlet kernels, the two coefficient routes, and the covariance oracles."""

import math

import numpy as np
import pytest

from nse.errors import InvalidParameter
from nse.harmonics import Alm, band_kernel
from nse.model import spectrum_values, synthesize_field
from nse.needlet import (
    eval_needlet,
    filtered_square_functional,
    make_scale,
    needlet_coeffs_of_sequence,
    needlet_norm_identity_check,
    needlet_transform,
    squared_kernel_coefficients,
)
from nse.window import build_windows
from nse.estimator import target_cj

from oracles import (
    correlation_decay_report,
    eval_ylm,
    fit_loglog_slope,
    noise_covariance,
    signal_covariance,
)

FOUR_PI = 4.0 * math.pi


def random_band_alm(lmax, rng):
    alm = Alm(lmax)
    alm.c[:, 0] = rng.normal(size=lmax + 1)
    for m in range(1, lmax + 1):
        alm.c[m:, m] = rng.normal(size=lmax + 1 - m) + 1j * rng.normal(size=lmax + 1 - m)
    alm.c[0, 0] = 0.0
    return alm


def test_make_scale_orders(fam, scale3):
    assert scale3.pix.order == 4 * fam.band_lmax(3)
    assert scale3.band == (5, 15)
    with pytest.raises(InvalidParameter):
        make_scale(fam, 3, order=16)  # cannot integrate squared band content


def test_empty_band_scale_is_null():
    f = build_windows(1.25, 5, 0, 5, mode="tight")
    s = make_scale(f, 1)  # support (1, 1.5625) holds no multipole
    assert s.band is None
    psi = eval_needlet(s, 0, s.pix.xyz)
    assert np.max(np.abs(psi)) == 0.0
    lhs, rhs = needlet_norm_identity_check(s, 0)
    assert lhs == 0.0 and rhs == 0.0
    assert np.max(np.abs(needlet_transform(Alm(4), s))) == 0.0


def test_eval_needlet_peak_value(scale3):
    k = 321
    ell = np.arange(len(scale3.window))
    want = math.sqrt(scale3.pix.lam[k]) * float(
        np.sum(scale3.window * (2 * ell + 1)) / FOUR_PI
    )
    got = float(eval_needlet(scale3, k, scale3.pix.xyz[k]))
    assert abs(got - want) < 1e-12 * abs(want)
    with pytest.raises(InvalidParameter):
        eval_needlet(scale3, scale3.pix.npoints, scale3.pix.xyz[0])


def test_needlet_transform_single_harmonic(scale3):
    ell0 = 8
    alm = Alm(ell0)
    alm.c[ell0, 0] = 1.0
    gamma = needlet_transform(alm, scale3)
    want = scale3.window[ell0] * eval_ylm(ell0, 0, scale3.pix.xyz).real
    assert np.max(np.abs(gamma - want)) < 1e-12


def test_needlet_transform_matches_inner_product(scale3):
    # gamma_k = <f, psi_k> / sqrt(lambda_k), inner product done by cubature
    rng = np.random.default_rng(31)
    alm = random_band_alm(scale3.band_lmax, rng)
    from nse.harmonics import inverse_sht

    f = inverse_sht(alm, scale3.pix)
    gamma = needlet_transform(alm, scale3)
    for k in (0, 500, 1000, 2000):
        psi = eval_needlet(scale3, k, scale3.pix.xyz)
        want = float(np.sum(scale3.pix.lam * f * psi)) / math.sqrt(scale3.pix.lam[k])
        assert abs(gamma[k] - want) < 1e-9 * max(1.0, abs(want))


def test_sequence_coeffs_match_transform(scale3, scale4):
    from nse.harmonics import inverse_sht

    rng = np.random.default_rng(6)
    for scale, reps in ((scale3, 5), (scale4, 2)):
        for _ in range(reps):
            alm = random_band_alm(scale.band_lmax, rng)
            f = inverse_sht(alm, scale.pix)
            a = needlet_coeffs_of_sequence(f, scale)
            b = needlet_transform(alm, scale)
            assert np.max(np.abs(a - b)) < 1e-10


def test_sequence_coeffs_trivial_and_linear(scale3):
    z = needlet_coeffs_of_sequence(np.zeros(scale3.pix.npoints), scale3)
    assert np.max(np.abs(z)) == 0.0
    rng = np.random.default_rng(14)
    u = rng.normal(size=scale3.pix.npoints)
    v = rng.normal(size=scale3.pix.npoints)
    lhs = needlet_coeffs_of_sequence(2.0 * u - 3.0 * v, scale3)
    rhs = 2.0 * needlet_coeffs_of_sequence(u, scale3) - 3.0 * needlet_coeffs_of_sequence(v, scale3)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_signal_covariance_diagonal_is_band_average(scale3, C_256):
    want = target_cj(scale3.fam, 3, C_256)
    for k in (0, 777, 2144):
        got = signal_covariance(scale3, C_256, k, k)
        assert abs(got - want) < 1e-12 * want
    assert signal_covariance(scale3, np.zeros(257), 10, 20) == 0.0


def test_noise_covariance_trivial(scale3):
    zero = np.zeros(scale3.pix.npoints)
    assert noise_covariance(scale3, zero, 3, 5) == 0.0


def test_norm_identity_across_points(scale3):
    rng = np.random.default_rng(2)
    for k in rng.integers(0, scale3.pix.npoints, size=12):
        lhs, rhs = needlet_norm_identity_check(scale3, int(k))
        assert abs(lhs - rhs) < 1e-9 * rhs
    # lambda-normalized value is the same constant at every point
    assert abs(rhs / scale3.pix.lam[int(k)] - scale3.norm_constant) < 1e-12 * scale3.norm_constant


def test_squared_kernel_coefficients_reproduce_square(scale3):
    kappa = squared_kernel_coefficients(scale3.window)
    assert len(kappa) == 2 * scale3.band[1] + 1
    rng = np.random.default_rng(21)
    t = rng.uniform(-1.0, 1.0, size=64)
    direct = band_kernel(scale3.window, t) ** 2
    viakappa = band_kernel(kappa, t)
    assert np.max(np.abs(direct - viakappa)) < 1e-10 * max(1.0, np.max(direct))


def test_filtered_square_functional_matches_direct(scale3):
    rng = np.random.default_rng(40)
    point_map = rng.uniform(0.0, 1.0, size=scale3.pix.npoints)
    got = filtered_square_functional(scale3, point_map)
    # direct quadratic-cost route
    dots = scale3.pix.xyz @ scale3.pix.xyz.T
    K = band_kernel(scale3.window, np.clip(dots, -1.0, 1.0)) ** 2
    want = K @ point_map
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


def test_decay_report_shape_and_slopes(fam, scale4, C_256):
    rep = correlation_decay_report(scale4, C_256)
    assert set(rep) >= {"scaled_distance", "psi_envelope", "cor_envelope",
                        "psi_slope", "cor_slope", "fit_range"}
    assert rep["psi_slope"] <= -(fam.M - 0.5)
    assert rep["cor_slope"] <= -(fam.M - 1)
    d = rep["scaled_distance"]
    assert np.all(np.diff(d) > 0)
    assert np.all(rep["cor_envelope"] <= 1.0 + 1e-12)


def test_decay_report_antipodal_correlation(fam, scale5, C_256):
    # correlation between needlet coefficients at antipodal points is tiny
    k = 0
    xyz = scale5.pix.xyz
    anti = np.argmin(xyz @ xyz[k])
    c_kk = signal_covariance(scale5, C_256, k, k)
    c_ka = signal_covariance(scale5, C_256, k, int(anti))
    assert abs(c_ka) / c_kk < 0.01
    # and the self correlation is exactly 1
    assert abs(signal_covariance(scale5, C_256, k, k) / c_kk - 1.0) < 1e-15


def test_decay_report_validation(scale4, C_256):
    with pytest.raises(InvalidParameter):
        correlation_decay_report(scale4, C_256, fit_range=(35.0, 15.0))
    with pytest.raises(InvalidParameter):
        correlation_decay_report(scale4, np.zeros(257))


def test_fit_loglog_slope_exact_power_law():
    x = np.linspace(2.0, 40.0, 25)
    y = 3.7 * x**-4.2
    assert abs(fit_loglog_slope(x, y) + 4.2) < 1e-12
    with pytest.raises(InvalidParameter):
        fit_loglog_slope(np.array([1.0]), np.array([1.0]))
