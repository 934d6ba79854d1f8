"""Pixelization construction, cubature exactness, distances, map files."""

import math

import numpy as np
import pytest

from nse.errors import InvalidParameter, ShapeMismatch
from nse.grid import build_pixelization, gauss_legendre_nodes, map_matches_grid, read_map, write_map

from conftest import unit
from oracles import eval_ylm, geodesic_distance

FOUR_PI = 4.0 * math.pi


def test_gauss_legendre_nodes_small_orders():
    # closed-form roots of P_2 and P_3
    x2, w2 = gauss_legendre_nodes(2)
    assert np.allclose(np.sort(x2), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(w2, [1.0, 1.0], atol=1e-15)
    x3, w3 = gauss_legendre_nodes(3)
    assert np.allclose(np.sort(x3), [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-15)
    assert np.allclose(np.sort(w3), [5 / 9, 5 / 9, 8 / 9], atol=1e-15)
    assert abs(np.sum(w3) - 2.0) < 1e-15


def test_order_zero_single_point():
    pix = build_pixelization(0)
    assert pix.npoints == 1
    assert abs(float(np.sum(pix.lam)) - FOUR_PI) < 1e-14


def test_point_count_and_weight_sum():
    for L in (4, 8, 16, 32, 64):
        pix = build_pixelization(L)
        assert pix.n_rings == L // 2 + 1
        assert pix.n_phi == L + 1
        assert pix.npoints == pix.n_rings * pix.n_phi
        assert np.all(pix.lam > 0.0)
        assert abs(float(np.sum(pix.lam)) - FOUR_PI) < 1e-12 * FOUR_PI
    assert build_pixelization(8).npoints == 45


def test_point_count_scaling():
    ratios = [build_pixelization(L).npoints / L**2 for L in (8, 16, 32, 64, 128)]
    assert max(ratios) < 1.0 and min(ratios) > 0.4


def test_points_distinct():
    pix = build_pixelization(8)
    d = pix.xyz @ pix.xyz.T
    np.fill_diagonal(d, -1.0)
    assert np.max(d) < 1.0 - 1e-12


def test_gram_orthonormality_order8():
    # all harmonic pairs whose product degree the grid integrates exactly
    pix = build_pixelization(8)
    basis = [(l, m) for l in range(9) for m in range(-l, l + 1)]
    Y = np.column_stack([eval_ylm(l, m, pix.xyz) for l, m in basis])
    G = (Y.conj() * pix.lam[:, None]).T @ Y
    worst = 0.0
    for a, (la, ma) in enumerate(basis):
        for b, (lb, mb) in enumerate(basis):
            if la + lb > 8:
                continue
            want = 1.0 if (la, ma) == (lb, mb) else 0.0
            worst = max(worst, abs(G[a, b] - want))
    assert worst < 1e-12


def test_cubature_integrates_random_band_limited_field():
    # integral of f = sqrt(4 pi) a_00, independent of all other coefficients
    rng = np.random.default_rng(7)
    for L in (8, 16):
        pix = build_pixelization(L)
        vals = np.zeros(pix.npoints)
        a00 = rng.normal()
        vals += a00 * eval_ylm(0, 0, pix.xyz).real
        for _ in range(20):
            l = int(rng.integers(1, L + 1))
            m = int(rng.integers(0, l + 1))
            coeff = rng.normal() + 1j * rng.normal()
            y = eval_ylm(l, m, pix.xyz)
            vals += (coeff * y).real * (1.0 if m == 0 else 2.0)
        got = float(np.sum(pix.lam * vals))
        want = a00 * math.sqrt(FOUR_PI)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_kernel_sums_bounded_across_orders():
    # sum_k (1 + L d(xi, xi_k))^-4 stays below an L-independent constant
    rng = np.random.default_rng(11)
    probes = [unit(t, p) for t, p in zip(np.arccos(rng.uniform(-1, 1, 20)),
                                         rng.uniform(0, 2 * math.pi, 20))]
    for L in (32, 64, 128):
        pix = build_pixelization(L)
        for xi in probes:
            d = np.arccos(np.clip(pix.xyz @ xi, -1.0, 1.0))
            assert float(np.sum((1.0 + L * d) ** -4)) < 1.0


def test_geodesic_distance_examples():
    north = np.array([0.0, 0.0, 1.0])
    south = np.array([0.0, 0.0, -1.0])
    equator = np.array([1.0, 0.0, 0.0])
    assert geodesic_distance(north, north) == 0.0
    assert abs(geodesic_distance(north, south) - math.pi) < 1e-15
    assert abs(geodesic_distance(north, equator) - math.pi / 2) < 1e-15


def test_geodesic_distance_rejects_non_unit():
    with pytest.raises(InvalidParameter):
        geodesic_distance(np.array([0.0, 0.0, 1.1]), np.array([0.0, 0.0, 1.0]))


def test_map_file_round_trip(tmp_path):
    pix = build_pixelization(8)
    rng = np.random.default_rng(3)
    values = rng.normal(size=pix.npoints)
    path = tmp_path / "field.map"
    write_map(path, pix, values)
    header, vals, theta, phi, lam = read_map(path)
    assert header["order"] == 8
    assert header["nrings"] == 5
    assert header["nphi"] == 9
    assert np.array_equal(vals, values)  # 17 significant digits round-trip doubles
    assert map_matches_grid(header, theta, phi, lam, pix)
    assert not map_matches_grid(header, theta, phi, lam, build_pixelization(10))


def test_write_map_shape_check(tmp_path):
    pix = build_pixelization(4)
    with pytest.raises(ShapeMismatch):
        write_map(tmp_path / "bad.map", pix, np.zeros(pix.npoints + 1))


def test_read_map_rejects_malformed_header(tmp_path):
    p = tmp_path / "broken.map"
    p.write_text("#order x\n#nrings 3\n#nphi 9\n0,0.1,0.2,0.3,0.4\n")
    with pytest.raises(InvalidParameter):
        read_map(p)


def test_map_file_round_trip_at_order_512(tmp_path):
    pix = build_pixelization(512)
    values = np.random.default_rng(8).normal(size=pix.npoints) * np.logspace(-150, 150, pix.npoints)
    path = tmp_path / "fine.map"
    write_map(path, pix, values)
    header, vals, theta, phi, lam = read_map(path)
    assert header == {"order": 512, "nrings": pix.n_rings, "nphi": pix.n_phi}
    assert np.array_equal(vals, values)
    assert np.array_equal(theta, pix.theta_k)
    assert np.array_equal(phi, pix.phi_k)
    assert np.array_equal(lam, pix.lam)


@pytest.mark.parametrize("row", [
    "1,0.1,0.2,0.3,x",  # unparsable number
    "1,0.1,0.2,0.3",  # missing field
    "1,0.1,0.2,0.3,0.4,0.5",  # extra field
    "1,0.1,0.2,0.3,nan",  # non-finite value
    "1,0.1,inf,0.3,0.4",  # non-finite geometry
])
def test_read_map_rejects_malformed_data_line(tmp_path, row):
    p = tmp_path / "broken.map"
    p.write_text(f"#order 0\n#nrings 1\n#nphi 2\n0,0.1,0.2,0.3,0.4\n{row}\n")
    with pytest.raises(InvalidParameter):
        read_map(p)
