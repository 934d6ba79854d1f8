"""Gauss-Legendre product pixelizations of the sphere.

A pixelization of order L places floor(L/2)+1 Gauss-Legendre nodes in
cos(colatitude) and L+1 equispaced longitudes per ring.  Point weights are
lambda_k = (2 pi / n_phi) * w_ring, which makes the point sum reproduce the
integral of every spherical polynomial of degree <= L exactly (the Gauss rule
handles the colatitude factor, the equispaced sum handles the longitude
factor).  Points are stored ring-major, colatitude ascending, longitude
ascending from 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, ShapeMismatch


def _legendre_and_derivative(n: int, x: np.ndarray):
    # P_n and P_n' by the three-term recursion; x strictly inside (-1, 1).
    p_prev = np.ones_like(x)
    p = x.copy()
    if n == 0:
        return p_prev, np.zeros_like(x)
    for ell in range(2, n + 1):
        p, p_prev = ((2 * ell - 1) * x * p - (ell - 1) * p_prev) / ell, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_nodes(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Starts from the standard eigenvalue-based nodes and polishes each root by
    Newton iteration (tolerance 1e-15, at most 100 sweeps), then recomputes
    the weights as 2 / ((1 - x^2) P_n'(x)^2).
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


class Pixelization:
    """Gauss-Legendre product grid; see the module docstring for layout."""

    def __init__(self, order: int, theta: np.ndarray, ring_weight: np.ndarray, n_phi: int):
        self.order = int(order)
        self.theta = theta  # (n_rings,), ascending colatitude
        self.ring_weight = ring_weight  # (n_rings,), per-point weight on the ring
        self.n_phi = int(n_phi)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.n_rings = len(theta)
        self.npoints = self.n_rings * self.n_phi
        self.lam = np.repeat(ring_weight, n_phi)  # (npoints,)
        st, ct = np.sin(theta), np.cos(theta)
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        xyz = np.empty((self.npoints, 3))
        xyz[:, 0] = np.outer(st, cp).ravel()
        xyz[:, 1] = np.outer(st, sp).ravel()
        xyz[:, 2] = np.repeat(ct, n_phi)
        self.xyz = xyz
        self.theta_k = np.repeat(theta, n_phi)
        self.phi_k = np.tile(self.phi, self.n_rings)
        self._legendre_cache = {}


def build_pixelization(order: int) -> Pixelization:
    """Build the Gauss-Legendre product pixelization of the given order."""
    if order < 0:
        raise InvalidParameter(f"pixelization order must be >= 0, got {order}")
    n_rings = order // 2 + 1
    n_phi = order + 1
    t, w = gauss_legendre_nodes(n_rings)
    # ascending colatitude = descending cos(theta)
    idx = np.argsort(-t)
    theta = np.arccos(np.clip(t[idx], -1.0, 1.0))
    ring_weight = 2.0 * np.pi * w[idx] / n_phi
    return Pixelization(order=order, theta=theta, ring_weight=ring_weight, n_phi=n_phi)


def write_map(path, pix: Pixelization, values: np.ndarray) -> None:
    """Write a per-point map in the delimited format with a grid header."""
    values = np.asarray(values, dtype=float)
    if values.shape != (pix.npoints,):
        raise ShapeMismatch(f"map has {values.shape} values, grid has {pix.npoints} points")
    with open(path, "w") as fh:
        fh.write(f"#order {pix.order}\n")
        fh.write(f"#nrings {pix.n_rings}\n")
        fh.write(f"#nphi {pix.n_phi}\n")
        for k in range(pix.npoints):
            fh.write(
                "%d,%.17g,%.17g,%.17g,%.17g\n"
                % (k, pix.theta_k[k], pix.phi_k[k], pix.lam[k], values[k])
            )


def read_map(path):
    """Read a map file; returns (header dict, values array, theta, phi, lam).

    The leading `#key value` lines are the header; the rest is parsed in one
    call and must hold finite numbers only.
    """
    header = {}
    with open(path) as fh:
        while True:
            body_start = fh.tell()
            line = fh.readline().strip()
            if not line.startswith("#"):
                break
            key, _, val = line[1:].partition(" ")
            try:
                header[key] = int(val)
            except ValueError as exc:
                raise InvalidParameter(f"map file {path}: bad header line {line!r}") from exc
        fh.seek(body_start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise InvalidParameter(f"map file {path}: bad data line: {exc}") from exc
    for key in ("order", "nrings", "nphi"):
        if key not in header:
            raise ShapeMismatch(f"map file {path} missing header line #{key}")
    expected = header["nrings"] * header["nphi"]
    if len(data) != expected:
        raise ShapeMismatch(
            f"map file {path} has {len(data)} rows, header promises {expected}"
        )
    if data.shape[1] != 5:
        raise InvalidParameter(f"map file {path}: rows have {data.shape[1]} fields, need 5")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise InvalidParameter(f"map file {path}: non-finite value in row {np.argmin(finite)}")
    if np.any(data[:, 0].astype(int) != np.arange(expected)):
        raise ShapeMismatch(f"map file {path} rows out of order")
    theta, phi, lam, values = (data[:, c].copy() for c in range(1, 5))
    return header, values, theta, phi, lam


def map_matches_grid(header, theta, phi, lam, pix: Pixelization, tol: float = 1e-12) -> bool:
    """True when a map file's geometry columns agree with a pixelization."""
    return (
        header["order"] == pix.order
        and header["nrings"] == pix.n_rings
        and header["nphi"] == pix.n_phi
        and np.allclose(theta, pix.theta_k, atol=tol, rtol=0)
        and np.allclose(phi, pix.phi_k, atol=tol, rtol=0)
        and np.allclose(lam, pix.lam, atol=tol, rtol=0)
    )
