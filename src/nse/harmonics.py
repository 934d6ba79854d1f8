"""Spherical harmonics and transforms on Gauss-Legendre product grids.

Conventions: orthonormal complex harmonics with the Condon-Shortley phase,

    Y_{l,m}(theta, phi) = Ptilde_{l,m}(cos theta) e^{i m phi},

where Ptilde is the fully normalized associated Legendre function (the
normalization and phase live inside Ptilde).  Real fields store m >= 0 only;
negative orders are implied by a_{l,-m} = (-1)^m conj(a_{l,m}).

The transforms are organized ring by ring: a discrete Fourier sum in
longitude (computed with an FFT, which is exact for these sums up to
roundoff) followed by a weighted Legendre contraction across rings.
Ptilde is generated by the standard stable three-term recursion on the
normalized functions; no raw factorials appear anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import ConventionViolation, InvalidParameter, ShapeMismatch
from .grid import Pixelization

FOUR_PI = 4.0 * np.pi


def _legendre_blocks(x: np.ndarray, lmax: int):
    """Normalized associated Legendre values at abscissas x = cos(theta).

    Returns blocks[m] of shape (len(x), lmax+1-m) holding Ptilde_{l,m}(x)
    for l = m..lmax.  Diagonal seed and the two upward recursions:

        Ptilde_{0,0}   = 1/sqrt(4 pi)
        Ptilde_{m+1,m+1} = -sqrt((2m+3)/(2m+2)) sin(theta) Ptilde_{m,m}
        Ptilde_{m+1,m} = sqrt(2m+3) x Ptilde_{m,m}
        Ptilde_{l,m}   = a_l (x Ptilde_{l-1,m} - b_l Ptilde_{l-2,m})

    with a_l = sqrt((4l^2-1)/(l^2-m^2)), b_l = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)).
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    pmm = np.full(x.shape, 1.0 / np.sqrt(FOUR_PI))
    blocks = []
    for m in range(lmax + 1):
        block = np.empty(x.shape + (lmax + 1 - m,))
        block[..., 0] = pmm
        if m < lmax:
            p_prev = pmm
            p = np.sqrt(2 * m + 3.0) * x * pmm
            block[..., 1] = p
            for ell in range(m + 2, lmax + 1):
                a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
                b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
                p, p_prev = a * (x * p - b * p_prev), p
                block[..., ell - m] = p
        blocks.append(block)
        pmm = -np.sqrt((2 * m + 3.0) / (2 * m + 2.0)) * s * pmm
    return blocks


def _grid_blocks(pix: Pixelization, lmax: int):
    """Per-ring Legendre blocks for a grid, cached at the largest order seen."""
    cached = pix._legendre_cache.get("blocks")
    if cached is None or cached[0] < lmax:
        x = np.cos(pix.theta)
        pix._legendre_cache["blocks"] = (lmax, _legendre_blocks(x, lmax))
        cached = pix._legendre_cache["blocks"]
    top, blocks = cached
    if top == lmax:
        return blocks
    return [blocks[m][:, : lmax + 1 - m] for m in range(lmax + 1)]


class Alm:
    """Harmonic coefficients of a real field, stored for m >= 0.

    c[l, m] holds a_{l,m}; entries with m > l stay zero.  a_{l,0} must be
    real for the coefficients to describe a real field.
    """

    __slots__ = ("lmax", "c")

    def __init__(self, lmax: int, c: np.ndarray | None = None):
        if lmax < 0:
            raise InvalidParameter(f"lmax must be >= 0, got {lmax}")
        self.lmax = int(lmax)
        if c is None:
            c = np.zeros((lmax + 1, lmax + 1), dtype=complex)
        else:
            c = np.asarray(c, dtype=complex)
            if c.shape != (lmax + 1, lmax + 1):
                raise ShapeMismatch(f"coefficient array shape {c.shape} != {(lmax + 1, lmax + 1)}")
        self.c = c

    def truncated(self, lmax: int) -> "Alm":
        """Coefficients restricted to degrees <= lmax (zero-padded if larger)."""
        out = Alm(lmax)
        n = min(lmax, self.lmax) + 1
        out.c[:n, :n] = self.c[:n, :n]
        return out


def band_kernel(coeffs, t):
    """sum_l coeffs[l] L_l(t) with coeffs indexed from l = 0."""
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    acc = np.full_like(t, coeffs[0] / FOUR_PI)
    if len(coeffs) == 1:
        return acc if acc.ndim else float(acc)
    p_prev = np.ones_like(t)
    p = t.copy()
    acc = acc + coeffs[1] * 3.0 / FOUR_PI * p
    for ell in range(2, len(coeffs)):
        p, p_prev = ((2 * ell - 1) * t * p - (ell - 1) * p_prev) / ell, p
        if coeffs[ell] != 0.0:
            acc = acc + coeffs[ell] * (2 * ell + 1) / FOUR_PI * p
    return acc if acc.ndim else float(acc)


def forward_sht(samples, pix: Pixelization, lmax: int) -> Alm:
    """a_{l,m} = sum_k lambda_k f(xi_k) conj(Y_{l,m}(xi_k)) for l <= lmax."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (pix.npoints,):
        raise ShapeMismatch(f"sample array shape {samples.shape} does not match {pix.npoints} grid points")
    if lmax > pix.order:
        raise InvalidParameter(f"lmax {lmax} exceeds grid order {pix.order}")
    if lmax >= pix.n_phi:
        raise InvalidParameter(f"lmax {lmax} not resolved by {pix.n_phi} longitudes")
    rows = samples.reshape(pix.n_rings, pix.n_phi)
    F = np.fft.fft(rows, axis=1)[:, : lmax + 1]
    F *= pix.ring_weight[:, None]
    blocks = _grid_blocks(pix, lmax)
    alm = Alm(lmax)
    for m in range(lmax + 1):
        alm.c[m:, m] = blocks[m].T @ F[:, m]
    return alm


def inverse_sht(alm: Alm, pix: Pixelization) -> np.ndarray:
    """Evaluate the real field of an Alm on a grid."""
    lmax = alm.lmax
    if lmax >= pix.n_phi:
        raise InvalidParameter(f"lmax {lmax} not representable on {pix.n_phi} longitudes")
    blocks = _grid_blocks(pix, lmax)
    G = np.empty((pix.n_rings, lmax + 1), dtype=complex)
    for m in range(lmax + 1):
        G[:, m] = blocks[m] @ alm.c[m:, m]
    H = np.zeros((pix.n_rings, pix.n_phi), dtype=complex)
    H[:, 0] = G[:, 0].real
    H[:, 1 : lmax + 1] = 2.0 * G[:, 1:]
    f = (np.fft.ifft(H, axis=1) * pix.n_phi).real
    _check_residue(np.max(np.abs(G[:, 0].imag)), f)
    return f.ravel()


def _check_residue(resid: float, f: np.ndarray) -> None:
    # the only imaginary content a real-field Alm can leak is the m = 0 channel
    scale = max(np.max(np.abs(f)), resid) if f.size else resid
    if resid > 1e-10 * scale:
        raise ConventionViolation(
            f"imaginary residue {resid:.3e} exceeds 1e-10 of field scale {scale:.3e}; "
            "a_{l,0} coefficients are not real"
        )
