"""Needlets on the sphere: frame functions and coefficients.

At scale j the needlet at grid point k is

    psi_{j,k}(xi) = sqrt(lambda_{j,k}) sum_l b_{j,l} L_l(xi . xi_{j,k}),

with L_l the degree-l projection kernel.  Coefficients of a field with
harmonic coefficients a_{l,m} are gamma_{j,k} = sum_{l,m} b_{j,l} a_{l,m}
Y_{l,m}(xi_{j,k}); for an arbitrary finite sequence of samples the same
filtering is applied to the discrete harmonic sums of the sequence (forward
transform on the scale grid, multiply by b, transform back), which is the
operation the estimator applies to observed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .grid import Pixelization, build_pixelization, gauss_legendre_nodes
from .harmonics import Alm, band_kernel, forward_sht, inverse_sht, FOUR_PI
from .window import WindowFamily, scale_band


@dataclass(frozen=True)
class NeedletScale:
    """A scale: its window row, analysis grid, and band bookkeeping."""

    j: int
    fam: WindowFamily
    pix: Pixelization
    window: np.ndarray  # b_{j,l}, l = 0..band_lmax
    band: tuple | None  # (l_min, l_max) of the nonzero window, None if empty

    @property
    def band_lmax(self) -> int:
        return len(self.window) - 1

    @property
    def norm_constant(self) -> float:
        """sum_l b^2 (2l+1)/(4 pi); the integral of psi_{j,k}^2 is lambda_k
        times this number."""
        ell = np.arange(len(self.window))
        return float(np.sum(self.window ** 2 * (2 * ell + 1)) / FOUR_PI)


# scale-grid orders are capped here; beyond it the default 4x band limit
# outgrows desk memory without improving the estimates
ORDER_CAP = 512


def grid_order(fam: WindowFamily, j: int, order_cap: int) -> int:
    """Grid order the runner uses for scale j: four times the band limit,
    capped at order_cap."""
    return min(4 * fam.band_lmax(j), order_cap)


def make_scale(fam: WindowFamily, j: int, order: int | None = None) -> NeedletScale:
    """Build scale j with its grid (default order 4 * band limit)."""
    table = fam.table(j)
    band = scale_band(fam, j)
    if order is None:
        order = 4 * fam.band_lmax(j)
    if band is not None and order < 2 * fam.band_lmax(j):
        raise InvalidParameter(
            f"grid order {order} cannot integrate squared scale-{j} content "
            f"(needs >= {2 * fam.band_lmax(j)})"
        )
    pix = build_pixelization(order)
    return NeedletScale(j=j, fam=fam, pix=pix, window=table, band=band)


def eval_needlet(scale: NeedletScale, k: int, xi) -> np.ndarray:
    """psi_{j,k} at unit direction(s) xi."""
    if not 0 <= k < scale.pix.npoints:
        raise InvalidParameter(f"needlet index {k} outside grid of {scale.pix.npoints} points")
    xi = np.asarray(xi, dtype=float)
    dot = np.clip(xi @ scale.pix.xyz[k], -1.0, 1.0)
    return math.sqrt(scale.pix.lam[k]) * band_kernel(scale.window, dot)


def needlet_transform(alm: Alm, scale: NeedletScale) -> np.ndarray:
    """Needlet coefficients of a band-limited field given its Alm."""
    if scale.band is None:
        return np.zeros(scale.pix.npoints)
    lmax = min(alm.lmax, scale.band_lmax)
    filtered = alm.truncated(lmax)
    filtered.c *= scale.window[: lmax + 1, None]
    return inverse_sht(filtered, scale.pix)


def needlet_coeffs_of_sequence(values: np.ndarray, scale: NeedletScale) -> np.ndarray:
    """Needlet coefficients of an arbitrary sample sequence on the scale grid.

    Computed as forward transform -> window filter -> inverse transform.  For
    sequences sampled from a field band-limited within the grid's exactness
    range this equals needlet_transform of the field's Alm; for masked or
    noisy data it is the defining operation.
    """
    if scale.band is None:
        return np.zeros(scale.pix.npoints)
    alm = forward_sht(values, scale.pix, scale.band[1])
    return needlet_transform(alm, scale)


def needlet_norm_identity_check(scale: NeedletScale, k: int):
    """Cubature of psi_k^2 against its closed band-sum form.

    Returns (lhs, rhs): lhs = sum_p lambda_p psi_k(xi_p)^2 and
    rhs = lambda_k sum_l b^2 (2l+1)/(4 pi).  The grid integrates squared
    scale content exactly, so the two agree to roundoff.
    """
    psi = eval_needlet(scale, k, scale.pix.xyz)
    lhs = float(np.sum(scale.pix.lam * psi ** 2))
    rhs = float(scale.pix.lam[k] * scale.norm_constant)
    return lhs, rhs


def squared_kernel_coefficients(window: np.ndarray) -> np.ndarray:
    """Legendre-kernel coefficients kappa of the squared needlet kernel.

    With F(t) = sum_l b_l L_l(t), the polynomial F^2 expands exactly as
    sum_L kappa_L L_L(t) for L = 0..2*l_top; kappa_L = 2 pi Int F^2 P_L dt,
    evaluated with a Gauss rule of the exact degree.  This is what lets
    point functionals of psi^2 be computed by two transforms instead of an
    O(N^2) sweep.
    """
    window = np.asarray(window, dtype=float)
    nz = np.nonzero(window)[0]
    if len(nz) == 0:
        return np.zeros(1)
    l_top = int(nz[-1])
    deg = 2 * l_top
    nodes = 2 * l_top + 1  # integrates degree 4*l_top + 1 exactly
    t, wq = gauss_legendre_nodes(nodes)
    # Legendre values P_L(t) for L = 0..deg
    P = np.empty((nodes, deg + 1))
    P[:, 0] = 1.0
    if deg >= 1:
        P[:, 1] = t
    for L in range(2, deg + 1):
        P[:, L] = ((2 * L - 1) * t * P[:, L - 1] - (L - 1) * P[:, L - 2]) / L
    ell = np.arange(l_top + 1)
    F = P[:, : l_top + 1] @ (window[: l_top + 1] * (2 * ell + 1) / FOUR_PI)
    return 2.0 * np.pi * (P.T @ (wq * F * F))


def filtered_square_functional(scale: NeedletScale, point_map: np.ndarray) -> np.ndarray:
    """h(k) = sum_p point_map_p K(xi_k . xi_p) with K the squared needlet
    kernel, for every k, via two transforms on the scale grid."""
    if scale.band is None:
        return np.zeros(scale.pix.npoints)
    kappa = squared_kernel_coefficients(scale.window)
    lmax = len(kappa) - 1
    # forward transform supplies one lambda factor; divide it back out
    alm = forward_sht(np.asarray(point_map, dtype=float) / scale.pix.lam, scale.pix, lmax)
    alm.c *= kappa[:, None]
    return inverse_sht(alm, scale.pix)
