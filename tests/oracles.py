"""Reference implementations that only the tests call.

Each one evaluates a quantity the package computes (or relies on) by a
direct, slower route: pointwise harmonics and Legendre kernels, geodesic
distances, analytic needlet covariances and their decay, quadratic-cost
noise levels and mask functionals, window lookups and cutoff derivatives.
"""

import math

import numpy as np

from nse.errors import InvalidParameter
from nse.harmonics import FOUR_PI, Alm, _check_residue, _legendre_blocks, band_kernel
from nse.needlet import NeedletScale, eval_needlet
from nse.window import CutoffFunction, WindowFamily


# ------------------------------------------------------------ directions

def _check_unit(xi, tol: float = 1e-9) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    nrm = np.sqrt(np.sum(xi * xi, axis=-1))
    if np.any(np.abs(nrm - 1.0) > tol):
        raise InvalidParameter("direction vector is not unit length")
    return xi


def geodesic_distance(xi1, xi2) -> float:
    """Great-circle distance between unit vectors (radians)."""
    a = _check_unit(xi1)
    b = _check_unit(xi2)
    dot = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
    out = np.arccos(dot)
    return out if out.ndim else float(out)


# ------------------------------------------------------------- harmonics

def eval_legendre_kernel(ell: int, t):
    """Projection kernel L_l(t) = (2l+1)/(4 pi) P_l(t)."""
    if ell < 0:
        raise InvalidParameter("degree must be nonnegative")
    t = np.asarray(t, dtype=float)
    p_prev = np.ones_like(t)
    if ell == 0:
        out = p_prev / FOUR_PI
        return out if out.ndim else float(out)
    p = t.copy()
    for k in range(2, ell + 1):
        p, p_prev = ((2 * k - 1) * t * p - (k - 1) * p_prev) / k, p
    out = (2 * ell + 1) / FOUR_PI * p
    return out if out.ndim else float(out)


def eval_ylm(ell: int, m: int, xi) -> complex:
    """Y_{l,m} at unit direction(s) xi; negative m via the reality symmetry."""
    if abs(m) > ell:
        raise InvalidParameter(f"|m| = {abs(m)} exceeds degree {ell}")
    xi = _check_unit(xi)
    x = np.clip(xi[..., 2], -1.0, 1.0)
    phi = np.arctan2(xi[..., 1], xi[..., 0])
    ma = abs(m)
    block = _legendre_blocks(np.atleast_1d(x), ell)[ma]
    p = block[..., ell - ma]
    val = p * np.exp(1j * ma * np.asarray(phi))
    if m < 0:
        val = (-1) ** ma * np.conj(val)
    return val if np.ndim(xi) > 1 else complex(val[0])


def inverse_at_points(alm: Alm, points) -> np.ndarray:
    """The real field of an Alm at a list of unit vectors."""
    points = _check_unit(np.atleast_2d(np.asarray(points, dtype=float)))
    x = np.clip(points[:, 2], -1.0, 1.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    blocks = _legendre_blocks(x, alm.lmax)
    g0 = blocks[0] @ alm.c[:, 0]
    f = g0.real
    resid = float(np.max(np.abs(g0.imag)))
    for m in range(1, alm.lmax + 1):
        gm = blocks[m] @ alm.c[m:, m]
        f = f + 2.0 * (gm * np.exp(1j * m * phi)).real
    _check_residue(resid, f)
    return f


# -------------------------------------------------- needlet covariances

def signal_covariance(scale: NeedletScale, C: np.ndarray, k: int, k2: int) -> float:
    """Cov[gamma_k, gamma_k'] of the field's needlet coefficients:
    sum_l b^2 C_l L_l(xi_k . xi_k')."""
    C = np.asarray(C, dtype=float)
    n = min(len(C), len(scale.window))
    coeffs = scale.window[:n] ** 2 * C[:n]
    dot = float(np.clip(scale.pix.xyz[k] @ scale.pix.xyz[k2], -1.0, 1.0))
    return float(band_kernel(coeffs, dot))


def noise_covariance(scale: NeedletScale, sigma_eff: np.ndarray, k: int, k2: int) -> float:
    """Cov[zeta_k, zeta_k'] of the needlet coefficients of pure noise with
    per-point levels sigma_eff:
    (lambda_k lambda_k')^(-1/2) sum_p lambda_p^2 sigma_p^2 psi_k(p) psi_k'(p)."""
    sigma_eff = np.asarray(sigma_eff, dtype=float)
    pix = scale.pix
    if sigma_eff.shape != (pix.npoints,):
        raise InvalidParameter("sigma_eff must be a per-point map on the scale grid")
    psi_k = eval_needlet(scale, k, pix.xyz)
    psi_k2 = psi_k if k2 == k else eval_needlet(scale, k2, pix.xyz)
    s = np.sum(pix.lam ** 2 * sigma_eff ** 2 * psi_k * psi_k2)
    return float(s / math.sqrt(pix.lam[k] * pix.lam[k2]))


def _envelope(values: np.ndarray, scaled_d: np.ndarray, edges: np.ndarray):
    mids, env = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (scaled_d >= lo) & (scaled_d < hi)
        if np.any(sel):
            mids.append(math.sqrt(lo * hi))
            env.append(np.max(np.abs(values[sel])))
    return np.asarray(mids), np.asarray(env)


def correlation_decay_report(
    scale: NeedletScale,
    C: np.ndarray,
    fit_range: tuple = (15.0, 35.0),
    n_bins: int = 10,
):
    """Tail decay of the needlet kernel and of coefficient correlations.

    Both |psi_{j,k}(xi)| (up to the common sqrt(lambda) factor) and the
    analytic correlation Cov[gamma_k, gamma_k'] / C^(j) are profiled against
    scaled separation B^j d.  The profile oscillates through zeros, so each
    log-spaced bin contributes its envelope (max |.|), and the report fits
    the log-log slope of the envelope against 1 + B^j d.

    fit_range selects the scaled window; it is clipped away from the
    antipode (B^j d <= 0.75 pi B^j), where the kernel magnitude turns back
    up and a power-law fit stops meaning anything.  Separations below the
    first few sidelobes decay slower than the asymptotic rate, so the
    default window starts well outside the central peak.

    Returns a dict with scaled_distance (bin mids), psi_envelope,
    cor_envelope, psi_slope, cor_slope, fit_range (after clipping).
    """
    C = np.asarray(C, dtype=float)
    n = min(len(C), len(scale.window))
    coeffs = scale.window[:n] ** 2 * C[:n]
    variance = float(np.sum(coeffs * (2 * np.arange(n) + 1)) / FOUR_PI)
    if variance <= 0:
        raise InvalidParameter("zero-variance band: correlation undefined")
    if not 0 < float(fit_range[0]) < float(fit_range[1]):
        raise InvalidParameter(f"fit range must be increasing and positive, got {fit_range}")
    Bj = scale.fam.B ** scale.j
    hi = min(float(fit_range[1]), 0.75 * math.pi * Bj)
    lo = min(float(fit_range[0]), 0.5 * hi)
    if not 0 < lo < hi:
        raise InvalidParameter(f"empty fit range {fit_range} at scale {scale.j}")
    npts = max(4000, 32 * scale.band_lmax)
    d = np.linspace(lo / Bj, hi / Bj, npts)
    psi = band_kernel(scale.window, np.cos(d))
    cor = band_kernel(coeffs, np.cos(d)) / variance
    edges = np.geomspace(lo, hi, n_bins + 1)
    mids, psi_env = _envelope(psi, Bj * d, edges)
    _, cor_env = _envelope(cor, Bj * d, edges)
    return {
        "scaled_distance": mids,
        "psi_envelope": psi_env,
        "cor_envelope": cor_env,
        "psi_slope": fit_loglog_slope(1.0 + mids, psi_env),
        "cor_slope": fit_loglog_slope(1.0 + mids, cor_env),
        "fit_range": (lo, hi),
    }


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (y floored at tiny)."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise InvalidParameter("slope fit needs at least two points")
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])


# ------------------------------------------------------------- estimator

def noise_levels_direct(scale: NeedletScale, W: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Quadratic-cost reference for estimator.noise_levels."""
    weights = (scale.pix.lam * W * sigma) ** 2
    return np.sqrt(_pairwise_sum(scale, weights))


def mask_functional_direct(scale: NeedletScale, W: np.ndarray) -> np.ndarray:
    """Quadratic-cost reference for estimator.mask_functional."""
    weights = scale.pix.lam * (1.0 - W) ** 2
    return np.sqrt(scale.pix.lam * _pairwise_sum(scale, weights))


def _pairwise_sum(scale: NeedletScale, point_weights: np.ndarray) -> np.ndarray:
    """sum_p point_weights_p K(xi_k . xi_p) for every k, K the squared
    band kernel, evaluated pairwise in row blocks."""
    xyz = scale.pix.xyz
    out = np.empty(scale.pix.npoints)
    block = max(1, 2**22 // max(1, scale.pix.npoints))
    for start in range(0, scale.pix.npoints, block):
        dots = np.clip(xyz[start : start + block] @ xyz.T, -1.0, 1.0)
        out[start : start + block] = band_kernel(scale.window, dots) ** 2 @ point_weights
    return out


# --------------------------------------------------------------- windows

def eval_window(fam: WindowFamily, j: int, ell) -> np.ndarray:
    """b_{j,l} for integer multipole(s) l; zero outside the support band."""
    table = fam.table(j)
    ell = np.asarray(ell)
    if not np.issubdtype(ell.dtype, np.integer):
        if not np.all(ell == np.round(ell)):
            raise InvalidParameter("multipole index must be integral")
        ell = ell.astype(np.int64)
    if np.any(ell < 0):
        raise InvalidParameter("multipole index must be nonnegative")
    out = np.where(ell < len(table), table[np.minimum(ell, len(table) - 1)], 0.0)
    return out if out.ndim else float(out)


def derivative_coeffs(cutoff: CutoffFunction, order: int = 1) -> np.ndarray:
    """Coefficients of the order-th derivative of the cutoff's transition
    polynomial with respect to its normalized variable u."""
    c = cutoff.coeffs
    for _ in range(order):
        c = c[1:] * np.arange(1, len(c))
    return c
