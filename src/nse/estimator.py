"""Spectral estimation from needlet coefficients.

The estimate at scale j is a weighted, noise-debiased average of squared
coefficients over the kept set,

    C_hat^(j) = sum_k w_k (gamma_{j,k}^2 - n_{j,k}^2),

where n_{j,k} is the exact noise standard deviation of gamma_{j,k} and the
kept set excludes points whose needlet overlaps the masked region too much.
Both n and the mask functional are computed by needlet-filtered transforms
of point maps (no pairwise psi tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMasked, InvalidParameter, ShapeMismatch
from .harmonics import FOUR_PI
from .model import Scenario, SpectrumModel, spectrum_values
from .needlet import NeedletScale, filtered_square_functional, make_scale
from .window import WindowFamily

WEIGHT_MODES = ("uniform", "mle")
THRESHOLD_MODES = ("schedule", "quantile")

# Negative or vanishing pilots are floored at this fraction of the scale's
# norm constant so mle weights stay defined.
PILOT_FLOOR_FRACTION = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Threshold schedule, weighting mode, and pilot rule.

    The default threshold is t_j = tau0 * B^(-(alpha+eps) j), which shrinks
    strictly faster than B^(-alpha j) as required for bias control.  At
    coarse scales this can empty the kept set, so a quantile mode (keep the
    fraction q of points with the smallest mask functional) is offered as a
    clearly off-schedule alternative.

    pilot is either "two-pass" (uniform pre-estimate feeds the mle weights)
    or an externally supplied positive value.
    """

    alpha: float
    tau0: float = 0.1
    eps: float = 0.5
    weight_mode: str = "mle"
    pilot: float | str = "two-pass"
    threshold_mode: str = "schedule"
    q: float = 0.5

    def __post_init__(self):
        if not (self.tau0 > 0):
            raise InvalidParameter(f"tau0 must be positive, got {self.tau0}")
        if not (self.eps > 0):
            raise InvalidParameter(f"eps must be positive, got {self.eps}")
        if not math.isfinite(self.alpha):
            raise InvalidParameter("alpha must be finite")
        if self.weight_mode not in WEIGHT_MODES:
            raise InvalidParameter(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise InvalidParameter(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if not (0 < self.q <= 1):
            raise InvalidParameter(f"q must lie in (0, 1], got {self.q}")
        if self.pilot != "two-pass":
            p = float(self.pilot)
            if not (p > 0):
                raise InvalidParameter("external pilot must be positive")

    def threshold(self, B: float, j: int) -> float:
        return self.tau0 * B ** (-(self.alpha + self.eps) * j)


@dataclass(frozen=True)
class ScaleEstimate:
    """One scale's estimate plus the diagnostics the runner records."""

    j: int
    c_hat: float
    c_target: float
    kept_count: int
    mode: str
    threshold: float
    pilot: float


def target_cj(fam: WindowFamily, j: int, C: np.ndarray) -> float:
    """Band-smoothed spectrum (4 pi)^-1 sum_l (2l+1) b_{j,l}^2 C_l."""
    b = fam.table(j)
    C = np.asarray(C, dtype=float)
    if len(C) < len(b):
        raise ShapeMismatch(
            f"spectrum covers l < {len(C)}, scale {j} needs l <= {len(b) - 1}"
        )
    ell = np.arange(len(b))
    return float(np.sum((2 * ell + 1) * b * b * C[: len(b)]) / FOUR_PI)


def noise_levels(scale: NeedletScale, W: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Noise sd of each coefficient, n_k = (sum_p lam_p^2 (W sigma)_p^2
    K(xi_k . xi_p))^(1/2), via two transforms on the scale grid."""
    point_map = (scale.pix.lam * W * sigma) ** 2
    if not point_map.any():
        return np.zeros(scale.pix.npoints)
    h = filtered_square_functional(scale, point_map)
    # roundoff can leave tiny negatives where the map vanishes
    return np.sqrt(np.clip(h, 0.0, None))


def mask_functional(scale: NeedletScale, W: np.ndarray) -> np.ndarray:
    """Leakage level m_k = (sum_p lam_p (1-W_p)^2 psi_k(xi_p)^2)^(1/2).

    Zero where the needlet never touches the masked region; comparable to
    the scale's norm constant where it sits inside it.
    """
    point_map = scale.pix.lam * (1.0 - W) ** 2
    if not point_map.any():
        return np.zeros(scale.pix.npoints)
    h = filtered_square_functional(scale, point_map)
    return np.sqrt(np.clip(scale.pix.lam * h, 0.0, None))


def kept_set(functional: np.ndarray, t_j: float) -> np.ndarray:
    """Indices whose mask functional does not exceed t_j."""
    if t_j < 0:
        raise InvalidParameter(f"threshold must be nonnegative, got {t_j}")
    return np.nonzero(functional <= t_j)[0]


def quantile_threshold(functional: np.ndarray, q: float) -> float:
    """Threshold keeping (at least) the fraction q with smallest functional."""
    if not 0.0 < q <= 1.0:
        raise InvalidParameter(f"kept fraction must lie in (0, 1], got {q}")
    n_keep = max(1, math.ceil(q * len(functional)))
    return float(np.sort(functional)[n_keep - 1])


def weights(mode: str, kept: np.ndarray, n: np.ndarray, pilot: float | None = None) -> np.ndarray:
    """Weight vector over all points: zero off the kept set, summing to 1.

    mle weights are proportional to (pilot + n_k^2)^-2, the inverse
    variance of a squared Gaussian with the pilot standing in for the
    signal part.
    """
    kept = np.asarray(kept, dtype=np.intp)
    if kept.size == 0:
        raise AllMasked("kept set is empty: no coefficient survives the threshold")
    w = np.zeros(len(n))
    if mode == "uniform":
        w[kept] = 1.0 / kept.size
    elif mode == "mle":
        if pilot is None or not (pilot > 0):
            raise InvalidParameter("mle weights need a positive pilot value")
        raw = (pilot + n[kept] ** 2) ** -2.0
        w[kept] = raw / raw.sum()
    else:
        raise InvalidParameter(f"weight mode must be one of {WEIGHT_MODES}")
    return w


def estimate(gamma: np.ndarray, n: np.ndarray, w: np.ndarray) -> float:
    """sum_k w_k (gamma_k^2 - n_k^2); may legitimately be negative."""
    gamma = np.asarray(gamma, dtype=float)
    if not (len(gamma) == len(n) == len(w)):
        raise ShapeMismatch(
            f"length mismatch: gamma {len(gamma)}, n {len(n)}, w {len(w)}"
        )
    return float(np.sum(w * (gamma * gamma - np.asarray(n) ** 2)))


def relative_mse(estimates: np.ndarray, target: float) -> float:
    """Mean of (estimate - target)^2 / target^2 over replicates."""
    estimates = np.asarray(estimates, dtype=float)
    if not (target > 0):
        raise InvalidParameter(f"target must be positive, got {target}")
    if estimates.size < 2:
        raise InvalidParameter("relative_mse needs at least 2 replicates")
    return float(np.mean(((estimates - target) / target) ** 2))


@dataclass(frozen=True)
class ScalePlan:
    """Replicate-independent state for one (scale, scenario) pair.

    The mask W, the noise levels sigma and what follows from them (n, the
    mask functional, the threshold, the kept set) depend only on the
    scenario, so the runner builds them once and reuses them across
    replicates.  W and sigma are read-only: replicate threads share them.
    """

    scale: NeedletScale
    W: np.ndarray
    sigma: np.ndarray
    threshold: float
    n: np.ndarray
    functional: np.ndarray
    kept: np.ndarray
    c_target: float

    @property
    def j(self) -> int:
        return self.scale.j


def prepare_scale(
    fam: WindowFamily,
    j: int,
    scen: Scenario,
    model: SpectrumModel,
    cfg: EstimatorConfig,
    order: int | None = None,
) -> ScalePlan:
    scale = make_scale(fam, j, order=order)
    W = scen.mask_map(j, scale.pix)
    sigma = scen.noise_map(j, scale.pix)
    W.flags.writeable = False
    sigma.flags.writeable = False
    n = noise_levels(scale, W, sigma)
    m = mask_functional(scale, W)
    if cfg.threshold_mode == "quantile":
        t_j = quantile_threshold(m, cfg.q)
    else:
        t_j = cfg.threshold(fam.B, j)
    kept = kept_set(m, t_j)
    C = spectrum_values(model, scale.band_lmax)
    return ScalePlan(
        scale=scale,
        W=W,
        sigma=sigma,
        threshold=t_j,
        n=n,
        functional=m,
        kept=kept,
        c_target=target_cj(fam, j, C),
    )


def two_pass_estimate(gamma: np.ndarray, plan: ScalePlan, cfg: EstimatorConfig) -> ScaleEstimate:
    """Estimate with the configured weights; mle mode bootstraps its pilot
    from a uniform first pass unless an external pilot is supplied."""
    kept = plan.kept
    if kept.size == 0:
        raise AllMasked(
            f"scale {plan.j}: threshold {plan.threshold:g} keeps no coefficient"
        )
    pilot = math.nan
    if cfg.weight_mode == "uniform":
        w = weights("uniform", kept, plan.n)
    else:
        if cfg.pilot == "two-pass":
            pilot = estimate(gamma, plan.n, weights("uniform", kept, plan.n))
        else:
            pilot = float(cfg.pilot)
        pilot = max(pilot, PILOT_FLOOR_FRACTION * plan.scale.norm_constant)
        w = weights("mle", kept, plan.n, pilot=pilot)
    return ScaleEstimate(
        j=plan.j,
        c_hat=estimate(gamma, plan.n, w),
        c_target=plan.c_target,
        kept_count=int(kept.size),
        mode=cfg.weight_mode,
        threshold=plan.threshold,
        pilot=pilot,
    )
