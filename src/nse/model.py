"""Gaussian field model, observation scenarios, and seeded random streams.

The field X is an isotropic Gaussian random field with angular power
spectrum C_l = l^(-alpha) g(l), alpha > 2, C_0 = 0.  Observations at scale j
are Y_k = W_k (X_j(xi_k) + sigma_k U_k) with mask W in [0,1], noise levels
sigma >= 0, U iid standard normal, and X_j a band-limited version of X.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .grid import Pixelization, read_map, map_matches_grid
from .harmonics import Alm, inverse_sht
from .window import WindowFamily

G_KINDS = ("constant", "modulated")
BEAMS = ("sharp", "cosine")


@dataclass(frozen=True)
class SpectrumModel:
    """Power spectrum C_l = l^(-alpha) g(l).

    g families:
      * constant: g = g0
      * modulated: g(l) = g0 (1 + eps cos(pi log_B l)), eps < 1, a smooth
        log-periodic ripple.  The ripple is applied in absolute log_B(l) so a
        single spectrum serves every scale; restricted to the band of scale j
        it reads g_j(u) = g(B^j u), and each g_j obeys the same bounds.
    """

    alpha: float
    g_kind: str = "constant"
    g0: float = 1.0
    eps: float = 0.0
    B: float = 2.0

    def __post_init__(self):
        if not self.alpha > 2.0:
            raise InvalidParameter(f"spectral slope alpha must exceed 2, got {self.alpha}")
        if self.g_kind not in G_KINDS:
            raise InvalidParameter(f"g family must be one of {G_KINDS}, got {self.g_kind!r}")
        if not self.g0 > 0.0:
            raise InvalidParameter(f"g0 must be positive, got {self.g0}")
        if self.g_kind == "modulated" and not abs(self.eps) < 1.0:
            raise InvalidParameter(f"|eps| must be < 1 for a positive spectrum, got {self.eps}")


def spectrum_values(model: SpectrumModel, lmax: int) -> np.ndarray:
    """C_l for l = 0..lmax (C_0 = 0); the g families are scale-consistent,
    so one spectrum serves every scale."""
    ell = np.arange(1, lmax + 1, dtype=float)
    g = np.full(lmax, model.g0)
    if model.g_kind == "modulated":
        g *= 1.0 + model.eps * np.cos(np.pi * np.log(ell) / np.log(model.B))
    out = np.zeros(lmax + 1)
    out[1:] = ell ** (-model.alpha) * g
    return out


class SeededRng:
    """Counter-based substreams keyed by (master seed, replicate, role tag).

    Identical keys give identical draws no matter how work is scheduled
    across threads; distinct keys give statistically independent streams.
    """

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2 ** 64:
            raise InvalidParameter("master seed must fit in 64 bits")
        self.seed = int(seed)

    def stream(self, replicate: int, role: str) -> np.random.Generator:
        tag = zlib.crc32(role.encode("utf-8"))
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(replicate), tag))
        return np.random.Generator(np.random.Philox(ss))


def synthesize_field(C: np.ndarray, lmax: int, rng: np.random.Generator) -> Alm:
    """Draw Alm of a Gaussian field with spectrum C: E|a_{l,m}|^2 = C_l.

    m = 0 coefficients are real N(0, C_l); m > 0 get independent real and
    imaginary parts of variance C_l/2.  Draw order is fixed by lmax alone.
    """
    C = np.asarray(C, dtype=float)
    if len(C) < lmax + 1:
        raise ShapeMismatch(f"need C_l through l = {lmax}, got {len(C)} entries")
    if np.any(C < 0):
        raise InvalidParameter("power spectrum values must be nonnegative")
    amp = np.sqrt(C[: lmax + 1])
    alm = Alm(lmax)
    alm.c[:, 0] = rng.standard_normal(lmax + 1) * amp
    z = rng.standard_normal((lmax + 1, lmax + 1, 2))
    rows = np.arange(lmax + 1)[:, None]
    cols = np.arange(lmax + 1)[None, :]
    valid = (cols >= 1) & (cols <= rows)
    block = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0) * amp[:, None]
    alm.c[:, 1:] = np.where(valid[:, 1:], block[:, 1:], 0.0)
    return alm


def apply_band_limit(alm: Alm, profile: np.ndarray) -> Alm:
    """Multiply a_{l,m} by profile[l]; degrees beyond the profile are dropped."""
    profile = np.asarray(profile, dtype=float)
    lmax = min(alm.lmax, len(profile) - 1)
    out = alm.truncated(lmax)
    out.c *= profile[: lmax + 1, None]
    return out


# ---------------------------------------------------------------------------
# observation scenarios

@dataclass(frozen=True)
class MaskSpec:
    """Mask generator: full_sky | polar_cap (cap removed around the north
    pole, geodesic radius theta_cut) | disc (kept disc around center) |
    file (per-point map)."""

    kind: str
    theta_cut: float = 0.0
    center: tuple = (0.0, 0.0)  # (theta, phi) of the kept disc
    radius: float = 0.0
    path: str = ""

    def values(self, pix: Pixelization) -> np.ndarray:
        if self.kind == "full_sky":
            return np.ones(pix.npoints)
        if self.kind == "polar_cap":
            return (pix.theta_k > self.theta_cut).astype(float)
        if self.kind == "disc":
            th, ph = self.center
            c = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
            dot = np.clip(pix.xyz @ c, -1.0, 1.0)
            return (np.arccos(dot) <= self.radius).astype(float)
        if self.kind == "file":
            out = _load_map_for(pix, self.path)
            if np.any((out < 0.0) | (out > 1.0)):
                raise InvalidParameter(f"mask map {self.path} has values outside [0, 1]")
            return out
        raise InvalidParameter(f"unknown mask kind {self.kind!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level generator: constant | colatitude_linear (sigma_min at the
    north pole rising linearly in theta to sigma_max) | hemisphere_step |
    file (per-point map)."""

    kind: str
    sigma: float = 0.0
    sigma_min: float = 0.0
    sigma_max: float = 0.0
    sigma_north: float = 0.0
    sigma_south: float = 0.0
    path: str = ""

    def values(self, pix: Pixelization) -> np.ndarray:
        if self.kind == "constant":
            out = np.full(pix.npoints, float(self.sigma))
        elif self.kind == "colatitude_linear":
            out = self.sigma_min + (self.sigma_max - self.sigma_min) * pix.theta_k / np.pi
        elif self.kind == "hemisphere_step":
            out = np.where(pix.theta_k < np.pi / 2, self.sigma_north, self.sigma_south)
        elif self.kind == "file":
            out = _load_map_for(pix, self.path)
        else:
            raise InvalidParameter(f"unknown noise kind {self.kind!r}")
        if not np.all(np.isfinite(out) & (out >= 0)):
            raise InvalidParameter("noise levels must be finite and nonnegative")
        return out


def _load_map_for(pix: Pixelization, path: str) -> np.ndarray:
    header, values, theta, phi, lam = read_map(path)
    if not map_matches_grid(header, theta, phi, lam, pix):
        raise ShapeMismatch(f"map file {path} does not match the order-{pix.order} grid")
    return values


FULL_SKY = MaskSpec(kind="full_sky")
NO_NOISE = NoiseSpec(kind="constant", sigma=0.0)


@dataclass(frozen=True)
class Scenario:
    """Per-scale observation setup.

    schedule maps scale ranges to (mask, noise) pairs, mimicking campaigns
    that observe different sky fractions at different resolutions; entries
    are (j_lo, j_hi, MaskSpec, NoiseSpec) with inclusive bounds.  The beam
    keeps harmonic content through beam_l(j) untouched; "sharp" cuts there,
    "cosine" tapers to zero at twice that degree.
    """

    schedule: tuple = ()
    beam: str = "sharp"
    beam_l: tuple = ()  # optional (j, L_j) overrides; default band limit of scale j

    def __post_init__(self):
        if self.beam not in BEAMS:
            raise InvalidParameter(f"beam must be one of {BEAMS}, got {self.beam!r}")
        scales = [j for j, _ in self.beam_l]
        if len(set(scales)) != len(scales):
            raise InvalidParameter(f"beam_l lists a scale more than once: {scales}")
        for j, L in self.beam_l:
            if L < 0:
                raise InvalidParameter(f"beam degree of scale {j} must be nonnegative, got {L}")

    def entry(self, j: int):
        for j_lo, j_hi, mask, noise in self.schedule:
            if j_lo <= j <= j_hi:
                return mask, noise
        return FULL_SKY, NO_NOISE

    def mask_map(self, j: int, pix: Pixelization) -> np.ndarray:
        return self.entry(j)[0].values(pix)

    def noise_map(self, j: int, pix: Pixelization) -> np.ndarray:
        return self.entry(j)[1].values(pix)

    def beam_degree(self, j: int, default: int) -> int:
        return int(dict(self.beam_l).get(j, default))

    def beam_profile(self, j: int, band_lmax: int) -> np.ndarray:
        """Profile over l = 0..2*L_j: 1 through L_j, then the chosen rolloff."""
        L = self.beam_degree(j, band_lmax)
        out = np.zeros(2 * L + 1)
        out[: L + 1] = 1.0
        if self.beam == "cosine":
            ell = np.arange(L + 1, 2 * L + 1, dtype=float)
            out[L + 1 :] = 0.5 * (1.0 + np.cos(np.pi * (ell - L) / L))
        return out

    def sim_lmax(self, j: int, band_lmax: int) -> int:
        """Largest degree the beam passes at scale j."""
        L = self.beam_degree(j, band_lmax)
        return 2 * L if self.beam == "cosine" else L

    def beamed(self, alm: Alm, j: int, band_lmax: int) -> Alm:
        """The field as scale j sees it: truncated to sim_lmax(j) and
        multiplied by the beam profile."""
        lj = self.sim_lmax(j, band_lmax)
        return apply_band_limit(alm, self.beam_profile(j, band_lmax)[: lj + 1])


def replicate_field(model: SpectrumModel, scen: Scenario, fam: WindowFamily, scales, rng: SeededRng, r: int) -> Alm:
    """Replicate r's field: one draw at the largest degree any of the scales
    simulates, shared by all of them."""
    lmax_top = max(scen.sim_lmax(j, fam.band_lmax(j)) for j in scales)
    C_top = spectrum_values(model, lmax_top)
    return synthesize_field(C_top, lmax_top, rng.stream(r, "field"))


def observe(alm_j: Alm, pix: Pixelization, W: np.ndarray, sigma: np.ndarray, rng: np.random.Generator):
    """Observe the scale-limited field alm_j through mask W and noise levels sigma.

    Returns (Y, X, U): the observation Y_k = W_k (X_k + sigma_k U_k), the
    field X_k = X_j(xi_k) at the grid points and the unit noise draw U_k.
    """
    x = inverse_sht(alm_j, pix)
    u = rng.standard_normal(pix.npoints)
    return W * (x + sigma * u), x, u
