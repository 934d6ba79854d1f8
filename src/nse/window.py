"""B-adic frequency windows.

A window family is built from a smooth cutoff ``a``: a(x) = 1 for |x| <= 1/B,
a(x) = 0 for |x| >= 1, with a polynomial descent of degree 2M+1 in between
whose derivatives through order M vanish at both knots.  Scale-j windows are

    tight mode:    b_{j,l}^2 = a(l / B^(j+1)) - a(l / B^j)
    literal mode:  b_{j,l}   = a(l / B^(j+1)) - a(l / B^j)

so in tight mode the squares telescope to a partition of unity over scales,
which is the tight-frame condition.  b_{j,l} is nonzero only for
B^(j-1) < l < B^(j+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .errors import InvalidParameter

MODES = ("tight", "literal")


def _transition_coeffs(M: int) -> np.ndarray:
    # Coefficients (ascending powers) of p(u) = 1 - I_u(M+1, M+1) on [0, 1],
    # the unique degree-(2M+1) polynomial with p(0)=1, p(1)=0 and M vanishing
    # derivatives at both ends.  Assembled in exact rational arithmetic.
    beta = Fraction(math.factorial(M) ** 2, math.factorial(2 * M + 1))
    coeffs = [Fraction(0)] * (2 * M + 2)
    coeffs[0] = Fraction(1)
    for i in range(M + 1):
        term = Fraction((-1) ** i * math.comb(M, i), M + 1 + i) / beta
        coeffs[M + 1 + i] = -term
    return np.array([float(c) for c in coeffs])


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth band cutoff: 1 on [0, 1/B], polynomial descent, 0 beyond 1."""

    B: float
    M: int
    coeffs: np.ndarray  # transition polynomial, ascending powers on [0, 1]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _descent(self, u):
        # Horner on the stored polynomial. For u > 1/2 use the symmetry
        # p(u) = 1 - p(1 - u) (exact for this family): it avoids the
        # cancellation among the large alternating coefficients near u = 1.
        u = np.asarray(u, dtype=float)
        v = np.where(u <= 0.5, u, 1.0 - u)
        acc = np.zeros_like(v)
        for c in self.coeffs[::-1]:
            acc = acc * v + c
        return np.where(u <= 0.5, acc, 1.0 - acc)

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        inner = 1.0 / self.B
        u = (x - inner) / (1.0 - inner)
        out = np.where(x <= inner, 1.0, np.where(x >= 1.0, 0.0, self._descent(np.clip(u, 0.0, 1.0))))
        return out if out.ndim else float(out)


def build_cutoff(B: float, M: int) -> CutoffFunction:
    """Construct the smooth cutoff for band ratio B and smoothness order M."""
    if not B > 1.0:
        raise InvalidParameter(f"band ratio must exceed 1, got {B}")
    if M < 3:
        raise InvalidParameter(f"smoothness order must be >= 3, got {M}")
    return CutoffFunction(B=float(B), M=int(M), coeffs=_transition_coeffs(int(M)))


@dataclass(frozen=True)
class WindowFamily:
    """Per-scale window tables b_{j,l} for j in [j_min, j_max]."""

    cutoff: CutoffFunction
    mode: str
    j_min: int
    j_max: int
    tables: tuple  # tables[j - j_min][l] = b_{j,l}, l = 0 .. band_lmax(j)

    @property
    def B(self) -> float:
        return self.cutoff.B

    @property
    def M(self) -> int:
        return self.cutoff.M

    def band_lmax(self, j: int) -> int:
        """Smallest band limit: b_{j,l} = 0 for all l >= B^(j+1)."""
        return int(math.ceil(self.B ** (j + 1)))

    def table(self, j: int) -> np.ndarray:
        if not self.j_min <= j <= self.j_max:
            raise InvalidParameter(f"scale {j} outside family range [{self.j_min}, {self.j_max}]")
        return self.tables[j - self.j_min]


def _window_values(cutoff: CutoffFunction, mode: str, j: int) -> np.ndarray:
    B = cutoff.B
    lmax = int(math.ceil(B ** (j + 1)))
    ell = np.arange(lmax + 1, dtype=float)
    diff = cutoff(ell / B ** (j + 1)) - cutoff(ell / B ** j)
    if mode == "tight":
        # roundoff can push the difference a few ulp below zero
        return np.sqrt(np.clip(diff, 0.0, None))
    return np.asarray(diff, dtype=float)


def build_windows(B: float, M: int, j_min: int, j_max: int, mode: str = "tight") -> WindowFamily:
    """Build the window family for scales j_min..j_max.

    mode "tight" stores b with b^2 = a(l/B^(j+1)) - a(l/B^j) (square-telescoping,
    tight frame); mode "literal" stores the plain difference.
    """
    if mode not in MODES:
        raise InvalidParameter(f"mode must be one of {MODES}, got {mode!r}")
    if j_max < j_min:
        raise InvalidParameter(f"empty scale range [{j_min}, {j_max}]")
    cutoff = build_cutoff(B, M)
    tables = tuple(_window_values(cutoff, mode, j) for j in range(j_min, j_max + 1))
    return WindowFamily(cutoff=cutoff, mode=mode, j_min=int(j_min), j_max=int(j_max), tables=tables)


def scale_band(fam: WindowFamily, j: int):
    """(smallest, largest) l with b_{j,l} != 0, or None when the band is empty."""
    nz = np.nonzero(fam.table(j))[0]
    if len(nz) == 0:
        return None
    return int(nz[0]), int(nz[-1])


def partition_sum(fam: WindowFamily, lmax: int, power: int = 2) -> np.ndarray:
    """sum_j b_{j,l}^power for l = 0..lmax over the family's scale range."""
    out = np.zeros(lmax + 1)
    for j in range(fam.j_min, fam.j_max + 1):
        t = fam.table(j)
        n = min(len(t), lmax + 1)
        out[:n] += t[:n] ** power
    return out
