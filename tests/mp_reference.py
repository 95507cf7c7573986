"""60-digit references for the numerical kernels, evaluated with mpmath.

Test-only: the library itself never imports mpmath. Each function takes
doubles, works at DIGITS significant digits and rounds once at the end.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


def ncdf(z: float) -> float:
    """Standard normal CDF Phi(z)."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.ncdf(mpmath.mpf(z)))


def normal_mass(lo: float, hi: float) -> float:
    """Phi(hi) - Phi(lo), the mass of the standard normal on [lo, hi],
    taken as a difference of lower tails above the mean so that the upper
    tail keeps its digits."""
    if lo >= 0:
        lo, hi = -hi, -lo
    with mpmath.workdps(DIGITS):
        return float(mpmath.ncdf(mpmath.mpf(hi)) - mpmath.ncdf(mpmath.mpf(lo)))


def gauss(z: float) -> float:
    """exp(-z^2 / 2)."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.exp(-mpmath.mpf(z) ** 2 / 2))
