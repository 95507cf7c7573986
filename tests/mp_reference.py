"""60-digit references for the numerical kernels, evaluated with mpmath.

Test-only: the library itself never imports mpmath. Each function takes
doubles, works at DIGITS significant digits and rounds once at the end:
the normal tail of the mode fits, and the values and logit gradients of the
three divergences.
"""

from __future__ import annotations

import math

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


def _kl(a, b):
    """KL(a||b) and the sum of its terms' magnitudes, 0 log 0 := 0; +inf
    where a positive a meets a null b."""
    value = scale = mpmath.mpf(0)
    for x, y in zip(a, b):
        if x == 0:
            continue
        if y == 0:
            return mpmath.inf, mpmath.inf
        term = x * mpmath.log(x / y)
        value += term
        scale += abs(term)
    return value, scale


def _divergence(name, beta, P, Q):
    if name == "forward_kl":
        return _kl(P, Q)
    if name == "reverse_kl":
        return _kl(Q, P)
    M = [beta * x + (1 - beta) * y for x, y in zip(P, Q)]
    (vp, sp), (vq, sq) = _kl(P, M), _kl(Q, M)
    return beta * vp + (1 - beta) * vq, beta * sp + (1 - beta) * sq


def _row(x, normalise: bool) -> list:
    row = [mpmath.mpf(float(v)) for v in x]
    if normalise:
        total = sum(row)
        row = [v / total for v in row]
    return row


def divergence(name: str, beta: float, p, q, normalise: bool = False) -> tuple[float, float]:
    """The divergence `name` ("forward_kl", "reverse_kl" or "jsd" at beta)
    of teacher p from student q, rows of doubles taken as exact, and the
    sum of the magnitudes of its terms (the scale of its rounding error).
    With normalise, each row is first divided by its exact sum, which puts
    the pair on the simplex, where the ceiling theorems hold."""
    with mpmath.workdps(DIGITS):
        P, Q = _row(p, normalise), _row(q, normalise)
        value, scale = _divergence(name, mpmath.mpf(float(beta)), P, Q)
        return float(value), float(scale)


def logit_gradient(
    name: str, beta: float, p, z, normalise: bool = False
) -> tuple[float, float, list[float], float]:
    """Value and gradient in the logits z of the divergence of teacher p
    from the student softmax(z), with the softmax taken exactly.

    The gradient is the chain rule q * (d - E_q d) on d, the divergence's
    gradient in q written out term by term (for JSD through the mixture
    too, not the closed form). Returns the value and its scale as
    `divergence` does, the gradient, and 1 + sum_i q_i |d_i|, the scale of
    the gradient's rounding error. A reverse KL whose teacher misses the
    student's support is infinite and has no gradient here. normalise
    divides p by its exact sum, as in `divergence`.
    """
    with mpmath.workdps(DIGITS):
        P = _row(p, normalise)
        Z = [mpmath.mpf(float(x)) for x in z]
        top = max(Z)
        E = [mpmath.exp(x - top) for x in Z]
        total = sum(E)
        Q = [x / total for x in E]
        b = mpmath.mpf(float(beta))
        value, scale = _divergence(name, b, P, Q)
        if name == "forward_kl":
            d = [-x / y for x, y in zip(P, Q)]
        elif name == "reverse_kl":
            if value == mpmath.inf:
                return math.inf, math.inf, [], math.inf
            d = [mpmath.log(y / x) + 1 for x, y in zip(P, Q)]
        else:
            M = [b * x + (1 - b) * y for x, y in zip(P, Q)]
            d = [
                (1 - b) * (mpmath.log(y / m) + 1 - (1 - b) * y / m) - b * (1 - b) * x / m
                for x, y, m in zip(P, Q, M)
            ]
        mean = sum(y * g for y, g in zip(Q, d))
        grad = [float(y * (g - mean)) for y, g in zip(Q, d)]
        grad_scale = 1 + sum(y * abs(g) for y, g in zip(Q, d))
        return float(value), float(scale), grad, float(grad_scale)
