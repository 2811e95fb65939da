"""Scalar special functions: Gamma, Riemann zeta, odd-index zeta sums,
Dirichlet-beta style alternating sums, and Chebyshev polynomials T_n.

Everything here is double precision on the positive real axis, which is all
the rest of the package needs.
"""

import math
import numbers

import numpy as np

__all__ = [
    "gamma",
    "zeta",
    "odd_zeta",
    "chebyshev_T",
    "alternating_odd_sum",
]

# Bernoulli numbers B_2, B_4, ..., B_20 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)
_ZETA_TERMS = 24  # partial-sum length of zeta
_ALTERNATING_TERMS = 48  # terms of the alternating-sum acceleration


def gamma(x: float) -> float:
    """Gamma function for x > 0.

    Delegates to math.gamma (a Lanczos-class rational approximation), good to
    about 1e-15 relative over [0.5, 171].  Arguments beyond the representable
    range raise OverflowError; non-positive arguments are out of scope.
    """
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    if x == math.inf:
        raise OverflowError(f"gamma({x}) overflows double precision")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise OverflowError(f"gamma({x}) overflows double precision") from exc


def zeta(alpha: float) -> float:
    """Riemann zeta for alpha > 1 by Euler-Maclaurin summation.

    A 24-term partial sum plus the integral tail and ten Bernoulli
    corrections keeps the absolute error below 1e-15 uniformly in alpha > 1,
    including just above the pole at 1.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"zeta requires a finite alpha > 1, got {alpha}")
    n = float(_ZETA_TERMS)
    ns = np.arange(1.0, n)
    out = float(np.sum(ns**-alpha)) + n ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * n**-alpha
    # correction terms B_2k/(2k)! * (alpha)_{2k-1} * n^{-alpha-2k+1}
    poch = alpha
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        fact *= (2 * k - 1) * (2 * k)
        out += b2k / fact * poch * n ** (-alpha - 2 * k + 1)
        poch *= (alpha + 2 * k - 1) * (alpha + 2 * k)
    return out


def odd_zeta(alpha: float) -> float:
    """2 * sum_{n>=0} (1+2n)^(-alpha), i.e. zeta(alpha) * (2 - 2^(1-alpha))."""
    return zeta(alpha) * (2.0 - 2.0 ** (1.0 - alpha))


def chebyshev_T(n: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, T_n(x) = cos(n arccos x)."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"chebyshev_T requires an integer n >= 0, got {n!r}")
    if not abs(x) <= 1.0:
        raise ValueError(f"chebyshev_T requires |x| <= 1, got {x}")
    return math.cos(n * math.acos(x))


def _alternating_sum(f) -> float:
    """sum_{k>=0} (-1)^k f(k) by Cohen-Rodriguez Villegas-Zagier acceleration.

    Rigorous for totally monotone f; the error decays like (3+sqrt(8))^-n in
    the number n of terms, so n = _ALTERNATING_TERMS = 48 is far below
    double-precision roundoff.  It serves both alternating series: the
    Dirichlet beta sum below and the tail of entire.H_alpha_series.
    """
    d = (3.0 + math.sqrt(8.0)) ** _ALTERNATING_TERMS
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(_ALTERNATING_TERMS):
        c = b - c
        s += c * f(k)
        b *= (k + _ALTERNATING_TERMS) * (k - _ALTERNATING_TERMS) / ((k + 0.5) * (k + 1.0))
    return s / d


def alternating_odd_sum(alpha: float) -> float:
    """sum_{n>=0} (-1)^n / (1+2n)^(alpha+2) for alpha > -1.

    This is the Dirichlet beta value beta(alpha+2), the series in the
    closed form for the L1 best-approximation constant.
    """
    if not alpha > -1.0:
        raise ValueError(f"alternating_odd_sum requires alpha > -1, got {alpha}")
    s = alpha + 2.0
    return _alternating_sum(lambda k: (1.0 + 2.0 * k) ** -s)
