"""Quantitative asymptotics: Laplace/Watson expansions of the G kernel,
envelope bounds for H1, the sign change of R on the diagonal, monotonicity
of the envelope, and the large-alpha norm ratio.

The Watson expansion applies to G(alpha+k, alpha+c) = int f(t) e^(-alpha g(t)) dt
with f(t) = t^k / (e^(ct) (1+t^2)) and g(t) = t - log t, whose single
minimum at t = 1 splits the integral into an upper branch (1, inf) and a
lower branch (0, 1).  Each branch expands as

    e^-alpha * sum_n Gamma((n+1)/2) a_n alpha^(-(n+1)/2)      (lambda=1, mu=2)

with residue-derived coefficients a_n; the lower branch flips the sign of
every odd-index coefficient, so the half-integer powers cancel in the sum
and G(alpha+k, alpha) = sqrt(2 pi/alpha) e^-alpha (1/2 - (5/24)/alpha + ...).

The a_n are hard-coded closed forms verified numerically against quadrature
rather than recomputed symbolically.  G_asympt reads them from
watson_coeffs, so that one table feeds both.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import (
    C_const,
    KernelKind,
    _require_alpha,
    kernel_eval,
    kernel_values,
    sup_norm_H,
    sup_norm_H1,
)
from ._search import bisect_root

__all__ = [
    "WatsonCoeffs",
    "EnvelopeBounds",
    "watson_coeffs",
    "G_asympt",
    "envelope_bounds",
    "find_alpha0",
    "monotonicity_check",
    "norm_ratio_limit",
]

_SQRT2 = math.sqrt(2.0)

_MONOTONE_POINTS = 200  # grid size of monotonicity_check


@dataclass(frozen=True)
class WatsonCoeffs:
    """Watson coefficients a_0..a_5 of one branch of the split integral (lambda 1, mu 2)."""

    k: int
    branch: str  # "upper" = (1, inf), "lower" = (0, 1)
    a: tuple


def watson_coeffs(k: int, branch: str) -> WatsonCoeffs:
    """Closed-form a_0..a_5 for f(t) = t^k/(1+t^2), c = 0, k in {0, 1}."""
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    a = [
        1.0 / (2.0 * _SQRT2),
        (3.0 * k - 1.0) / 6.0,
        (6.0 * k**2 - 6.0 * k - 5.0) / (12.0 * _SQRT2),
        (45.0 * k**3 - 90.0 * k**2 - 90.0 * k + 86.0) / 270.0,
        (36.0 * k**4 - 120.0 * k**3 - 96.0 * k**2 + 324.0 * k + 61.0) / (432.0 * _SQRT2),
        (189.0 * k**5 - 945.0 * k**4 - 315.0 * k**3 + 4683.0 * k**2 + 168.0 * k - 3730.0)
        / 11340.0,
    ]
    if branch == "lower":
        for i in (1, 3, 5):
            a[i] = -a[i]
    return WatsonCoeffs(k, branch, tuple(a))


def G_asympt(alpha: float, variant: str, order: int = 2, c: float = 0.0) -> float:
    """Truncated large-alpha expansion of the G kernel.

    variant 'G_aa' is G(alpha, alpha), 'G_a1a' is G(alpha+1, alpha) (orders
    0..2 available), and 'G_aac' is G(alpha, alpha+c) with only the leading
    term e^-c / 2 known (order must be 0).
    """
    _require_alpha(alpha, 0.0, "G_asympt")
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    pref = math.sqrt(2.0 * math.pi / alpha) * math.exp(-alpha)
    if variant == "G_aac":
        if not 0.0 <= c < math.inf:
            raise ValueError(f"c must be finite and >= 0, got {c}")
        if order > 0:
            raise ValueError("G_aac expansion is only available at order 0")
        return pref * 0.5 * math.exp(-c)
    try:
        even = watson_coeffs({"G_aa": 0, "G_a1a": 1}[variant], "upper").a[::2]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    if order >= len(even):
        raise ValueError(f"order {order} beyond available coefficients for {variant}")
    # the two branches double each even term Gamma(j+1/2) a_2j alpha^-j
    root = math.sqrt(2.0 * math.pi)
    coeffs = [2.0 * math.gamma(j + 0.5) * even[j] / root for j in range(order + 1)]
    return pref * sum(c * alpha**-j for j, c in enumerate(coeffs))


@dataclass(frozen=True)
class EnvelopeBounds:
    """The chain lower <= H1(alpha, alpha) <= ||H1|| <= upper."""

    alpha: float
    lower: float
    point_value: float
    norm: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.point_value <= self.norm <= self.upper):
            raise RuntimeError(
                f"envelope chain violated at alpha={self.alpha}: "
                f"{self.lower} <= {self.point_value} <= {self.norm} <= {self.upper} fails"
                " (quadrature or sup-norm search bug)"
            )


def envelope_bounds(alpha: float) -> EnvelopeBounds:
    """Envelope bound chain at alpha >= 2, with both ends C(alpha)/(1+2alpha)
    times (1 -/+ 1/sqrt(alpha), 2/sqrt(alpha))."""
    if not 2.0 <= alpha < math.inf:
        raise ValueError(f"envelope_bounds requires finite alpha >= 2, got {alpha}")
    base = C_const(alpha) / (1.0 + 2.0 * alpha)
    return EnvelopeBounds(
        alpha,
        base * (1.0 - 1.0 / math.sqrt(alpha)),
        kernel_eval(KernelKind.H1, alpha, alpha),
        sup_norm_H1(alpha).norm,
        base * (1.0 + 2.0 / math.sqrt(alpha)),
    )


def find_alpha0(tol: float) -> float:
    """Smallest sign change of alpha -> R(alpha, alpha), bracketed in [2.4, 3]."""
    if not tol >= 1e-7:
        raise ValueError(f"tol must be >= 1e-7, got {tol}")
    return float(bisect_root(lambda a: kernel_values(KernelKind.R, a, a), [2.4], [3.0], tol)[0])


def monotonicity_check(alpha: float, x_hi: float) -> bool:
    """True iff H1(alpha, .) strictly decreases on a grid of [alpha, x_hi].

    Guaranteed by theory for alpha above the R sign change (~2.543); the
    check runs and reports for any alpha > 0.
    """
    _require_alpha(alpha, 0.0, "monotonicity_check")
    if not alpha < x_hi < math.inf:
        raise ValueError(f"x_hi must be finite and exceed alpha, got {x_hi}")
    xs = np.linspace(alpha, x_hi, _MONOTONE_POINTS)
    vals = kernel_values(KernelKind.H1, alpha, xs)
    return bool((np.diff(vals) < 0.0).all())


def norm_ratio_limit(alpha: float) -> float:
    """||H(alpha, .)|| * (1 + 2 alpha) / C(alpha); tends to 1 as alpha grows."""
    if not 2.0 <= alpha < math.inf:
        raise ValueError(f"norm_ratio_limit requires finite alpha >= 2, got {alpha}")
    return sup_norm_H(alpha).norm * (1.0 + 2.0 * alpha) / C_const(alpha)
