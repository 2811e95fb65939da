"""Best uniform polynomial approximation of |x|^alpha on [-1, 1].

The even best approximation of degree 2n on [-1, 1] equals the best
degree-n approximation of f(y) = y^(alpha/2) on [0, 1] in y = x^2, where
the problem is a hypernormal Haar system of dimension n+2: the alternation
set has n+2 points, one of them pinned near y = 0.  The solver is a
multi-point Remez exchange in the Chebyshev basis of the working interval.

Exchange robustness: the leveled linear system forces the new error to be
exactly +/-E alternating on the old reference, so merging the old reference
into the polished extremum candidates guarantees an alternating set of at
least n+2 points at every iteration.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._search import refine_grid_maxima

__all__ = [
    "ReferenceSet",
    "BestApprox",
    "RemezError",
    "best_poly",
    "eval_approx",
    "scaling_check",
    "bernstein_extrapolate",
]

_EQUALIZE_RTOL = 1e-10
_MAX_EXCHANGES = 50


class RemezError(RuntimeError):
    """Exchange stagnation; carries the last reference set."""

    def __init__(self, message, reference=None):
        super().__init__(message)
        self.reference = reference


@dataclass(frozen=True)
class ReferenceSet:
    """Alternation reference: strictly increasing points in y-space with the
    common leveled |error| and the alternating sign pattern."""

    points: np.ndarray
    leveled_error: float
    signs: np.ndarray

    def __post_init__(self):
        if not (np.diff(self.points) > 0).all():
            raise ValueError("reference points must be strictly increasing")
        if len(self.points) >= 2 and not (self.signs[1:] * self.signs[:-1] < 0).all():
            raise ValueError("reference signs must alternate")


@dataclass(frozen=True)
class BestApprox:
    """Best even approximation: degree 2n in x, coefficients in the
    Chebyshev basis of the y-interval."""

    alpha: float
    degree_2n: int
    coeffs: np.ndarray
    E_n: float
    reference: ReferenceSet
    y_hi: float = 1.0

    def __post_init__(self):
        if self.alpha != 2.0 * round(self.alpha / 2.0) and not self.E_n > 0.0:
            raise ValueError("E_n must be positive for alpha not an even integer")


def _cheb_vander(u: np.ndarray, degree: int) -> np.ndarray:
    v = np.empty((len(u), degree + 1))
    v[:, 0] = 1.0
    if degree >= 1:
        v[:, 1] = u
    for k in range(2, degree + 1):
        v[:, k] = 2.0 * u * v[:, k - 1] - v[:, k - 2]
    return v


def _eval_cheb(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Clenshaw recurrence b1 <- 2 u b1 - b2 + c in three rotating buffers;
    # 2.0 * u * b1 evaluates as (2.0 * u) * b1, so hoisting u2 keeps the bits
    u2 = 2.0 * u
    b1 = np.zeros_like(u)
    b2 = np.zeros_like(u)
    tmp = np.empty_like(u)
    for c in coeffs[:0:-1]:
        np.multiply(u2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    return u * b1 - b2 + coeffs[0]


def eval_approx(approx: BestApprox, x) -> np.ndarray:
    """Evaluate the best polynomial at x in [-sqrt(y_hi), sqrt(y_hi)]."""
    y = np.atleast_1d(np.asarray(x, dtype=float)) ** 2
    return _eval_cheb(approx.coeffs, 2.0 * y / approx.y_hi - 1.0)


def _exact_even_case(alpha: float, n: int, y_hi: float) -> BestApprox:
    # |x|^alpha is itself a polynomial: zero error, interpolate y^m exactly
    m = int(round(alpha / 2.0))
    u = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
    ys = 0.5 * y_hi * (u + 1.0)
    coeffs = np.linalg.solve(_cheb_vander(u, n), ys**m)
    pts = 0.5 * y_hi * (1.0 + np.cos(np.pi * np.arange(n + 1, -1, -1) / (n + 1)))
    ref = ReferenceSet(pts, 0.0, np.where(np.arange(n + 2) % 2 == 0, 1.0, -1.0))
    return BestApprox(alpha, 2 * n, coeffs, 0.0, ref, y_hi)


def best_poly(alpha: float, n: int, y_hi: float = 1.0) -> BestApprox:
    """Remez exchange for the best even approximation of |x|^alpha, degree 2n.

    n is the degree in y = x^2 (n = 0 gives the best constant).  y_hi scales
    the working interval to [0, y_hi], i.e. x in [-sqrt(y_hi), sqrt(y_hi)].
    Raises RemezError (carrying the last reference) on exchange stagnation,
    and ValueError naming alpha, n or y_hi when one is outside its domain:
    alpha and y_hi finite and positive, n an integer >= 0.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not 0.0 < y_hi < math.inf:
        raise ValueError(f"y_hi must be finite and positive, got {y_hi}")
    if alpha == 2.0 * round(alpha / 2.0) and n >= alpha / 2.0:
        return _exact_even_case(alpha, n, y_hi)

    half = 0.5 * alpha

    def f(y):
        return y**half

    def scale(y):
        return 2.0 * y / y_hi - 1.0

    # initial reference: Chebyshev extrema of [0, y_hi]
    ref = 0.5 * y_hi * (1.0 + np.cos(np.pi * np.arange(n + 1, -1, -1) / (n + 1)))
    parity = np.where(np.arange(n + 2) % 2 == 0, 1.0, -1.0)

    m_grid = max(50 * n, 200) + 1
    theta = np.linspace(0.0, np.pi, m_grid)
    base_grid = 0.5 * y_hi * (1.0 + np.cos(theta))[::-1]
    base_grid[0] = 0.0

    coeffs = None
    level = 0.0
    for _ in range(_MAX_EXCHANGES):
        system = np.hstack([_cheb_vander(scale(ref), n), parity[:, None]])
        sol = np.linalg.solve(system, f(ref))
        coeffs, level = sol[:-1], sol[-1]

        def err(y):
            return f(y) - _eval_cheb(coeffs, scale(y))

        grid = np.unique(np.concatenate([base_grid, ref]))
        peaks, _ = refine_grid_maxima(
            lambda y: np.abs(err(y)), grid, np.abs(err(grid)), xtol=1e-12 * y_hi
        )
        cand = list(zip(peaks.tolist(), err(peaks).tolist()))
        # the old reference is exactly leveled, guaranteeing alternation
        cand.extend(zip(ref, parity * level))
        cand.sort()

        # collapse same-sign runs, keeping the largest magnitude
        sel: list[tuple[float, float]] = []
        for y_c, e_c in cand:
            if sel and math.copysign(1.0, e_c) == math.copysign(1.0, sel[-1][1]):
                if abs(e_c) > abs(sel[-1][1]):
                    sel[-1] = (y_c, e_c)
            else:
                sel.append((y_c, e_c))
        while len(sel) > n + 2:
            if abs(sel[0][1]) < abs(sel[-1][1]):
                sel.pop(0)
            else:
                sel.pop()
        if len(sel) < n + 2:
            raise RemezError(
                f"alternation lost: {len(sel)} < {n + 2} points",
                ReferenceSet(ref, abs(level), parity * math.copysign(1.0, level)),
            )

        new_ref = np.array([y for y, _ in sel])
        errs = np.array([e_c for _, e_c in sel])
        emax, emin = np.abs(errs).max(), np.abs(errs).min()
        parity = np.sign(errs)
        ref = new_ref
        if emax - emin <= _EQUALIZE_RTOL * emax:
            reference = ReferenceSet(ref, emax, parity.copy())
            return BestApprox(alpha, 2 * n, coeffs, float(emax), reference, y_hi)

    raise RemezError(
        f"no equalization within {_MAX_EXCHANGES} exchanges "
        f"(spread {emax - emin:.3e} vs {_EQUALIZE_RTOL * emax:.3e})",
        ReferenceSet(ref, float(emax), parity.copy()),
    )


def scaling_check(alpha: float, n: int, b: float) -> float:
    """Ratio of best errors on [-b, b] vs [-1, 1]; equals b^alpha in sup norm."""
    if not (b > 0.0 and 0.0 < b * b < math.inf):
        raise ValueError(f"b must be positive with a finite, nonzero square, got {b}")
    on_b = best_poly(alpha, n, y_hi=b * b)
    on_1 = best_poly(alpha, n)
    return on_b.E_n / on_1.E_n


def bernstein_extrapolate(alpha: float, n_list) -> float:
    """Extrapolate (2n)^alpha E_2n to its n -> inf limit.

    Fits s_n = L + b/n + c/n^2 by least squares over the given n's, of
    which at least 3 must be distinct and all >= 1, and returns L.  The fit
    model is a pragmatic choice; tolerances downstream are kept loose
    accordingly.
    """
    ns = list(n_list)
    for n in ns:
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_list entries must be integers >= 1, got {n!r}")
    ns = sorted(ns)
    if len(set(ns)) < 3:
        raise ValueError(f"n_list needs at least 3 distinct n >= 1, got {ns}")
    s = np.array([(2.0 * n) ** alpha * best_poly(alpha, n).E_n for n in ns])
    inv = 1.0 / np.array(ns, dtype=float)
    design = np.vstack([np.ones_like(inv), inv, inv**2]).T
    fit, *_ = np.linalg.lstsq(design, s, rcond=None)
    return float(fit[0])
