"""Best uniform polynomial approximation of |x|^alpha on [-1, 1].

The even best approximation of degree 2n on [-1, 1] equals the best
degree-n approximation of f(y) = y^(alpha/2) on [0, 1] in y = x^2, where
the problem is a hypernormal Haar system of dimension n+2: the alternation
set has n+2 points, one of them pinned near y = 0.  The solver is a
multi-point Remez exchange in the Chebyshev basis of the working interval.

Each exchange scans the error on a theta-uniform grid of [0, y_hi] of
max(50n, 200) + 1 points, where the polynomial is one DCT-I of its
coefficients (Trefethen, Approximation Theory and Approximation Practice,
ch. 3).  It only picks the brackets, whose tops Newton's method polishes on
p's local Chebyshev series (_tops); Clenshaw evaluates p at every bracket's
points, and f - p at the tops and the old reference, in long double after
one refinement of the solve once the spread is within _FINE_RTOL: 1e-10 E_n
can lie below double's rounding of f - p.

Exchange robustness: the leveled linear system forces the new error to be
exactly +/-E alternating on the old reference, so merging the old reference
into the polished extremum candidates guarantees an alternating set of at
least n+2 points at every iteration.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._search import _DEGREE, centred_series, cheb_points, cos_series, grid_maxima, newton_tops

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
_FINE_RTOL = 1e-5  # see the module docstring
_TINY = float(np.finfo(float).tiny)  # the smallest positive normal double
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
    """Best even approximation of degree 2n in x, from its n + 1 coefficients
    in the Chebyshev basis of the y-interval."""

    alpha: float
    coeffs: np.ndarray
    E_n: float
    reference: ReferenceSet
    y_hi: float = 1.0

    def __post_init__(self):
        if self.alpha != 2.0 * round(self.alpha / 2.0) and not self.E_n > 0.0:
            raise ValueError("E_n must be positive for alpha not an even integer")


def _cheb_vander(u: np.ndarray, degree: int, last: np.ndarray) -> np.ndarray:
    """T_0(u) ... T_degree(u) and then the column last: an exchange's
    leveled system, built in place so that no second (n+2)^2 copy is made."""
    v = np.empty((len(u), degree + 2))
    v[:, -1] = last
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


def _base_values(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The series at best_poly's base grid u, increasing, where u_i is
    cos(theta) for len(u) theta-uniform points of [0, pi], by one DCT-I."""
    return cos_series(coeffs, len(u))[::-1]


def _tops(half, coeffs, scale, grid, values):
    """y at the top of each grid maximum of |e| = |y^half - p(y)|: Newton on
    e'(t) = 0 across its grid neighbours from the middle (y^(half - 1) is
    infinite at 0), f's derivatives in closed form.  End samples that are
    grid maxima follow."""
    idx = grid_maxima(values)
    lo, hi = grid[np.maximum(idx - 1, 0)], grid[np.minimum(idx + 1, len(grid) - 1)]
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = _eval_cheb(coeffs, scale(cheb_points(lo, hi).ravel())).reshape(len(idx), _DEGREE + 1)

    def closed(t, live):  # df/dt and d2f/dt2
        r = rad[live]
        y = mid[live] + r * t
        q = r / y  # so that no power of r or 1/y alone under- or overflows
        f1 = half * q * y**half
        return f1, f1 * (half - 1.0) * q

    t = newton_tops(centred_series(nodes), np.zeros(len(idx)), closed)
    return np.concatenate([np.clip(mid + rad * t, lo, hi), grid[idx[(idx == 0) | (idx == len(grid) - 1)]]])


def _errors(half, coeffs, y_hi, y, dtype):
    """f - p at y in dtype (long double is plain double on some platforms)."""
    y = y.astype(dtype)
    return y**half - _eval_cheb(coeffs.astype(dtype), 2.0 * y / y_hi - 1.0)


def eval_approx(approx: BestApprox, x) -> np.ndarray:
    """Evaluate the best polynomial at x in [-sqrt(y_hi), sqrt(y_hi)]; raises
    ValueError naming x elsewhere (bounded in x, not in x^2, which rounds)."""
    x, bound = np.atleast_1d(np.asarray(x, dtype=float)), math.sqrt(approx.y_hi)
    bad = ~(np.abs(x) <= bound)
    if bad.any():
        raise ValueError(f"x must be finite with |x| <= sqrt(y_hi) = {bound}, got {x[bad][0]}")
    return _eval_cheb(approx.coeffs, 2.0 * x**2 / approx.y_hi - 1.0)


def best_poly(alpha: float, n: int, y_hi: float = 1.0) -> BestApprox:
    """Remez exchange for the best even approximation of |x|^alpha, degree 2n.

    n is the degree in y = x^2 (n = 0 gives the best constant).  y_hi scales
    the working interval to [0, y_hi], i.e. x in [-sqrt(y_hi), sqrt(y_hi)].
    Raises RemezError (carrying the last reference) on exchange stagnation,
    which is also how a top the polish misses by more than the equalization
    tolerance shows, as every candidate error is f - p at a real point, and
    ValueError naming alpha, n or y_hi when one is outside its domain:
    alpha finite and positive, y_hi a positive normal double (so that
    2 y / y_hi - 1 keeps full precision), n an integer >= 0.

    For an even alpha with n >= alpha/2, |x|^alpha is itself a polynomial
    of degree <= 2n: the first leveled solve interpolates it, and the result
    has E_n = 0 and the initial reference.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not _TINY <= y_hi < math.inf:
        raise ValueError(f"y_hi must be a finite, positive normal double, got {y_hi}")
    exact = alpha == 2.0 * round(alpha / 2.0) and n >= alpha / 2.0
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
    base_u = scale(base_grid)

    fine = False  # the spread is within _FINE_RTOL: f - p in long double
    for _ in range(_MAX_EXCHANGES):
        vander = _cheb_vander(scale(ref), n, parity)
        sol = np.linalg.solve(vander, f(ref))
        if fine:  # one refinement on the residual at the exact points
            res = _errors(half, sol[:-1], y_hi, ref, np.longdouble) - parity * sol[-1]
            sol += np.linalg.solve(vander, res.astype(float))
        coeffs, level = sol[:-1], sol[-1]
        if exact:
            return BestApprox(alpha, coeffs, 0.0, ReferenceSet(ref, 0.0, parity), y_hi)

        # the scan takes p on the base grid from one DCT, |level| at ref
        grid, first = np.unique(np.concatenate([base_grid, ref]), return_index=True)
        e_base = f(base_grid) - _base_values(coeffs, base_u)
        e_grid = np.abs(np.concatenate([e_base, np.full_like(ref, level)]))
        # the old reference, leveled by the solve, keeps alternation
        pts = np.concatenate([_tops(half, coeffs, scale, grid, e_grid[first]), ref])
        e_pts = _errors(half, coeffs, y_hi, pts, np.longdouble if fine else float).astype(float)
        cand = sorted(zip(pts.tolist(), e_pts.tolist()))

        # collapse same-sign runs, keeping the largest magnitude
        sel: list[tuple[float, float]] = []
        for y_c, e_c in cand:
            if sel and math.copysign(1.0, e_c) == math.copysign(1.0, sel[-1][1]):
                if abs(e_c) > abs(sel[-1][1]):
                    sel[-1] = (y_c, e_c)
            else:
                sel.append((y_c, e_c))
        while len(sel) > n + 2:
            sel.pop(0 if abs(sel[0][1]) < abs(sel[-1][1]) else -1)
        if len(sel) < n + 2:
            raise RemezError(
                f"alternation lost: {len(sel)} < {n + 2} points",
                ReferenceSet(ref, abs(level), parity * math.copysign(1.0, level)),
            )

        ref, errs = map(np.array, zip(*sel))
        emax, emin = np.abs(errs).max(), np.abs(errs).min()
        parity = np.sign(errs)
        if fine and emax - emin <= _EQUALIZE_RTOL * emax:
            reference = ReferenceSet(ref, emax, parity.copy())
            return BestApprox(alpha, coeffs, float(emax), reference, y_hi)
        fine = emax - emin <= _FINE_RTOL * emax

    raise RemezError(
        f"no equalization within {_MAX_EXCHANGES} exchanges "
        f"(spread {emax - emin:.3e} vs {_EQUALIZE_RTOL * emax:.3e})",
        ReferenceSet(ref, float(emax), parity.copy()),
    )


def scaling_check(alpha: float, n: int, b: float) -> float:
    """Ratio of best errors on [-b, b] vs [-1, 1]; equals b^alpha in sup norm.

    Raises ValueError naming b unless b > 0 and b^2, best_poly's y_hi, is a
    finite normal double.
    """
    if not (b > 0.0 and _TINY <= b * b < math.inf):
        raise ValueError(f"b must be positive with a finite, normal square, got {b}")
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
