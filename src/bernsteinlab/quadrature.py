"""Double-exponential quadrature on finite and semi-infinite intervals.

Two transforms are used:

* tanh-sinh for (a, b):   x = (a+b)/2 + (b-a)/2 * tanh(u),  u = (pi/2) sinh(t)
* exp-sinh  for (a, inf): x = a + exp(u)

Both place nodes double-exponentially close to the finite endpoints, so
integrable algebraic endpoint singularities such as t**(alpha-1) near t = 0
converge at machine precision without any special casing.  Each refinement
level halves the trapezoidal step in t and reuses all previously evaluated
nodes; for smooth or endpoint-singular integrands the number of correct
digits roughly doubles per level.

Integrands must be vectorized: they receive a 1-D numpy array of abscissas
and return either a same-length array or an (m, n) matrix for m integrands
sharing the same nodes (the batch form is what the kernel module uses to
evaluate one integral at many outer arguments at once).

Exponent range: node offsets below ~1e-300 are discarded, so singularities
t**(alpha-1) are handled at full accuracy for alpha down to roughly 0.05.

Every rule works to the fixed tolerances below.  integrate_zero_to_inf is
the one (0, inf) entry; it raises rather than return an unconverged value.
Every rule, scalar or batch, reads one node table per interval and level,
built from the t-grid in one cached step (_xw) and kept read-only, so an
integrand that writes to its nodes fails instead of corrupting them.  A NaN integrand is a QuadratureError, an
infinite one an OverflowError, naming the node; each level scans the
integrand only when a row sum is not finite.  A row whose sum overflows
although every integrand value is finite never converges, so
integrate_zero_to_inf raises a QuadratureError for it.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_zero_to_inf",
]

# relative tolerance on each integral, and an absolute floor for near-zero ones
REL_TOL = 1e-12
ABS_FLOOR = 1e-300
# cap on trapezoidal refinements (level 0 has step 1 in t)
MAX_LEVELS = 12
# (0, inf) integrals are cut into (0, s) + (s, inf) here
SPLIT_POINT = 1.0

# |t| range of the trapezoidal grid.  Offsets underflow past ~6.1 anyway.
_T_MAX = 6.5
_LEVEL0_H = 1.0
# smallest admissible node offset from a finite endpoint (see module docstring)
_MIN_OFFSET = 1e-300


class QuadratureError(RuntimeError):
    """Hard quadrature failure (NaN from the integrand, bad interval)."""


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate from the last refinement (per-row
    arrays from integrate_zero_to_inf)."""

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    levels_used: int
    converged: bool


@functools.cache
def _xw(a: float, b: float | None, level: int):
    """One level's (xs, ws) of (a, b) by tanh-sinh, or of (a, inf) by exp-sinh
    when b is None, built in one step from the t-grid points new at this
    level and kept read-only for every rule."""
    h = _LEVEL0_H / 2**level
    ts = np.arange(h, _T_MAX, h if level == 0 else 2.0 * h)
    if b is None:
        # both signs of t; level 0 adds t = 0.  Node at a + exp(u).
        ts = np.concatenate([[0.0] if level == 0 else [], ts, -ts])
        u = 0.5 * np.pi * np.sinh(ts)
        keep = (u > -700.0) & (u < 708.0)
        eu = np.exp(u[keep])
        xs, ws = a + eu, 0.5 * np.pi * np.cosh(ts[keep]) * eu
    else:
        # the node at +t sits at b - (b-a)*offset, its mirror at a + (b-a)*offset
        u = 0.5 * np.pi * np.sinh(ts)
        with np.errstate(over="ignore"):
            offset = 1.0 / (1.0 + np.exp(2.0 * u))
        sech = 2.0 * np.exp(-u) / (1.0 + np.exp(-2.0 * u))
        w = 0.25 * np.pi * np.cosh(ts) * sech * sech
        keep = offset > _MIN_OFFSET
        span, off, w = b - a, offset[keep], w[keep]
        # level 0 adds the midpoint, t = 0, ahead of the mirrored pairs
        mid = ([0.5 * (a + b)], [0.25 * np.pi]) if level == 0 else ([], [])
        xs = np.concatenate([mid[0], a + span * off, b - span * off])
        ws = span * np.concatenate([mid[1], w, w])
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


# ---------------------------------------------------------------------------
# level-refinement engine
# ---------------------------------------------------------------------------


def _run_levels(a: float, b: float | None, f):
    """Shared trapezoidal refinement loop over (a, b), or (a, inf) when b is None.

    _xw(a, b, level) holds the nodes/weights new at that level; the running
    value obeys I_l = I_{l-1}/2 + h_l * (new contributions).  Returns
    per-row (values, errors, levels used, converged), so that batched
    integrands (f returning an (m, n) matrix) work unchanged.
    """
    value = prev = err = None
    # underflow to 0 (and inf intermediates cancelling to 0) are routine on
    # the deepest nodes; only a non-finite *result* is an error
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for level in range(MAX_LEVELS):
            xs, ws = _xw(a, b, level)
            fx = np.atleast_2d(f(xs))
            contrib = fx @ ws
            # weights are positive: a non-finite entry makes its row sum so
            if not np.isfinite(contrib).all() and not np.isfinite(fx).all():
                where = np.argwhere(~np.isfinite(fx))[0]
                got = fx[tuple(where)]
                message = f"integrand returned {got!r} at x={xs[where[-1]]!r}"
                raise QuadratureError(message) if np.isnan(got) else OverflowError(message)
            h = _LEVEL0_H / 2**level
            value = h * contrib if level == 0 else 0.5 * value + h * contrib
            if level >= 2:
                err = np.abs(value - prev)
                tol = np.maximum(REL_TOL * np.abs(value), ABS_FLOOR)
                # a row sum that overflowed makes tol inf, which an inf err would meet
                if (err <= tol).all() and np.isfinite(value).all():
                    return value, err, level + 1, True
            prev = value
    return value, err, MAX_LEVELS, False


def integrate_finite(f: Callable, a: float, b: float) -> QuadResult:
    """Integrate f over (a, b) with the tanh-sinh rule.

    f must accept a read-only numpy array of abscissas.  Endpoint
    singularities of integrable algebraic order converge without special
    treatment; NaN from the integrand is a hard error naming the abscissa,
    inf an OverflowError.  If the tolerance is not met within MAX_LEVELS the
    result is returned with converged=False and the caller decides.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    if a > b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    value, err, levels, ok = _run_levels(a, b, f)
    return QuadResult(float(value[0]), float(err[0]), levels, ok)


def integrate_semi_infinite(f: Callable, a: float) -> QuadResult:
    """Integrate f over (a, inf) with the exp-sinh rule.

    Assumes f decays at least exponentially (true of every kernel here:
    they all contain 1/sinh, 1/cosh, or exp(-x t)).
    """
    value, err, levels, ok = _run_levels(a, None, f)
    return QuadResult(float(value[0]), float(err[0]), levels, ok)


def integrate_zero_to_inf(f: Callable) -> QuadResult:
    """Integrate f over (0, inf): tanh-sinh on (0, SPLIT_POINT) plus exp-sinh
    on (SPLIT_POINT, inf).  f may return (n,) or (m, n); value and
    err_estimate have shape (m,).  Raises QuadratureError when a row misses
    the tolerance on either part, or in its summed error.
    """
    v1, e1, l1, ok1 = integrate_finite_batch(f, 0.0, SPLIT_POINT)
    v2, e2, l2, ok2 = integrate_semi_infinite_batch(f, SPLIT_POINT)
    value = v1 + v2
    err = e1 + e2
    tol = np.maximum(REL_TOL * np.abs(value), ABS_FLOOR)
    if not (ok1 and ok2 and (err <= tol).all()):
        row = int(np.argmax(err / tol))
        raise QuadratureError(
            f"half-line integral did not converge: value={value[row]}, "
            f"err={err[row]} (row {row} of {len(value)})"
        )
    return QuadResult(value, err, max(l1, l2), True)


# ---------------------------------------------------------------------------
# batch variants: one shared t-integrand evaluated against many x-kernels
# ---------------------------------------------------------------------------


def integrate_finite_batch(fmat: Callable, a: float, b: float):
    """Like integrate_finite for fmat returning an (m, n) matrix of integrands,
    refined until every row meets the tolerance.  Returns (values, errors,
    levels used, converged), values and errors of shape (m,)."""
    return _run_levels(a, b, fmat)


def integrate_semi_infinite_batch(fmat: Callable, a: float):
    """Batch counterpart of integrate_semi_infinite."""
    return _run_levels(a, None, fmat)
