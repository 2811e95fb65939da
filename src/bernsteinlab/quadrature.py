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

integrate_zero_to_inf is the one scalar (0, inf) entry; it raises rather than
return an unconverged value.  Other modules integrate with DEFAULT_CONFIG.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_zero_to_inf",
]

# |t| range of the trapezoidal grid.  Offsets underflow past ~6.1 anyway.
_T_MAX = 6.5
_LEVEL0_H = 1.0
# smallest admissible node offset from a finite endpoint (see module docstring)
_MIN_OFFSET = 1e-300


class QuadratureError(RuntimeError):
    """Hard quadrature failure (NaN from the integrand, bad interval)."""


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and refinement limits for the adaptive rules.

    rel_tol     relative tolerance on the integral value
    abs_floor   absolute tolerance floor (protects near-zero integrals)
    max_levels  cap on trapezoidal refinements (level 0 has step 1 in t)
    split_point where (0, inf) integrals are cut into (0, s) + (s, inf)
    """

    rel_tol: float = 1e-12
    abs_floor: float = 1e-300
    max_levels: int = 12
    split_point: float = 1.0

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.abs_floor < 0.0:
            raise ValueError("abs_floor must be >= 0")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if not self.split_point > 0.0:
            raise ValueError("split_point must be positive")


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate from the last refinement."""

    value: float
    err_estimate: float
    levels_used: int
    converged: bool


DEFAULT_CONFIG = QuadConfig()

# ---------------------------------------------------------------------------
# node tables, cached per refinement level (independent of the interval)
# ---------------------------------------------------------------------------

_TS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_ES_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _level_ts(level: int) -> np.ndarray:
    """Positive t-grid points that are new at this level (t=0 handled apart)."""
    h = _LEVEL0_H / 2**level
    if level == 0:
        return np.arange(h, _T_MAX, h)
    return np.arange(h, _T_MAX, 2.0 * h)


def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(offset, weight) pairs for t > 0, as fractions of the interval length.

    A node at +t sits at b - (b-a)*offset, its mirror at a + (b-a)*offset;
    both carry the same weight.
    """
    got = _TS_CACHE.get(level)
    if got is None:
        ts = _level_ts(level)
        u = 0.5 * np.pi * np.sinh(ts)
        with np.errstate(over="ignore"):
            offset = 1.0 / (1.0 + np.exp(2.0 * u))
        sech = 2.0 * np.exp(-u) / (1.0 + np.exp(-2.0 * u))
        w = 0.25 * np.pi * np.cosh(ts) * sech * sech
        keep = offset > _MIN_OFFSET
        got = (offset[keep], w[keep])
        _TS_CACHE[level] = got
    return got


def _exp_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp(u), weight) pairs covering both signs of t (node at a + exp(u))."""
    got = _ES_CACHE.get(level)
    if got is None:
        pos = _level_ts(level)
        ts = np.concatenate([[0.0], pos, -pos]) if level == 0 else np.concatenate([pos, -pos])
        u = 0.5 * np.pi * np.sinh(ts)
        keep = (u > -700.0) & (u < 708.0)
        eu = np.exp(u[keep])
        w = 0.5 * np.pi * np.cosh(ts[keep]) * eu
        got = (eu, w)
        _ES_CACHE[level] = got
    return got


# ---------------------------------------------------------------------------
# level-refinement engine
# ---------------------------------------------------------------------------


def _run_levels(make_xw, f, cfg: QuadConfig):
    """Shared trapezoidal refinement loop.

    make_xw(level) yields the nodes/weights new at that level; the running
    value obeys I_l = I_{l-1}/2 + h_l * (new contributions).  Returns vectors
    so that batched integrands (f returning an (m, n) matrix) work unchanged.
    """
    value = prev = err = None
    for level in range(cfg.max_levels):
        xs, ws = make_xw(level)
        # underflow to 0 (and inf intermediates cancelling to 0) are routine on
        # the deepest nodes; only a non-finite *result* is an error
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            fx = np.atleast_2d(f(xs))
        bad = ~np.isfinite(fx)
        if bad.any():
            where = np.argwhere(bad)[0]
            raise QuadratureError(
                f"integrand returned {fx[tuple(where)]!r} at x={xs[where[-1]]!r}"
            )
        h = _LEVEL0_H / 2**level
        contrib = fx @ ws
        value = h * contrib if level == 0 else 0.5 * value + h * contrib
        if level >= 2:
            err = np.abs(value - prev)
            tol = np.maximum(cfg.rel_tol * np.abs(value), cfg.abs_floor)
            if (err <= tol).all():
                return value, err, level + 1, True
        prev = value
    if err is None:
        err = np.full_like(np.atleast_1d(value), np.inf)
    return value, err, cfg.max_levels, False


def _finite_xw(a: float, b: float):
    span = b - a
    mid = 0.5 * (a + b)

    def make(level: int):
        off, w = _tanh_sinh_nodes(level)
        xs_hi = b - span * off
        xs_lo = a + span * off
        if level == 0:
            xs = np.concatenate([[mid], xs_lo, xs_hi])
            ws = span * np.concatenate([[0.25 * np.pi], w, w])
        else:
            xs = np.concatenate([xs_lo, xs_hi])
            ws = span * np.concatenate([w, w])
        return xs, ws

    return make


def _semi_xw(a: float):
    def make(level: int):
        eu, w = _exp_sinh_nodes(level)
        return a + eu, w

    return make


def integrate_finite(f: Callable, a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integrate f over (a, b) with the tanh-sinh rule.

    f must accept a numpy array of abscissas.  Endpoint singularities of
    integrable algebraic order converge without special treatment; NaN or
    inf from the integrand is a hard error naming the abscissa.  If the
    tolerance is not met within cfg.max_levels the result is returned with
    converged=False and the caller decides.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    if a > b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    value, err, levels, ok = _run_levels(_finite_xw(a, b), f, cfg)
    return QuadResult(float(value[0]), float(err[0]), levels, ok)


def integrate_semi_infinite(f: Callable, a: float, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integrate f over (a, inf) with the exp-sinh rule.

    Assumes f decays at least exponentially (true of every kernel here:
    they all contain 1/sinh, 1/cosh, or exp(-x t)).
    """
    value, err, levels, ok = _run_levels(_semi_xw(a), f, cfg)
    return QuadResult(float(value[0]), float(err[0]), levels, ok)


def integrate_zero_to_inf(f: Callable, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integrate f over (0, inf): tanh-sinh on (0, s) plus exp-sinh on (s, inf).

    Raises QuadratureError when either part, or the summed error, misses cfg.
    """
    r1 = integrate_finite(f, 0.0, cfg.split_point, cfg)
    r2 = integrate_semi_infinite(f, cfg.split_point, cfg)
    value = r1.value + r2.value
    err = r1.err_estimate + r2.err_estimate
    if not (
        r1.converged
        and r2.converged
        and err <= max(cfg.rel_tol * abs(value), cfg.abs_floor)
    ):
        raise QuadratureError(
            f"half-line integral did not converge: value={value!r}, err={err!r}"
        )
    return QuadResult(value, err, max(r1.levels_used, r2.levels_used), True)


# ---------------------------------------------------------------------------
# batch variants: one shared t-integrand evaluated against many x-kernels
# ---------------------------------------------------------------------------


def integrate_finite_batch(fmat: Callable, a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG):
    """Like integrate_finite for fmat returning an (m, n) matrix of integrands.

    Refinement stops when every row meets the tolerance.  Returns
    (values, converged) with values of shape (m,).
    """
    values, _err, _levels, ok = _run_levels(_finite_xw(a, b), fmat, cfg)
    return np.atleast_1d(values), ok


def integrate_semi_infinite_batch(fmat: Callable, a: float, cfg: QuadConfig = DEFAULT_CONFIG):
    """Batch counterpart of integrate_semi_infinite."""
    values, _err, _levels, ok = _run_levels(_semi_xw(a), fmat, cfg)
    return np.atleast_1d(values), ok
