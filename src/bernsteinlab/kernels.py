"""Half-line integral kernels for |x|^alpha approximation, closed-form
L1/L2 best-approximation constants, sup-norm searches on [0, inf), and the
lobe abscissa beta(alpha) where the search for sup |H| starts.

All members of the family are integrals over t in (0, inf):

    H  (a, x) = sin(x) * J(a, x)         J(a, x) = int t^a/sinh(t) * x/(x^2+t^2) dt
    H1 (a, x) = J(a, x)                  envelope of |H|
    H2 (a, x) = x * J(a, x)
    F  (a, x) = int t^a / sinh(x t) * 1/(1+t^2) dt
    G  (a, x) = int t^a exp(-x t) * 1/(1+t^2) dt
    R  (a, x) = (x/a) F(a+1, x) - F(a, x)
    S  (a, x) = (a x^(a-1)/2) (x^2 + a^2) R(a, x)
    F1 (a, x) = (2 - 2^-a)     zeta(a+1) G(a, x)     lower bound on F
    F2 (a, x) = (2 - 2^-(a-2)) zeta(a-1) G(a, x)     upper bound on F, a > 2
    A0 (a, x) = int t^(a-1)/cosh(t) * x^2/(x^2+t^2) dt

plus the constants C(a) = int t^a/sinh(t) dt and D(a) = int t^(a-1)/cosh(t) dt.

Integrands are evaluated in the log-stable forms

    t^a/sinh t     = exp(a log t - t) * 2/(-expm1(-2t))
    t^a/cosh t     = exp(a log t - t) * 2/(1 + exp(-2t))
    t^a/sinh(x t)  = exp(a log t - x t) * 2/(-expm1(-2 x t))
    t^a e^(-x t)   = exp(a log t - x t)

so nothing overflows on the exp-sinh tail nodes, even for a = 80; a value
itself past the double range (F(80, 1e-3) ~ 1e352) raises OverflowError.

J, A0, F and G are integrated as (x, t) matrices, 512 x per call of
quadrature.integrate_zero_to_inf, each built in place (out=) in the order of
the expression in its docstring, so bit for bit equal to it.  alpha is one
float for all rows, or one per row beside x.  The factors that depend on the
nodes alone (log t, t*t, 1 + t*t, -expm1(-2t), 1 + exp(-2t)) are computed
once per cached node table, and the row t^a/sinh t or t^a/cosh t once per
table and alpha.  The other kinds combine the four: one path, kernel_values,
serves every kind, and it alone holds the limits at x = 0 (0 for H, H2 and
A0; pi/2 for H1 at alpha = 1, 0 above); kernel_eval is one of its points.
"""

import math
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from . import specfun
from ._search import refine_grid_maxima
from .quadrature import integrate_zero_to_inf

__all__ = [
    "KernelKind",
    "SupNormReport",
    "C_const",
    "D_const",
    "kernel_eval",
    "kernel_values",
    "sup_norm_H",
    "sup_norm_H1",
    "beta_point",
    "delta_1_closed",
    "delta_2_closed",
]


class KernelKind(Enum):
    H = "H"
    H1 = "H1"
    H2 = "H2"
    F = "F"
    G = "G"
    R = "R"
    S = "S"
    F1 = "F1"
    F2 = "F2"
    A0 = "A0"


_BATCH_CHUNK = 512


# ---------------------------------------------------------------------------
# stable t-integrands
# ---------------------------------------------------------------------------


class _Nodes:
    """The node-only factors of one node row t, and in rows, per denominator,
    the row exp(alpha log t - t) * 2 / den of the last scalar alpha."""

    __slots__ = ("log_t", "t_sq", "one_plus_t_sq", "sinh_den", "cosh_den", "rows")

    def __init__(self, t):
        self.log_t = np.log(t)
        self.t_sq = t * t
        self.one_plus_t_sq = 1.0 + self.t_sq
        self.sinh_den = -np.expm1(-2.0 * t)
        self.cosh_den = 1.0 + np.exp(-2.0 * t)
        for factor in (self.log_t, self.t_sq, self.one_plus_t_sq, self.sinh_den, self.cosh_den):
            factor.flags.writeable = False  # shared by every integrand on t
        self.rows = {}


# the factors of each node row by id: the quadrature's cached read-only level
# tables, which live as long as the process; an entry goes with its row
_NODES: dict[int, _Nodes] = {}


def _nodes(t) -> _Nodes:
    """The factors of the read-only node row t, computed once per row."""
    got = _NODES.get(id(t))
    if got is None:
        got = _NODES[id(t)] = _Nodes(t)
        weakref.finalize(t, _NODES.pop, id(t), None)
    return got


def _pow_over(den: str, alpha, t):
    """exp(alpha log t - t) * 2 / den, den "sinh_den" or "cosh_den": a row for
    a scalar alpha, kept with t's factors until alpha changes; a matrix for
    an (m, 1) column of alphas."""
    nodes = _nodes(t)
    scalar = np.ndim(alpha) == 0
    if scalar:
        got = nodes.rows.get(den)
        if got is not None and got[0] == alpha:
            return got[1]
    out = np.multiply(alpha, nodes.log_t)
    out -= t
    np.exp(out, out=out)
    out *= 2.0
    out /= getattr(nodes, den)
    if scalar:
        out.flags.writeable = False
        nodes.rows[den] = (alpha, out)
    return out


def _pow_over_sinh(alpha, t):
    """t^alpha / sinh t = exp(alpha log t - t) * 2 / (-expm1(-2 t))"""
    return _pow_over("sinh_den", alpha, t)


def _pow_over_cosh(alpha, t):
    """t^alpha / cosh t = exp(alpha log t - t) * 2 / (1 + exp(-2 t))"""
    return _pow_over("cosh_den", alpha, t)


def _require_alpha(alpha, low: float, kind: str):
    """alpha, a float or an array, finite and > low; the first entry that is
    not is named."""
    a = np.ravel(alpha)
    ok = (low < a) & (a < math.inf)
    if not ok.all():
        raise ValueError(f"{kind} requires finite alpha > {low}, got {a[np.argmin(ok)]}")


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def C_const(alpha: float) -> float:
    """C(alpha) = int_0^inf t^alpha / sinh(t) dt, alpha > 0."""
    _require_alpha(alpha, 0.0, "C_const")
    return float(integrate_zero_to_inf(lambda t: _pow_over_sinh(alpha, t)).value[0])


def D_const(alpha: float) -> float:
    """D(alpha) = int_0^inf t^(alpha-1) / cosh(t) dt, alpha > 0."""
    _require_alpha(alpha, 0.0, "D_const")
    return float(integrate_zero_to_inf(lambda t: _pow_over_cosh(alpha - 1.0, t)).value[0])


# ---------------------------------------------------------------------------
# batched evaluation, one path for every kind
# ---------------------------------------------------------------------------


def _batched_family(fmat, alpha, xs: np.ndarray) -> np.ndarray:
    """int_0^inf fmat(alpha, x, t) dt for every x in xs, _BATCH_CHUNK rows per
    call; fmat gets x as an (m, 1) column and t as an (n,) row, and alpha as
    it is when a scalar, else as the (m, 1) column of its rows beside x."""
    out = np.empty(len(xs))
    for lo in range(0, len(xs), _BATCH_CHUNK):
        rows = slice(lo, lo + _BATCH_CHUNK)
        a = alpha if np.ndim(alpha) == 0 else alpha[rows, None]
        chunk = xs[rows, None]
        out[rows] = integrate_zero_to_inf(lambda t: fmat(a, chunk, t)).value
    return out


def _J_mat(alpha, x, t):
    """_pow_over_sinh(alpha, t) * (x / (x * x + t * t))"""
    out = np.add(x * x, _nodes(t).t_sq)
    return np.multiply(_pow_over_sinh(alpha, t), np.divide(x, out, out=out), out=out)


def _A0_mat(alpha, x, t):
    """_pow_over_cosh(alpha - 1.0, t) * (x * x / (x * x + t * t))"""
    xx = x * x
    out = np.add(xx, _nodes(t).t_sq)
    return np.multiply(_pow_over_cosh(alpha - 1.0, t), np.divide(xx, out, out=out), out=out)


def _F_mat(alpha, x, t):
    """np.exp(alpha * np.log(t) - xt) * 2.0 / (-np.expm1(-2.0 * xt)) / (1.0 + t * t), xt = x * t"""
    nodes = _nodes(t)
    xt = np.multiply(x, t)
    out = np.subtract(np.multiply(alpha, nodes.log_t), xt)
    np.multiply(np.exp(out, out=out), 2.0, out=out)
    np.negative(np.expm1(np.multiply(-2.0, xt, out=xt), out=xt), out=xt)
    return np.divide(np.divide(out, xt, out=out), nodes.one_plus_t_sq, out=out)


def _G_mat(alpha, x, t):
    """np.exp(alpha * np.log(t) - x * t) / (1.0 + t * t)"""
    nodes = _nodes(t)
    out = np.multiply(x, t)
    np.exp(np.subtract(np.multiply(alpha, nodes.log_t), out, out=out), out=out)
    return np.divide(out, nodes.one_plus_t_sq, out=out)


_J_values = partial(_batched_family, _J_mat)
_A0_values = partial(_batched_family, _A0_mat)
_F_values = partial(_batched_family, _F_mat)
_G_values = partial(_batched_family, _G_mat)


def _R_values(a, x: np.ndarray) -> np.ndarray:
    return (x / a) * _F_values(a + 1.0, x) - _F_values(a, x)


def _per_alpha(f, a, x: np.ndarray):
    """f(a, x) for a scalar a; for an array, f(v, x[a == v]) for each distinct
    v, so that every row gets the scalar call's bits (numpy rounds 2.0**-a,
    and x**e at e = 2, 0.5 or -1, differently for an array)."""
    if np.ndim(a) == 0:
        return f(a, x)
    out = np.empty(x.shape)
    for v in np.unique(a).tolist():
        rows = a == v
        out[rows] = f(v, x[rows])
    return out


# kind -> values at finite x > 0, for alpha a float or an array beside x
_VALUES = {
    KernelKind.H: lambda a, x: np.sin(x) * _J_values(a, x),
    KernelKind.H1: _J_values,
    KernelKind.H2: lambda a, x: x * _J_values(a, x),
    KernelKind.F: _F_values,
    KernelKind.G: _G_values,
    KernelKind.R: _R_values,
    KernelKind.S: lambda a, x: (
        _per_alpha(lambda v, x: 0.5 * v * x ** (v - 1.0) * (x * x + v * v), a, x) * _R_values(a, x)
    ),
    KernelKind.F1: lambda a, x: (
        _per_alpha(lambda v, _: (2.0 - 2.0**-v) * specfun.zeta(v + 1.0), a, x) * _G_values(a, x)
    ),
    KernelKind.F2: lambda a, x: (
        _per_alpha(lambda v, _: (2.0 - 2.0 ** -(v - 2.0)) * specfun.zeta(v - 1.0), a, x)
        * _G_values(a, x)
    ),
    KernelKind.A0: _A0_values,
}


def _require_kind_alpha(kind: KernelKind, alpha):
    _require_alpha(alpha, 2.0 if kind is KernelKind.F2 else 0.0, kind.value)


def _values(kind: KernelKind, alpha, xs: np.ndarray) -> np.ndarray:
    """The kind at every x of a checked 1-D array of finite x > 0, with alpha
    checked and a float or an array of the shape of xs."""
    try:
        return _VALUES[kind](alpha, xs)
    except OverflowError:
        at = f"x={xs[0]}" if len(xs) == 1 else f"some x in [{xs.min()}, {xs.max()}]"
        alpha = alpha if np.ndim(alpha) == 0 else f"some alpha in [{alpha.min()}, {alpha.max()}]"
        raise OverflowError(
            f"kernel {kind.value} at alpha={alpha} and {at} exceeds the double range"
        ) from None


def _kernel_values(kind, alpha, x) -> np.ndarray:
    """kernel_values, which kernel_eval calls by this name so that perfbench's
    tracer counts no kernel_values point for it."""
    kind = KernelKind(kind)
    x = np.asarray(x, dtype=float)
    shape = x.shape
    if np.ndim(alpha) != 0:
        alpha = np.asarray(alpha, dtype=float)
        try:
            shape = np.broadcast_shapes(alpha.shape, x.shape)
        except ValueError:
            raise ValueError(
                f"alpha of shape {alpha.shape} does not broadcast against x of shape {x.shape}"
            ) from None
        alpha = np.broadcast_to(alpha, shape).ravel()
    _require_kind_alpha(kind, alpha)
    xs = np.broadcast_to(x, shape).ravel()
    ok = (0.0 <= xs) & (xs < math.inf)
    if not ok.all():
        raise ValueError(f"kernel {kind.value} requires finite x >= 0, got {xs[np.argmin(ok)]}")
    out = np.zeros(len(xs))  # the limit at x = 0 of H, H2, A0, and H1 at alpha > 1
    zero, rest = xs == 0.0, xs != 0.0
    if zero.any():
        if kind not in (KernelKind.H, KernelKind.H1, KernelKind.H2, KernelKind.A0):
            raise ValueError(f"kernel {kind.value} requires x > 0")
        a = np.broadcast_to(alpha, xs.shape)
        if kind is KernelKind.H1:
            if (a[zero] < 1.0).any():
                raise ValueError(f"H1(alpha, 0) diverges for alpha < 1 (alpha={a[zero].min()})")
            out[zero & (a == 1.0)] = 0.5 * math.pi
    if rest.any():
        out[rest] = _values(kind, alpha if np.ndim(alpha) == 0 else alpha[rest], xs[rest])
    return out.reshape(shape)


def kernel_values(kind, alpha, x) -> np.ndarray:
    """The kind at every (alpha, x): alpha a float or an array that broadcasts
    against x, x of any shape (0-d included) and finite >= 0; the result has
    the broadcast shape.  x = 0 takes the limits, row by row for an array
    alpha: 0 for H, H2 and A0, pi/2 for H1 at alpha = 1 and 0 above; H1 at
    alpha < 1 and the other kinds raise there.  The x > 0 share the
    quadrature nodes, 512 at a time, with the bits of a call without zeros."""
    return _kernel_values(kind, alpha, x)


def kernel_eval(kind, alpha: float, x: float) -> float:
    """One point of kernel_values, for a scalar alpha and x, x = 0 and its
    limits included."""
    if np.ndim(alpha) != 0 or np.ndim(x) != 0:
        raise ValueError("kernel_eval takes a scalar alpha and x; kernel_values takes arrays")
    return float(_kernel_values(kind, alpha, x))


# ---------------------------------------------------------------------------
# closed-form best-approximation constants (L1, L2)
# ---------------------------------------------------------------------------


def delta_1_closed(alpha: float) -> float:
    """L1 constant: |sin(pi a/2)|/pi * 8 Gamma(a+1) * sum (-1)^n (1+2n)^-(a+2)."""
    _require_alpha(alpha, -1.0, "delta_1_closed")
    return (
        abs(math.sin(0.5 * math.pi * alpha))
        / math.pi
        * 8.0
        * specfun.gamma(alpha + 1.0)
        * specfun.alternating_odd_sum(alpha)
    )


def delta_2_closed(alpha: float) -> float:
    """L2 constant: |sin(pi a/2)|/pi * 2 Gamma(a+1) * sqrt(pi/(2a+1))."""
    _require_alpha(alpha, -0.5, "delta_2_closed")
    return (
        abs(math.sin(0.5 * math.pi * alpha))
        / math.pi
        * 2.0
        * specfun.gamma(alpha + 1.0)
        * math.sqrt(math.pi / (2.0 * alpha + 1.0))
    )


# ---------------------------------------------------------------------------
# sup norms over [0, inf)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupNormReport:
    """Supremum of a kernel over [0, inf) with certification data.

    The search is truncated at truncation_X; tail_bound dominates the
    function beyond that point (both H and H1 are bounded by C(alpha)/x),
    and the report is only valid when tail_bound < norm.
    """

    norm: float
    argmax: float
    truncation_X: float
    tail_bound: float
    local_maxima: list = field(default_factory=list)

    def __post_init__(self):
        if not self.tail_bound < self.norm:
            raise ValueError(
                f"uncertified sup norm: tail bound {self.tail_bound} >= norm {self.norm}"
            )
        peak = max(v for _, v in self.local_maxima)
        if self.norm != peak:
            raise ValueError("norm must equal the largest local maximum")


_PERIOD_GRID = 8  # coarse points per half-period before golden refinement


def beta_point(alpha: float) -> float:
    """beta(alpha) = pi * floor(alpha/pi) + 3 pi/2.

    The abscissa of the first or second lobe of |H(alpha, .)| to the right
    of alpha where |sin| = 1; satisfies alpha + pi/2 < beta <= alpha + 3 pi/2.
    """
    _require_alpha(alpha, 0.0, "beta_point")
    return math.pi * math.floor(alpha / math.pi) + 1.5 * math.pi


def _certified_sup(name: str, alpha: float, f, grid, x_cut: float, xtol: float) -> SupNormReport:
    """sup over [0, inf) of f(alpha, .) >= 0, which is bounded by C(alpha)/x.

    f(alpha, x) takes an array x; grid(lo, hi) gives the scan points of (lo, hi].
    The grid maxima of (0, x_cut] are polished in one refine_grid_maxima call,
    then x_cut doubles, scanning only the new part, until C(alpha)/x_cut < norm/2.
    """
    c = C_const(alpha)
    maxima: list = []
    lo = 0.0
    for _ in range(40):
        xs = grid(lo, x_cut)
        x, v = refine_grid_maxima(lambda x: f(alpha, x), xs, f(alpha, xs), xtol)
        maxima.extend(zip(x.tolist(), v.tolist()))
        argmax, norm = max(maxima, key=lambda p: p[1])
        if c / x_cut < 0.5 * norm:
            return SupNormReport(norm, argmax, x_cut, c / x_cut, maxima)
        lo, x_cut = x_cut, 2.0 * x_cut
    raise RuntimeError(f"{name} horizon did not certify for alpha={alpha}")


def sup_norm_H(alpha: float) -> SupNormReport:
    """sup over [0, inf) of |H(alpha, .)| = |sin(x)| * H1(alpha, x).

    |H| vanishes at every multiple of pi, so the grid holds _PERIOD_GRID
    points inside each period [k pi, (k+1) pi], and the polish brackets one
    lobe's maximum by its grid neighbours.  The horizon starts at
    max(alpha, beta(alpha)) + 10 pi, rounded up to a multiple of pi.
    """
    _require_alpha(alpha, 0.0, "sup_norm_H")

    def grid(lo, hi):
        ks = np.arange(round(lo / math.pi), round(hi / math.pi))[:, None]
        return ((ks + np.arange(1, _PERIOD_GRID + 1) / (_PERIOD_GRID + 1.0)) * math.pi).ravel()

    def abs_H(a, x):
        return np.abs(np.sin(x)) * _J_values(a, x)

    x_cut = math.ceil((max(alpha, beta_point(alpha)) + 10.0 * math.pi) / math.pi) * math.pi
    return _certified_sup("sup_norm_H", alpha, abs_H, grid, x_cut, xtol=1e-5)


def sup_norm_H1(alpha: float) -> SupNormReport:
    """sup over [0, inf) of the envelope H1(alpha, .), for alpha > 1.

    For alpha <= 1 the envelope is unbounded (or attains its sup at 0) and
    the domain is rejected.  The horizon starts at alpha + 20 pi, scanned at
    600 points, and each doubling adds 300.
    """
    _require_alpha(alpha, 1.0, "sup_norm_H1")

    def grid(lo, hi):
        return np.linspace(lo, hi, 301 if lo else 601)[1:]

    return _certified_sup("sup_norm_H1", alpha, _J_values, grid, alpha + 20.0 * math.pi, xtol=1e-6)
