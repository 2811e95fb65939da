"""Half-line integral kernels for |x|^alpha approximation, closed-form
L1/L2 best-approximation constants, sup-norm searches on [0, inf), and the
lobe abscissa beta(alpha) where the search for sup |H| starts.

Every kind is a power of x times I(a, x) = int_0^inf p(t) x/(x^2+t^2) dt
under one of three weights p (the substitution u = x t brings F and G here):

    H1 (a, x) = J(a, x) = I_sinh(a, x)     p = t^a/sinh t; H1 is the envelope of |H|
    H  (a, x) = sin(x) * J(a, x)
    H2 (a, x) = x * J(a, x)
    A0 (a, x) = x * I_cosh(a, x)            p = t^(a-1)/cosh t
    F  (a, x) = x^-a I_sinh(a, x)           = int t^a/sinh(x t) * 1/(1+t^2) dt
    G  (a, x) = x^-a I_exp(a, x)            = int t^a exp(-x t) * 1/(1+t^2) dt, p = t^a e^-t
    R  (a, x) = (x/a) F(a+1, x) - F(a, x)   = x^-a (I_sinh(a+1, x)/a - I_sinh(a, x))
    S  (a, x) = (a x^(a-1)/2) (x^2 + a^2) R(a, x) = (a/2) (x + a^2/x) (I_sinh(a+1, x)/a - I_sinh(a, x))
    F1 (a, x) = (2 - 2^-a)     zeta(a+1) G(a, x)     lower bound on F
    F2 (a, x) = (2 - 2^-(a-2)) zeta(a-1) G(a, x)     upper bound on F, a > 2

plus the constants C(a) = int t^a/sinh(t) dt and D(a) = int t^(a-1)/cosh(t) dt.

The weights are evaluated over t0^e as exp(e log(t/t0) - t) * 2/d, e = a or
a - 1, d = -expm1(-2t), 1 + exp(-2t) or 2, t0 = 1 below alpha = 150 and a/e
from there, so that no sum overflows.  Every kind and constant takes t0^e
back in one checked product, _times: t0^e (times sin x for H, x for H2 and
A0), (x/t0)^-a for F, G and R, or S's factor.  C_const and the sup norms are
doubles up to alpha = 170.489 (D_const to 171.489); past that
QuadratureOverflowError names the function.

One path, kernel_values, serves every kind and holds the limits at x = 0;
kernel_eval is one of its points.  The one integrand is K = x/(x^2+t^2),
built in place (_J_mat), 512 x per quadrature.integrate_zero_to_inf call.
A float alpha (or an array of one value) carries p in the weights of the
quadrature's pick, the read-only (t, p w) of the nodes whose terms can
reach 2^-60 of a row's sum (_keep_mask), kept per level table and weight;
C and D integrate 1 on them.  J and A0 go through distinct alphas one at a
time; F and G keep one alpha per row, a column of p times _J_mat over every
node.  R and S take I_sinh(a+1) as t times the weight at a, both integrals
on every node, so that they share the rounding of p, which their difference
magnifies.  Past x = 1.34e154, where x * x overflows, I = P(a)/x with P =
int p (C, D or Gamma(a+1)), and x I = P.  An integral below 1e-288
(ABS_FLOOR / REL_TOL), where the quadrature certifies only its absolute
floor, and a factor times an integral that is not a normal double (the
factor applied in halves, so never a power alone) raise OverflowError.
"""

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from . import quadrature, specfun
from ._search import refine_grid_maxima
from .quadrature import QuadratureOverflowError, integrate_zero_to_inf

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
# the three weights and their picks
# ---------------------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


# log t and the denominators d of the three weights, the rows of _factors
_ROWS = (np.log, lambda t: -np.expm1(-2.0 * t), lambda t: 1.0 + np.exp(-2.0 * t), lambda t: 0.0 * t + 2.0)


@lru_cache(maxsize=128)
def _factors(a: float, b: float | None, level: int):
    """The _ROWS of the nodes of the level table quadrature._xw(a, b, level),
    as one read-only array, computed once per table."""
    t = quadrature._xw(a, b, level)[0]
    return _read_only(np.stack([row(t) for row in _ROWS]))


# the weights p(t) = t^tp t^(alpha + shift) e^-t 2/d(t), as (row of d in
# _factors, shift, tp): t^alpha/sinh t, t^(alpha-1)/cosh t, t^alpha e^-t, and
# t^(alpha+1)/sinh t as t times the sinh weight at alpha
_SINH, _COSH, _EXP, _TSINH = (1, 0.0, 0), (2, -1.0, 0), (3, 0.0, 0), (1, 0.0, 1)


def _weight(e, log_t, d, t):
    """exp(e log t - t) * 2.0 / d on the nodes t, for e a float or an (m, 1)
    column; built in place, so bit for bit that expression."""
    out = np.subtract(np.multiply(e, log_t), t)
    np.multiply(np.exp(out, out=out), 2.0, out=out)
    return np.divide(out, d, out=out)


# a node j is dropped when its term p_j w_j, times max(1, (t_k/t_j)^2), is at
# most this share of the peak term p_k w_k over the table's length
_DROP = 2.0**-60


def _keep_mask(pw, t):
    """The nodes of a table with nodes t and terms pw = p w whose term can
    move a sum of p(t) K(x, t) for any K >= 0 with K(x, t_j)/K(x, t_k) <=
    max(1, (t_k/t_j)^2), as a mask; every node where p w is not finite
    anywhere.  Called inside the quadrature's errstate, where t/t_k may
    underflow."""
    k = pw.argmax()  # the first nan if there is one, else the peak
    peak = float(pw[k])
    if not math.isfinite(peak):
        return np.ones(len(t), dtype=bool)
    # keep p_j w_j max(1, (t_k/t_j)^2) > _DROP p_k w_k / n, as
    # p_j w_j > _DROP p_k w_k / n * min(1, (t_j/t_k)^2), which cannot overflow
    keep = pw > np.minimum(np.square(t / t[k]), 1.0) * (_DROP * peak / len(t))
    keep[k] = True
    return keep


def _all_nodes(den: int, e: float, a: float, b: float | None, level: int, tp: int = 0, t0: float = 1.0):
    """(t, p w) on every node of the level table (t, w) = quadrature._xw(a,
    b, level), with p = t^tp _weight(e) over the row den of _factors, with
    log(t/t0) in place of log t."""
    t, w = quadrature._xw(a, b, level)
    factors = _factors(a, b, level)
    pw = _weight(e, factors[0] if t0 == 1.0 else np.log(t / t0), factors[den], t) * w
    return t, pw * t if tp else pw


@lru_cache(maxsize=256)
def _kept_nodes(den: int, e: float, a: float, b: float | None, level: int, tp: int = 0, t0: float = 1.0):
    """The pick for an integral of p(t) K(x, t), K as in _keep_mask: the
    read-only (t, p w) of _all_nodes at the nodes that can move the sum,
    computed once per table and weight."""
    t, pw = _all_nodes(den, e, a, b, level, tp, t0)
    keep = _keep_mask(pw, t)
    return _read_only(t[keep]), _read_only(pw[keep])


# from this alpha on, every weight is over t0^(alpha+shift), t0 = alpha/e, where
# t^alpha e^-t peaks; below it t^(alpha+2) e^-t stays under 1e266 and t0 = 1
_SCALE_FROM = 150.0


def _t0(alpha):
    """t0 at alpha, a float or an array; the float 1 if no alpha is scaled."""
    big = np.asarray(alpha) >= _SCALE_FROM
    return np.where(big, alpha / math.e, 1.0) if big.any() else 1.0


def _pick(weight, alpha: float, every_node: bool = False):
    """The quadrature's pick for the weight at alpha over t0^(alpha+shift), t0
    = _t0(alpha), times a K >= 0, given every_node on every node (alpha as a
    float, which the pick's cache can hold)."""
    den, shift, tp = weight
    nodes = _all_nodes if every_node else _kept_nodes
    return partial(nodes, den, float(alpha) + shift, tp=tp, t0=float(_t0(alpha)))


def _lift(weight, alpha):
    """h = t0^((alpha+shift)/2), h^2 the scale of the weight at alpha."""
    return _t0(alpha) ** (0.5 * (alpha + weight[1]))


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


def _raise_overflow(name: str, alpha, exc: OverflowError):
    """Raise the QuadratureOverflowError of name at alpha for exc, a
    quadrature sum or a value past the double range, or an inner named call's
    error for one; the first error is the cause, and the message repeats it."""
    cause = exc.__cause__ or exc
    raise QuadratureOverflowError(
        f"{name} at alpha={alpha}: the integrand overflows the double range ({cause})"
    ) from cause


def _weight_integral(weight, alpha: float) -> float:
    """P(alpha) = t0^-(alpha+shift) int_0^inf p(t) dt for the weight p at
    alpha, 1 integrated on its pick: the limit of x I(alpha, x)."""
    return float(integrate_zero_to_inf(lambda t: np.ones(len(t)), _pick(weight, alpha)).value[0])


def _constant(name: str, weight, alpha: float) -> float:
    """t0^(alpha+shift) P(alpha) = int_0^inf p(t) dt as name, alpha > 0."""
    _require_alpha(alpha, 0.0, name)
    try:
        with np.errstate(over="ignore"):
            return float(_times(_lift(weight, alpha), _weight_integral(weight, alpha)))
    except OverflowError as exc:
        _raise_overflow(name, alpha, exc)


def C_const(alpha: float) -> float:
    """C(alpha) = int_0^inf t^alpha / sinh(t) dt, 0 < alpha <= 170.489; above,
    C passes the double range and QuadratureOverflowError names C_const and
    alpha."""
    return _constant("C_const", _SINH, alpha)


def D_const(alpha: float) -> float:
    """D(alpha) = int_0^inf t^(alpha-1) / cosh(t) dt, 0 < alpha <= 171.489;
    above, QuadratureOverflowError names D_const and alpha, as for C_const."""
    return _constant("D_const", _COSH, alpha)


# ---------------------------------------------------------------------------
# batched evaluation, one path for every kind
# ---------------------------------------------------------------------------


def _J_mat(x, t):
    """x / (x * x + t * t)"""
    out = np.add(x * x, t * t)
    return np.divide(x, out, out=out)


def _over_t(a: float, b: float | None, level: int):
    """Every node of the level table with its weight over t: columns sum p t K
    against w/t, as p K ~ t^(alpha-1)/x can pass the double range."""
    t, w = quadrature._xw(a, b, level)
    return t, w / t


def _column_mat(weight, alpha, x, t, t0=1.0):
    """_J_mat(x, t) times the weight at alpha, over t0^(alpha+shift), times t (twice
    for tp = 1) on the nodes t, for alpha and t0 (m, 1) columns beside x (t0
    or a float); built in place."""
    den, shift, tp = weight
    p = _weight(alpha + shift, np.log(t / t0), _ROWS[den](t), t) * t
    k = _J_mat(x, t)
    k *= p * t if tp else p
    return k


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


# past this x, x * x overflows: the integrals take their limits there
_X_HUGE = math.sqrt(sys.float_info.max)


def _integral(weight, alpha, xs: np.ndarray, every_node=False, x_times=False) -> np.ndarray:
    """I(alpha, x) = t0^-(alpha+shift) int_0^inf p(t) x/(x^2+t^2) dt at every
    x in xs, p the weight at alpha: for a float alpha on its pick (every node
    given every_node), for an array as columns (_column_mat); past _X_HUGE,
    P/x, or given x_times P itself, where x (P/x) may miss it by an ulp.  A
    value below ABS_FLOOR / REL_TOL, which may read 0, is an OverflowError."""
    scalar = np.ndim(alpha) == 0
    t0 = 1.0 if scalar else _t0(alpha)  # a float alpha's t0 is in its pick
    out = np.empty(len(xs))
    huge = xs > _X_HUGE
    if huge.any():
        limit = lambda v, x: _weight_integral(weight, v) / (1.0 if x_times else x)  # noqa: E731
        out[huge] = _per_alpha(limit, alpha if scalar else alpha[huge], xs[huge])
    rows = np.flatnonzero(~huge)
    pick = _pick(weight, alpha, every_node) if scalar else _over_t
    for lo in range(0, len(rows), _BATCH_CHUNK):
        r = rows[lo : lo + _BATCH_CHUNK]
        x = xs[r, None]
        c = t0 if np.ndim(t0) == 0 else t0[r, None]
        f = partial(_J_mat, x) if scalar else partial(_column_mat, weight, alpha[r, None], x, t0=c)
        out[r] = integrate_zero_to_inf(f, pick).value
    if (out[rows] < quadrature.ABS_FLOOR / quadrature.REL_TOL).any():
        raise OverflowError
    return out


def _times(h, i, size=None, g=1.0):
    """(h i) (g h): i, an integral over t0^e or a difference of two, times
    h^2 g, with h^2 in halves, as it may pass the double range alone.
    OverflowError unless the value and h^2 g size (size = i) are normal."""
    v = h * i * (g * h)
    low = np.abs(v if size is None else h * size * (g * h))
    if not ((sys.float_info.min <= low) & (np.abs(v) < math.inf)).all():
        raise OverflowError("a factor times its integral is not a normal double")
    return v


def _power_h(a, x: np.ndarray):
    """h = (x/t0)^(-a/2), half of the factor x^-a t0^a of F, G and R."""
    return (x / _t0(a)) ** (-0.5 * a)


def _sinh_step(h, a, x: np.ndarray):
    """R or S: h^2 (I_sinh(a+1, x)/a - I_sinh(a, x)), on every node and
    I_sinh(a+1) as t times the weight at a, so that the two share the rounding
    of p; the difference comes first, as h^2 may take each term past range."""
    i1, i0 = (_integral(w, a, x, every_node=True) for w in (_TSINH, _SINH))
    return _times(h, i1 / a - i0, size=i0)


def _scaled(weight, a, x: np.ndarray, g=1.0, x_times=False):
    """t0^(a+shift) I(a, x) times g: H1, H given g = sin x, and H2 or A0
    given x_times, g = x there but 1 past _X_HUGE, where x I is P itself."""
    i = _per_alpha(partial(_integral, weight, x_times=x_times), a, x)
    return _times(_lift(weight, a), i, g=np.where(x > _X_HUGE, 1.0, x) if x_times else g)


def _times_G(c):
    """c(alpha) G(alpha, x): F1 and F2."""
    return lambda a, x: _times(1.0, _VALUES[KernelKind.G](a, x), g=_per_alpha(lambda v, _: c(v), a, x))


# kind -> values at finite x > 0, for alpha a float or an array beside x
_VALUES = {
    KernelKind.H: lambda a, x: _scaled(_SINH, a, x, np.sin(x)),
    KernelKind.H1: partial(_scaled, _SINH),
    KernelKind.H2: partial(_scaled, _SINH, x_times=True),
    KernelKind.A0: partial(_scaled, _COSH, x_times=True),
    KernelKind.F: lambda a, x: _times(_power_h(a, x), _integral(_SINH, a, x)),
    KernelKind.G: lambda a, x: _times(_power_h(a, x), _integral(_EXP, a, x)),
    KernelKind.R: lambda a, x: _sinh_step(_power_h(a, x), a, x),
    KernelKind.S: lambda a, x: _sinh_step(np.sqrt(0.5 * a * (x + a * a / x)) * _lift(_SINH, a), a, x),
    KernelKind.F1: _times_G(lambda v: (2.0 - 2.0**-v) * specfun.zeta(v + 1.0)),
    KernelKind.F2: _times_G(lambda v: (2.0 - 2.0 ** -(v - 2.0)) * specfun.zeta(v - 1.0)),
}


def _past_range(name: str, alpha, xs: np.ndarray) -> OverflowError:
    """The OverflowError of name at alpha, a float or an array, and the x of
    the 1-D array xs, past the double range."""
    at = f"x={xs[0]}" if len(xs) == 1 else f"some x in [{xs.min()}, {xs.max()}]"
    alpha = alpha if np.ndim(alpha) == 0 else f"some alpha in [{alpha.min()}, {alpha.max()}]"
    return OverflowError(f"{name} at alpha={alpha} and {at} exceeds the double range")


def _values(kind: KernelKind, alpha, xs: np.ndarray) -> np.ndarray:
    """The kind at every x of a checked 1-D array of finite x > 0, with alpha
    checked and a float or an array of the shape of xs."""
    if np.ndim(alpha) != 0 and (alpha == alpha[0]).all():
        alpha = float(alpha[0])  # one value takes the pick, with a float's bits
    try:
        with np.errstate(all="ignore"):  # _times checks every value
            return _VALUES[kind](alpha, xs)
    except OverflowError:
        raise _past_range(f"kernel {kind.value}", alpha, xs) from None


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
    _require_alpha(alpha, 2.0 if kind is KernelKind.F2 else 0.0, kind.value)
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


def _closed(alpha: float, c: float, tail: float) -> float:
    """|sin(pi a/2)|/pi * c Gamma(a+1) * tail, the form of both constants."""
    return abs(math.sin(0.5 * math.pi * alpha)) / math.pi * c * specfun.gamma(alpha + 1.0) * tail


def delta_1_closed(alpha: float) -> float:
    """L1 constant: |sin(pi a/2)|/pi * 8 Gamma(a+1) * sum (-1)^n (1+2n)^-(a+2)."""
    _require_alpha(alpha, -1.0, "delta_1_closed")
    return _closed(alpha, 8.0, specfun.alternating_odd_sum(alpha))


def delta_2_closed(alpha: float) -> float:
    """L2 constant: |sin(pi a/2)|/pi * 2 Gamma(a+1) * sqrt(pi/(2a+1))."""
    _require_alpha(alpha, -0.5, "delta_2_closed")
    return _closed(alpha, 2.0, math.sqrt(math.pi / (2.0 * alpha + 1.0)))


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


_PERIOD_GRID = 8  # grid points inside each period [k pi, (k+1) pi] before the polish


def beta_point(alpha: float) -> float:
    """beta(alpha) = pi * floor(alpha/pi) + 3 pi/2.

    The abscissa of the first or second lobe of |H(alpha, .)| to the right
    of alpha where |sin| = 1; satisfies alpha + pi/2 < beta <= alpha + 3 pi/2.
    """
    _require_alpha(alpha, 0.0, "beta_point")
    return math.pi * math.floor(alpha / math.pi) + 1.5 * math.pi


def _certified_sup(name: str, alpha: float, outer, grid, x_cut: float, xtol: float) -> SupNormReport:
    """sup over [0, inf) of outer(x, J(alpha, x)) >= 0, which is bounded by
    C(alpha)/x.

    outer(x, j) takes arrays; grid(lo, hi) gives the scan points of (lo, hi].
    The grid maxima of (0, x_cut] are polished in one refine_grid_maxima
    call, by Newton's method on each lobe's local series of outer(x, J(x)),
    every value returned being outer of a quadrature at the polished x;
    then x_cut doubles, scanning only the new part, until C(alpha)/x_cut <
    norm/2.
    A value past the double range is a QuadratureOverflowError naming name
    and alpha.
    """

    def whole(x):
        return outer(x, _scaled(_SINH, alpha, x))

    maxima: list = []
    lo = 0.0
    try:
        c = C_const(alpha)
        for _ in range(40):
            xs = grid(lo, x_cut)
            x, v = refine_grid_maxima(whole, xs, whole(xs), xtol)
            maxima.extend(zip(x.tolist(), v.tolist()))
            argmax, norm = max(maxima, key=lambda p: p[1])
            if c / x_cut < 0.5 * norm:
                return SupNormReport(norm, argmax, x_cut, c / x_cut, maxima)
            lo, x_cut = x_cut, 2.0 * x_cut
    except OverflowError as exc:
        _raise_overflow(name, alpha, exc)
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

    def abs_H(x, j):
        return np.abs(np.sin(x)) * j

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

    x_cut = alpha + 20.0 * math.pi
    return _certified_sup("sup_norm_H1", alpha, lambda x, j: j, grid, x_cut, xtol=1e-8)
