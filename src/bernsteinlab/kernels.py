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
C_const, sup_norm_H and sup_norm_H1 work up to alpha = 169.5 (D_const to
170.5): above, the peak t^a e^-t of the weight, near t = a, comes so close
to the double range that the quadrature's sums pass it (C(170) ~ 1.45e307
is a double; computing it is not done here), and from alpha of about 171
the weights themselves do.  They then raise QuadratureOverflowError, an
OverflowError naming the function and alpha.

F and G are integrated as (x, t) matrices, 512 x per call of
quadrature.integrate_zero_to_inf, built in place (out=) in the order of the
expression in their docstrings, so bit for bit equal to it; alpha is one
float for all rows, or one per row beside x.  Below 1e-288 (ABS_FLOOR /
REL_TOL), where the quadrature certifies only its absolute floor, F and G
raise OverflowError.  One path, kernel_values, serves every kind, and it
alone holds the limits at x = 0 (0 for H, H2 and A0; pi/2 for H1 at
alpha = 1, 0 above); kernel_eval is one of its points.

J (so H, H1 and H2), A0, C and D integrate p(t) K(x, t) with the x-free
weight p = t^a/sinh t or t^(a-1)/cosh t and K = x/(x^2+t^2), x^2/(x^2+t^2)
or 1.  p rides in the quadrature weights: the quadrature's pick hands the
rule the read-only (t, p w) of the nodes that can move the sum, and the
integrand is K alone, built in place.  With k the peak of p w on a level
table of n nodes, node j is dropped when p_j w_j max(1, (t_k/t_j)^2) <=
2^-60 p_k w_k / n; every such K is >= 0 with K(x, t_j)/K(x, t_k) <= max(1,
(t_k/t_j)^2), so the dropped terms of any row sum to at most 2^-60 of its
sum.  The pick is keyed by level table (a, b, level) and alpha and keeps the
256 last used; the node-only factors (log t, -expm1(-2t), 1 + exp(-2t)) are
computed once per table.  An array of alphas goes through J and A0 one
distinct alpha at a time.  Where p w is not finite every node is kept, so
the overflow shows in the sums.  Past x = 1.34e154, where x * x overflows, J
and A0 take their limits C(a)/x and D(a), exact in double (the next terms
are O(a^2/x^2) relative).
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
# stable t-integrands
# ---------------------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=128)
def _factors(a: float, b: float | None, level: int):
    """The node-only factors (log t, -expm1(-2t), 1 + exp(-2t)) of the level
    table quadrature._xw(a, b, level), read-only rows of one array, computed
    once per table."""
    t = quadrature._xw(a, b, level)[0]
    return _read_only(np.stack((np.log(t), -np.expm1(-2.0 * t), 1.0 + np.exp(-2.0 * t))))


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


@lru_cache(maxsize=256)
def _kept_nodes(den: int, alpha: float, a: float, b: float | None, level: int):
    """The pick for an integral of p(t) K(x, t) on the level table
    (t, w) = quadrature._xw(a, b, level), with p = exp(alpha log t - t) * 2
    over the row den of _factors (1 for sinh, 2 for cosh) and K as in
    _keep_mask: the read-only (t, p w) at the nodes that can move the sum,
    computed once per table and alpha."""
    t, w = quadrature._xw(a, b, level)
    factors = _factors(a, b, level)
    pw = np.exp(alpha * factors[0] - t) * 2.0 / factors[den] * w
    keep = _keep_mask(pw, t)
    return _read_only(t[keep]), _read_only(pw[keep])


def _sinh_pick(alpha: float):
    """The quadrature's pick for an integrand t^alpha/sinh t times a K >= 0
    (alpha as a float, which the pick's cache can hold)."""
    return partial(_kept_nodes, 1, float(alpha))


def _cosh_pick(alpha: float):
    """The quadrature's pick for an integrand t^(alpha-1)/cosh t times a K >= 0."""
    return partial(_kept_nodes, 2, alpha - 1.0)


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
    quadrature sum past the double range, or an inner named call's error
    for one; the quadrature's error is the cause, and the message repeats it."""
    cause = exc.__cause__ or exc
    raise QuadratureOverflowError(
        f"{name} at alpha={alpha}: the integrand overflows the double range ({cause})"
    ) from cause


def _weight_integral(name: str, pick, alpha: float) -> float:
    """The integral of the weight p that pick(alpha) carries, 1 on the picked
    nodes, as name, for finite alpha > 0."""
    _require_alpha(alpha, 0.0, name)
    try:
        return float(integrate_zero_to_inf(lambda t: np.ones(len(t)), pick(alpha)).value[0])
    except OverflowError as exc:
        _raise_overflow(name, alpha, exc)


def C_const(alpha: float) -> float:
    """C(alpha) = int_0^inf t^alpha / sinh(t) dt, 0 < alpha <= 169.5; above,
    the sums overflow the double range (module docstring) and
    QuadratureOverflowError names C_const and alpha."""
    return _weight_integral("C_const", _sinh_pick, alpha)


def D_const(alpha: float) -> float:
    """D(alpha) = int_0^inf t^(alpha-1) / cosh(t) dt, 0 < alpha <= 170.5;
    above, QuadratureOverflowError names D_const and alpha, as for C_const."""
    return _weight_integral("D_const", _cosh_pick, alpha)


# ---------------------------------------------------------------------------
# batched evaluation, one path for every kind
# ---------------------------------------------------------------------------


def _batched_family(fmat, alpha, xs: np.ndarray, pick=None) -> np.ndarray:
    """int_0^inf fmat(alpha, x, t) dt for every x in xs, _BATCH_CHUNK rows per
    call; fmat gets x as an (m, 1) column and t as an (n,) row, and alpha as
    it is when a scalar, else as the (m, 1) column of its rows beside x.
    Given pick, the nodes and weights it names for the float alpha, fmat
    gets x and t alone.  Without one (F and G), a value below ABS_FLOOR /
    REL_TOL, where the quadrature certifies only its absolute floor and a
    positive value may read 0, is an OverflowError."""
    out = np.empty(len(xs))
    for lo in range(0, len(xs), _BATCH_CHUNK):
        rows = slice(lo, lo + _BATCH_CHUNK)
        a = alpha if np.ndim(alpha) == 0 else alpha[rows, None]
        x = xs[rows, None]
        f = (lambda t: fmat(x, t)) if pick else (lambda t: fmat(a, x, t))
        out[rows] = integrate_zero_to_inf(f, pick).value
    if not pick and (out < quadrature.ABS_FLOOR / quadrature.REL_TOL).any():
        raise OverflowError
    return out


def _J_mat(x, t):
    """x / (x * x + t * t)"""
    out = np.add(x * x, t * t)
    return np.divide(x, out, out=out)


def _A0_mat(x, t):
    """x * x / (x * x + t * t)"""
    xx = x * x
    out = np.add(xx, t * t)
    return np.divide(xx, out, out=out)


def _F_mat(alpha, x, t):
    """np.exp(alpha * np.log(t) - xt) * 2.0 / (-np.expm1(-2.0 * xt)) / (1.0 + t * t), xt = x * t"""
    xt = np.multiply(x, t)
    out = np.subtract(np.multiply(alpha, np.log(t)), xt)
    np.multiply(np.exp(out, out=out), 2.0, out=out)
    np.negative(np.expm1(np.multiply(-2.0, xt, out=xt), out=xt), out=xt)
    return np.divide(np.divide(out, xt, out=out), 1.0 + t * t, out=out)


def _G_mat(alpha, x, t):
    """np.exp(alpha * np.log(t) - x * t) / (1.0 + t * t)"""
    out = np.multiply(x, t)
    np.exp(np.subtract(np.multiply(alpha, np.log(t)), out, out=out), out=out)
    return np.divide(out, 1.0 + t * t, out=out)


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


# past this x, x * x overflows: J and A0 take their limits there
_X_HUGE = math.sqrt(sys.float_info.max)


def _weighted(kmat, pick, limit, alpha: float, xs: np.ndarray) -> np.ndarray:
    """int_0^inf p(t) kmat(x, t) dt for every x in xs at a float alpha, p in
    the weights of pick(alpha); past _X_HUGE limit(alpha, x), which is
    exact in double there, the next terms being O(alpha^2/x^2) relative."""
    out = np.empty(len(xs))
    huge = xs > _X_HUGE
    if huge.any():
        out[huge] = limit(alpha, xs[huge])
    out[~huge] = _batched_family(kmat, alpha, xs[~huge], pick(alpha))
    return out


# J and A0 at every x in xs, alpha a float or one per x (_per_alpha), with
# their limits C(alpha)/x and D(alpha) past _X_HUGE
_J_values = partial(_per_alpha, partial(_weighted, _J_mat, _sinh_pick, lambda a, x: C_const(a) / x))
_A0_values = partial(_per_alpha, partial(_weighted, _A0_mat, _cosh_pick, lambda a, x: D_const(a)))
# F and G carry no x-free weight and keep every node
_F_values = partial(_batched_family, _F_mat)
_G_values = partial(_batched_family, _G_mat)


def _R_values(a, x: np.ndarray) -> np.ndarray:
    return (x / a) * _F_values(a + 1.0, x) - _F_values(a, x)


def _S_values(a, x: np.ndarray) -> np.ndarray:
    """(a x^(a-1)/2) (x^2 + a^2) R(a, x), or OverflowError where that factor
    is not finite."""
    with np.errstate(over="ignore"):
        pre = _per_alpha(lambda v, x: 0.5 * v * x ** (v - 1.0) * (x * x + v * v), a, x)
    if not np.isfinite(pre).all():
        raise OverflowError
    return pre * _R_values(a, x)


# kind -> values at finite x > 0, for alpha a float or an array beside x
_VALUES = {
    KernelKind.H: lambda a, x: np.sin(x) * _J_values(a, x),
    KernelKind.H1: _J_values,
    KernelKind.H2: lambda a, x: x * _J_values(a, x),
    KernelKind.F: _F_values,
    KernelKind.G: _G_values,
    KernelKind.R: _R_values,
    KernelKind.S: _S_values,
    KernelKind.F1: lambda a, x: (
        _per_alpha(lambda v, _: (2.0 - 2.0**-v) * specfun.zeta(v + 1.0), a, x) * _G_values(a, x)
    ),
    KernelKind.F2: lambda a, x: (
        _per_alpha(lambda v, _: (2.0 - 2.0 ** -(v - 2.0)) * specfun.zeta(v - 1.0), a, x)
        * _G_values(a, x)
    ),
    KernelKind.A0: _A0_values,
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
    try:
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


_PERIOD_GRID = 8  # coarse points per half-period before golden refinement


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
    call with part = J, so on interpolants of J, every value returned being
    outer of a quadrature at the polished x; then x_cut doubles, scanning
    only the new part, until C(alpha)/x_cut < norm/2.
    A sum past the double range is a QuadratureOverflowError naming name
    and alpha.
    """

    def part(x):
        return _J_values(alpha, x)

    maxima: list = []
    lo = 0.0
    try:
        c = C_const(alpha)
        for _ in range(40):
            xs = grid(lo, x_cut)
            x, v = refine_grid_maxima(outer, xs, outer(xs, part(xs)), xtol, part=part)
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
    return _certified_sup("sup_norm_H1", alpha, lambda x, j: j, grid, x_cut, xtol=1e-6)
