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
the expression in its docstring, so bit for bit equal to it.  The other kinds
combine them: one path, kernel_values, serves every kind.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from . import specfun
from ._search import golden_max
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


def _pow_over_sinh(alpha: float, t):
    return np.exp(alpha * np.log(t) - t) * 2.0 / (-np.expm1(-2.0 * t))


def _pow_over_cosh(alpha: float, t):
    return np.exp(alpha * np.log(t) - t) * 2.0 / (1.0 + np.exp(-2.0 * t))


def _require_alpha(alpha: float, low: float, kind: str):
    if not low < alpha < math.inf:
        raise ValueError(f"{kind} requires finite alpha > {low}, got {alpha}")


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


def _batched_family(fmat, alpha: float, xs: np.ndarray) -> np.ndarray:
    """int_0^inf fmat(alpha, x, t) dt for every x in xs, _BATCH_CHUNK rows per
    call; fmat gets x as an (m, 1) column and t as an (n,) row."""
    out = np.empty(len(xs))
    for lo in range(0, len(xs), _BATCH_CHUNK):
        chunk = xs[lo : lo + _BATCH_CHUNK, None]
        out[lo : lo + _BATCH_CHUNK] = integrate_zero_to_inf(lambda t: fmat(alpha, chunk, t)).value
    return out


def _J_mat(alpha: float, x, t):
    """_pow_over_sinh(alpha, t) * (x / (x * x + t * t))"""
    out = np.add(x * x, t * t)
    return np.multiply(_pow_over_sinh(alpha, t), np.divide(x, out, out=out), out=out)


def _A0_mat(alpha: float, x, t):
    """_pow_over_cosh(alpha - 1.0, t) * (x * x / (x * x + t * t))"""
    out = np.add(x * x, t * t)
    return np.multiply(_pow_over_cosh(alpha - 1.0, t), np.divide(x * x, out, out=out), out=out)


def _F_mat(alpha: float, x, t):
    """np.exp(alpha * np.log(t) - xt) * 2.0 / (-np.expm1(-2.0 * xt)) / (1.0 + t * t), xt = x * t"""
    xt = np.multiply(x, t)
    out = np.subtract(alpha * np.log(t), xt)
    np.multiply(np.exp(out, out=out), 2.0, out=out)
    np.negative(np.expm1(np.multiply(-2.0, xt, out=xt), out=xt), out=xt)
    return np.divide(np.divide(out, xt, out=out), 1.0 + t * t, out=out)


def _G_mat(alpha: float, x, t):
    """np.exp(alpha * np.log(t) - x * t) / (1.0 + t * t)"""
    out = np.multiply(x, t)
    np.exp(np.subtract(alpha * np.log(t), out, out=out), out=out)
    return np.divide(out, 1.0 + t * t, out=out)


_J_values = partial(_batched_family, _J_mat)
_A0_values = partial(_batched_family, _A0_mat)
_F_values = partial(_batched_family, _F_mat)
_G_values = partial(_batched_family, _G_mat)


def _R_values(a: float, x: np.ndarray) -> np.ndarray:
    return (x / a) * _F_values(a + 1.0, x) - _F_values(a, x)


# kind -> values at finite x > 0, for one alpha
_VALUES = {
    KernelKind.H: lambda a, x: np.sin(x) * _J_values(a, x),
    KernelKind.H1: _J_values,
    KernelKind.H2: lambda a, x: x * _J_values(a, x),
    KernelKind.F: _F_values,
    KernelKind.G: _G_values,
    KernelKind.R: _R_values,
    KernelKind.S: lambda a, x: 0.5 * a * x ** (a - 1.0) * (x * x + a * a) * _R_values(a, x),
    KernelKind.F1: lambda a, x: (2.0 - 2.0**-a) * specfun.zeta(a + 1.0) * _G_values(a, x),
    KernelKind.F2: lambda a, x: (2.0 - 2.0 ** -(a - 2.0)) * specfun.zeta(a - 1.0) * _G_values(a, x),
    KernelKind.A0: _A0_values,
}


def _require_kind_alpha(kind: KernelKind, alpha: float):
    _require_alpha(alpha, 2.0 if kind is KernelKind.F2 else 0.0, kind.value)


def _values(kind: KernelKind, alpha: float, xs: np.ndarray) -> np.ndarray:
    """The kind at every x of a checked 1-D array of finite x > 0."""
    try:
        return _VALUES[kind](alpha, xs)
    except OverflowError:
        at = f"x={xs[0]}" if len(xs) == 1 else f"some x in [{xs.min()}, {xs.max()}]"
        raise OverflowError(
            f"kernel {kind.value} at alpha={alpha} and {at} exceeds the double range"
        ) from None


def kernel_values(kind, alpha: float, xs) -> np.ndarray:
    """kernel_eval over a 1-D array of finite x > 0, for every kind; all x
    share the quadrature nodes, 512 at a time."""
    kind = KernelKind(kind)
    xs = np.asarray(xs, dtype=float)
    if not ((xs > 0) & (xs < math.inf)).all():
        raise ValueError("kernel_values requires finite x > 0; use kernel_eval for limits at 0")
    _require_kind_alpha(kind, alpha)
    return _values(kind, alpha, xs)


def _eval_at_zero(kind: KernelKind, alpha: float) -> float:
    if kind in (KernelKind.H, KernelKind.H2, KernelKind.A0):
        return 0.0
    if kind is KernelKind.H1:
        if alpha == 1.0:
            return 0.5 * math.pi
        if alpha > 1.0:
            return 0.0
        raise ValueError(f"H1(alpha, 0) diverges for alpha < 1 (alpha={alpha})")
    raise ValueError(f"kernel {kind.value} requires x > 0")


def kernel_eval(kind, alpha: float, x: float) -> float:
    """Evaluate one member of the kernel family at (alpha, x).

    x = 0 is allowed for H, H1, H2 and A0, returning the limiting values
    (H1(1, 0) = pi/2; H1(alpha, 0) = 0 for alpha > 1; the rest vanish).
    """
    kind = KernelKind(kind)
    _require_kind_alpha(kind, alpha)
    if not 0 <= x < math.inf:
        raise ValueError(f"kernel {kind.value} requires finite x >= 0, got {x}")
    if x == 0.0:
        return _eval_at_zero(kind, alpha)
    return float(_values(kind, alpha, np.array([x]))[0])


# ---------------------------------------------------------------------------
# closed-form best-approximation constants (L1, L2)
# ---------------------------------------------------------------------------


def delta_1_closed(alpha: float) -> float:
    """L1 constant: |sin(pi a/2)|/pi * 8 Gamma(a+1) * sum (-1)^n (1+2n)^-(a+2)."""
    if not alpha > -1.0:
        raise ValueError(f"delta_1_closed requires alpha > -1, got {alpha}")
    return (
        abs(math.sin(0.5 * math.pi * alpha))
        / math.pi
        * 8.0
        * specfun.gamma(alpha + 1.0)
        * specfun.alternating_odd_sum(alpha)
    )


def delta_2_closed(alpha: float) -> float:
    """L2 constant: |sin(pi a/2)|/pi * 2 Gamma(a+1) * sqrt(pi/(2a+1))."""
    if not alpha > -0.5:
        raise ValueError(f"delta_2_closed requires alpha > -1/2, got {alpha}")
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
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return math.pi * math.floor(alpha / math.pi) + 1.5 * math.pi


def sup_norm_H(alpha: float) -> SupNormReport:
    """sup over [0, inf) of |H(alpha, .)| = |sin(x)| * H1(alpha, x).

    |H| vanishes at every multiple of pi, so each period [k pi, (k+1) pi]
    is scanned on a coarse grid, and the maxima of all newly scanned periods
    are polished together by one array golden section over batched
    quadrature (no scalar kernel_eval).  The horizon starts at
    max(alpha, beta(alpha)) + 10 pi and doubles until the tail bound
    C(alpha)/X certifies that no larger lobe lies beyond.
    """
    _require_alpha(alpha, 0.0, "sup_norm_H")
    c = C_const(alpha)

    def absH(x):
        return np.abs(np.sin(x)) * _J_values(alpha, x)

    n_periods = math.ceil((max(alpha, beta_point(alpha)) + 10.0 * math.pi) / math.pi)
    half_cell = math.pi / (_PERIOD_GRID + 1.0)
    offs = np.arange(1, _PERIOD_GRID + 1) / (_PERIOD_GRID + 1.0)
    maxima: list = []
    scanned = 0
    for _ in range(40):
        if scanned < n_periods:
            ks = np.arange(scanned, n_periods)
            grid = (ks[:, None] + offs[None, :]) * math.pi
            vals = absH(grid.ravel()).reshape(grid.shape)
            centre = grid[np.arange(len(ks)), np.argmax(vals, axis=1)]
            x, v = golden_max(
                absH, np.maximum(centre - half_cell, 1e-12), centre + half_cell, xtol=1e-5
            )
            maxima.extend(zip(x.tolist(), v.tolist()))
            scanned = n_periods
        norm = max(v for _, v in maxima)
        x_cut = scanned * math.pi
        if c / x_cut < 0.5 * norm:
            break
        n_periods *= 2
    else:
        raise RuntimeError(f"sup_norm_H horizon did not certify for alpha={alpha}")

    argmax, norm = max(maxima, key=lambda p: p[1])
    return SupNormReport(norm, argmax, x_cut, c / x_cut, maxima)


def sup_norm_H1(alpha: float) -> SupNormReport:
    """sup over [0, inf) of the envelope H1(alpha, .), for alpha > 1.

    For alpha <= 1 the envelope is unbounded (or attains its sup at 0) and
    the domain is rejected.  One bracket over [0, alpha + 20 pi] suffices,
    polished by golden section over batched quadrature (no scalar
    kernel_eval); the tail is certified through H1 = H2/x <= C(alpha)/x,
    doubling the horizon when needed.
    """
    if not alpha > 1.0:
        raise ValueError(f"sup_norm_H1 requires alpha > 1, got {alpha}")
    c = C_const(alpha)
    x_cut = alpha + 20.0 * math.pi
    xs = np.linspace(0.0, x_cut, 601)[1:]
    vals = _J_values(alpha, xs)
    maxima: list = []
    for _ in range(40):
        i = int(np.argmax(vals))
        lo = xs[i - 1] if i > 0 else 1e-12
        hi = xs[i + 1] if i < len(xs) - 1 else xs[-1]
        x, v = golden_max(lambda x: _J_values(alpha, x), np.array([lo]), np.array([hi]), xtol=1e-6)
        maxima.append((float(x[0]), float(v[0])))
        norm = max(v for _, v in maxima)
        if c / x_cut < 0.5 * norm:
            break
        ext = np.linspace(x_cut, 2.0 * x_cut, 301)[1:]
        vals = np.concatenate([vals, _J_values(alpha, ext)])
        xs = np.concatenate([xs, ext])
        x_cut *= 2.0
    else:
        raise RuntimeError(f"sup_norm_H1 horizon did not certify for alpha={alpha}")

    argmax, norm = max(maxima, key=lambda p: p[1])
    return SupNormReport(norm, argmax, x_cut, c / x_cut, maxima)
