"""Near-best approximation of |x|^alpha: a tuned combination of the two
Chebyshev interpolation schemes plus a Chebyshev correction term.

The finite-n polynomial is

    P3(x) = c1 P1(x) + (1 - c1) P2(x)
            + (2/pi) sin(pi alpha/2) c2 (-1)^n (2n)^-alpha T_{2n+1}(x) / ((2n+1) x)

and its scaled limit error (what the large-n error looks like at scale 2n) is

    E(x) = (2/pi) sin(pi alpha/2) [ c1 cos(x) A0(alpha, x)
                                    + (1 - c1) sin(x) H1(alpha, x)
                                    - c2 sin(x)/x ]

The constants (c1, c2) are fitted by minimizing sup |E| over (0, X]:
the three terms are linear in (c1, c2), so the kernels are precomputed once
per alpha (GridCache) and each objective evaluation is a few vector
operations plus golden-section polish of the top lobes.  The cache holds
A0 and H1 on the scan grid (step pi/100 up to 40 pi) and piecewise
Chebyshev interpolants of both, which give every off-grid value the
searches ask for without quadrature (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013).  The pieces are pi wide above pi and
graded by doubling from pi/100 below it, because H1 behaves like
x^(alpha-1) at 0 for alpha < 1; degree 24 on each piece matches the
batched quadrature to about 1e-15, relative.  Only x below pi/100 and
calls without a cache still use quadrature; x = 0 is a closed-form limit.

The correction term exists because both interpolation schemes reproduce
|x|^alpha at x = 0 while the best approximation alternates there; c2
controls the error value E(0) = -(2/pi) sin(pi alpha/2) c2.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

from . import chebinterp, specfun
from ._search import bisect_root, golden_max
from .kernels import KernelKind, kernel_eval, kernel_values

__all__ = [
    "GridCache",
    "NearBestSolution",
    "OptimizeError",
    "build_cache",
    "limit_error",
    "optimize_c",
    "interp_points",
    "alternation_points",
    "p3_poly",
]

_X_MAX = 40.0 * math.pi
_STEP = math.pi / 100.0  # also the root-scan step
_MAX_GRID_STEP = math.pi / 40.0
_MAX_LOBES = 8  # top grid lobes polished per objective evaluation
_DEGREE = 24  # of the Chebyshev interpolant on each piece
_CHEB_ANGLES = math.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)
_CHEB_NODES = np.cos(_CHEB_ANGLES)  # first kind, on [-1, 1]
_BARY_WEIGHTS = (-1.0) ** np.arange(_DEGREE + 1) * np.sin(_CHEB_ANGLES)


class OptimizeError(RuntimeError):
    """Minimax descent failure; carries the best (c1, c2, objective) so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class GridCache:
    """A0 and H1 for one alpha, reusable across (c1, c2) because the scaled
    limit error is linear in both constants.

    a0_vals and h1_vals hold the kernels on the scan grid xs.  node_vals
    holds them at the _DEGREE + 1 Chebyshev points of the first kind of each
    piece [breaks[k], breaks[k+1]] (node_vals[k, 0] for A0, node_vals[k, 1]
    for H1), which define their interpolants there.  The pieces must cover
    xs.
    """

    alpha: float
    xs: np.ndarray
    a0_vals: np.ndarray
    h1_vals: np.ndarray
    breaks: np.ndarray
    node_vals: np.ndarray

    def __post_init__(self):
        step = np.diff(self.xs).max()
        if step > _MAX_GRID_STEP + 1e-12:
            raise ValueError(f"grid step {step} exceeds pi/40")
        if not (np.diff(self.breaks) > 0).all():
            raise ValueError("interpolant breaks must be strictly increasing")
        if not (self.breaks[0] <= self.xs[0] and self.xs[-1] <= self.breaks[-1]):
            raise ValueError(
                f"interpolant pieces [{self.breaks[0]}, {self.breaks[-1]}] do not cover "
                f"the grid [{self.xs[0]}, {self.xs[-1]}]"
            )
        if self.node_vals.shape != (len(self.breaks) - 1, 2, _DEGREE + 1):
            raise ValueError(
                f"node values of shape {self.node_vals.shape} do not match "
                f"{len(self.breaks) - 1} pieces of degree {_DEGREE}"
            )

    @cached_property
    def trig(self) -> tuple:
        """cos and sin on xs, which every grid scan of E needs."""
        return np.cos(self.xs), np.sin(self.xs)


@dataclass(frozen=True)
class NearBestSolution:
    """Fitted (c1, c2) with the achieved sup error and point systems."""

    alpha: float
    c1: float
    c2: float
    minimax: float
    interp_points: np.ndarray
    alternation_points: list
    equioscillation_spread: float
    reference_delta: float | None = None
    # the fit's kernel cache, for further root or error evaluations at alpha
    cache: GridCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        xs = self.interp_points
        if not (np.diff(xs) > 0).all():
            raise ValueError("interpolation points must be strictly increasing")
        for j, x in enumerate(xs, start=1):
            if j >= 2 and not ((j - 1.5) * math.pi <= x <= (j - 0.5) * math.pi):
                raise ValueError(f"x_{j} = {x} outside [(j-3/2) pi, (j-1/2) pi]")
        for j, (y, _) in enumerate(self.alternation_points):
            if j >= 1 and not ((j - 1.0) * math.pi <= y <= j * math.pi):
                raise ValueError(f"y_{j} = {y} outside [(j-1) pi, j pi]")
        if self.reference_delta is not None and not self.minimax >= self.reference_delta:
            raise ValueError(
                f"near-best sup {self.minimax} beats the best-approximation "
                f"constant {self.reference_delta}; search is broken"
            )


def _piece_breaks(x_lo: float, x_hi: float) -> np.ndarray:
    """Ends of the interpolant pieces over [x_lo, x_hi]: doubling from x_lo
    below pi, pi wide above it; the last piece ends at x_hi."""
    graded = x_lo * 2.0 ** np.arange(math.ceil(math.log2(math.pi / x_lo)))
    # the slack keeps an x_hi an ulp above k pi (the default grid ends at
    # 40 pi + 1.4e-14) from opening a sliver piece past k pi
    whole = math.pi * np.arange(1, math.ceil(x_hi / math.pi - 1e-9))
    return np.concatenate([graded[graded < x_hi], whole, [x_hi]])


def build_cache(alpha: float, x_max: float = _X_MAX) -> GridCache:
    """A0 and H1 on the scan grid (step, 2*step, ..., x_max], step pi/100,
    and their piecewise Chebyshev interpolants over the same span.  An
    x_max that leaves fewer than two grid points is refused before any
    kernel is evaluated."""
    xs = np.arange(_STEP, x_max + 0.5 * _STEP, _STEP) if x_max < math.inf else np.empty(0)
    if len(xs) < 2:
        raise ValueError(
            f"x_max must be finite and above 1.5 pi/100 (two grid points), got {x_max}"
        )
    breaks = _piece_breaks(xs[0], xs[-1])
    lo, hi = breaks[:-1, None], breaks[1:, None]
    nodes = (0.5 * (hi + lo) + 0.5 * (hi - lo) * _CHEB_NODES).ravel()
    node_vals = [
        kernel_values(kind, alpha, nodes).reshape(len(lo), _DEGREE + 1)
        for kind in (KernelKind.A0, KernelKind.H1)
    ]
    return GridCache(
        alpha,
        xs,
        kernel_values(KernelKind.A0, alpha, xs),
        kernel_values(KernelKind.H1, alpha, xs),
        breaks,
        np.stack(node_vals, axis=1),
    )


def _prefactor(alpha: float) -> float:
    return (2.0 / math.pi) * math.sin(0.5 * math.pi * alpha)


def _error(alpha: float, c1: float, c2: float, x, a0, h1, cos_x, sin_x):
    """E at x (scalar or array) from A0, H1, cos and sin there."""
    return _prefactor(alpha) * (c1 * cos_x * a0 + (1.0 - c1) * sin_x * h1 - c2 * sin_x / x)


def _interpolated_kernels(cache: GridCache, x) -> np.ndarray:
    """A0 and H1 at x (scalar or array) inside [breaks[0], breaks[-1]], by
    barycentric interpolation in the Chebyshev points of x's piece; shape
    x.shape + (2,).

    The barycentric form is used rather than a Clenshaw sum of Chebyshev
    coefficients: at degree 24 it matches batched quadrature to about 1e-15
    relative where the Clenshaw sum drifted to about 8e-15.
    """
    k = np.searchsorted(cache.breaks[1:-1], x, side="right")
    lo, hi = cache.breaks[k], cache.breaks[k + 1]
    d = ((2.0 * x - (hi + lo)) / (hi - lo))[..., None] - _CHEB_NODES
    # at a node itself its weight swamps the others and the node value comes back
    q = _BARY_WEIGHTS / np.where(d == 0.0, 1e-300, d)
    return np.einsum("...kj,...j->...k", cache.node_vals[k], q) / q.sum(axis=-1)[..., None]


def _interpolated_error(cache: GridCache, c1: float, c2: float, x):
    kern = _interpolated_kernels(cache, x)
    return _error(cache.alpha, c1, c2, x, kern[..., 0], kern[..., 1], np.cos(x), np.sin(x))


def limit_error(
    alpha: float,
    c1: float,
    c2: float,
    x: float,
    cache: GridCache | None = None,
) -> float:
    """Scaled limit error E(x) of the tuned combination; x = 0 gives the limit.

    With a cache for this alpha, every x the cache's interpolants span
    (pi/100 up to the end of its grid) takes A0 and H1 from them; any other
    x, and every x without a cache, evaluates both kernels by quadrature.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return -_prefactor(alpha) * c2
    if cache is not None and cache.alpha == alpha and cache.breaks[0] <= x <= cache.breaks[-1]:
        return float(_interpolated_error(cache, c1, c2, x))
    a0 = kernel_eval(KernelKind.A0, alpha, x)
    h1 = kernel_eval(KernelKind.H1, alpha, x)
    return float(_error(alpha, c1, c2, x, a0, h1, math.cos(x), math.sin(x)))


def _error_on_grid(cache: GridCache, c1: float, c2: float) -> np.ndarray:
    cos_xs, sin_xs = cache.trig
    return _error(cache.alpha, c1, c2, cache.xs, cache.a0_vals, cache.h1_vals, cos_xs, sin_xs)


def _polished_sup(cache: GridCache, c1: float, c2: float) -> float:
    """sup |E| over (0, X]: grid scan plus golden polish of the top lobes,
    all polished at once on the interpolants."""
    a = np.abs(_error_on_grid(cache, c1, c2))
    interior = (a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])
    idx = np.flatnonzero(interior) + 1
    if len(idx) == 0:
        idx = np.array([int(np.argmax(a))])
    order = idx[np.argsort(a[idx])[::-1]]
    top = a[order[0]]
    lobes = order[:_MAX_LOBES]
    lobes = lobes[a[lobes] >= 0.95 * top]
    lo = cache.xs[np.maximum(lobes - 1, 0)]
    hi = cache.xs[np.minimum(lobes + 1, len(cache.xs) - 1)]
    _, v = golden_max(
        lambda x: np.abs(_interpolated_error(cache, c1, c2, x)), lo, hi, xtol=1e-6
    )
    return max(top, abs(_prefactor(cache.alpha) * c2), v.max())


def optimize_c(alpha: float, reference_delta: float | None = None) -> NearBestSolution:
    """Fit (c1, c2) minimizing the sup of |E| and assemble the full solution.

    Valid for 0 < alpha < 2.  A 41x41 grid over [0, 0.6] x [0, 5] seeds a
    Nelder-Mead descent (the objective is piecewise smooth because the
    arg-sup jumps between lobes, so derivative-free descent is the right
    tool); tolerance 1e-4 on the constants.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"optimize_c requires 0 < alpha < 2, got {alpha}")
    cache = build_cache(alpha)
    pref = _prefactor(alpha)

    def j_grid(c1, c2):
        return max(np.abs(_error_on_grid(cache, c1, c2)).max(), abs(pref * c2))

    best = (math.inf, 0.0, 0.0)
    for c1 in np.linspace(0.0, 0.6, 41):
        for c2 in np.linspace(0.0, 5.0, 41):
            v = j_grid(c1, c2)
            if v < best[0]:
                best = (v, c1, c2)

    def objective(c):
        c1, c2 = c
        if not (-0.2 <= c1 <= 0.9 and -0.5 <= c2 <= 6.5):
            return best[0] + 10.0
        return _polished_sup(cache, c1, c2)

    res = minimize(
        objective,
        [best[1], best[2]],
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 400, "maxfev": 600},
    )
    if not res.success:
        raise OptimizeError(
            f"simplex descent did not converge for alpha={alpha}: {res.message}",
            best=(float(res.x[0]), float(res.x[1]), float(res.fun)),
        )
    c1, c2 = float(res.x[0]), float(res.x[1])
    minimax = float(res.fun)

    roots = interp_points(alpha, c1, c2, 11, cache=cache)
    alts = _extrema(alpha, c1, c2, roots, cache)
    mags = [abs(e) for _, e in alts]
    return NearBestSolution(
        alpha,
        c1,
        c2,
        minimax,
        roots[:10],
        alts,
        max(mags) - min(mags),
        reference_delta,
        cache,
    )


def interp_points(
    alpha: float,
    c1: float,
    c2: float,
    j_max: int,
    cache: GridCache | None = None,
) -> np.ndarray:
    """First j_max positive roots of E, bisected to 1e-8 from a pi/100 scan."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if cache is None or cache.alpha != alpha:
        cache = build_cache(alpha, x_max=(j_max + 2.0) * math.pi)

    def err(x):
        return limit_error(alpha, c1, c2, x, cache=cache)

    vals = np.concatenate([[-_prefactor(alpha) * c2], _error_on_grid(cache, c1, c2)])
    xs = np.concatenate([[0.0], cache.xs])
    sign_change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    roots = []
    for i in sign_change[: j_max]:
        roots.append(bisect_root(err, xs[i], xs[i + 1], xtol=1e-8))
    if len(roots) < j_max:
        raise RuntimeError(
            f"only {len(roots)} roots of the limit error found below x={xs[-1]:.2f}"
        )
    return np.array(roots)


def alternation_points(
    alpha: float,
    c1: float,
    c2: float,
    j_max: int,
    cache: GridCache | None = None,
) -> list:
    """(y_j, signed error) for j = 0..j_max: y_0 = 0 plus the extremum of E
    between each pair of consecutive interpolation points."""
    if cache is None or cache.alpha != alpha:
        cache = build_cache(alpha, x_max=(j_max + 3.0) * math.pi)
    return _extrema(alpha, c1, c2, interp_points(alpha, c1, c2, j_max + 1, cache=cache), cache)


def _extrema(alpha: float, c1: float, c2: float, roots, cache: GridCache) -> list:
    """(0, E(0)) plus (y, E(y)) at the extremum of E between each pair of
    consecutive roots."""

    def err(x):
        return limit_error(alpha, c1, c2, x, cache=cache)

    out = [(0.0, -_prefactor(alpha) * c2)]
    for lo, hi in zip(roots[:-1], roots[1:]):
        y, _ = golden_max(lambda x: abs(err(x)), lo, hi, xtol=1e-8)
        out.append((y, err(y)))
    return out


def p3_poly(alpha: float, n: int, c1: float, c2: float, x: float) -> float:
    """Finite-n tuned polynomial at x in [-1, 1].

    The Chebyshev correction T_{2n+1}(x)/((2n+1) x) is continued through
    x = 0 by its limit T'_{2n+1}(0)/(2n+1) = (-1)^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * n <= alpha:
        raise ValueError("need 2n > alpha")
    p1 = chebinterp.interp_eval(chebinterp.build_nodes("P1", n), alpha, x)
    p2 = chebinterp.interp_eval(chebinterp.build_nodes("P2", n), alpha, x)
    if abs(x) < 1e-9:
        cheb_term = (-1.0) ** n
    else:
        cheb_term = specfun.chebyshev_T(2 * n + 1, x) / ((2 * n + 1) * x)
    corr = _prefactor(alpha) * c2 * (-1.0) ** n * (2.0 * n) ** -alpha * cheb_term
    return c1 * p1 + (1.0 - c1) * p2 + corr
