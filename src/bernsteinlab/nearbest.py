"""Near-best approximation of |x|^alpha: a tuned combination of the two
Chebyshev interpolation schemes plus a Chebyshev correction term.

The finite-n polynomial is

    P3(x) = c1 P1(x) + (1 - c1) P2(x)
            + (2/pi) sin(pi alpha/2) c2 (-1)^n (2n)^-alpha T_{2n+1}(x) / ((2n+1) x)

and its scaled limit error (what the large-n error looks like at scale 2n) is

    E(x) = (2/pi) sin(pi alpha/2) [ c1 cos(x) A0(alpha, x)
                                    + (1 - c1) sin(x) H1(alpha, x)
                                    - c2 sin(x)/x ]

The constants (c1, c2) are fitted by minimizing sup |E| over (0, inf), the
largest of |E(0)|, the lobes on (0, X] and the amplitude |p c1| D(alpha),
p = (2/pi) sin(pi alpha/2), that the lobes tend to as x -> inf, where
A0 -> D(alpha) and H1 ~ C(alpha)/x.  The three terms are affine in (c1, c2),
so that sup is convex in them and one descent from a fixed start finds its
minimum, with no seed search.  The kernels are precomputed once per alpha
(GridCache), and each objective evaluation is a few vector operations plus a
golden-section polish of every grid lobe within 5% of the top.  The cache
holds A0 and H1 only as piecewise Chebyshev interpolants, which give the scan
grid (step pi/100 up to 40 pi) and every off-grid value the searches ask
for without quadrature (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013).  The pieces are pi wide above pi and graded by
doubling from pi/100 below it, because H1 behaves like x^(alpha-1) at 0
for alpha < 1; degree 24 on each piece matches the batched quadrature to
about 1e-15, relative.  x = 0 is a closed-form limit, and the x the
interpolants do not span (below pi/100, past the grid, or any x without a
cache) are integrated, in one batch per kernel.

The correction term exists because both interpolation schemes reproduce
|x|^alpha at x = 0 while the best approximation alternates there; c2
controls the error value E(0) = -(2/pi) sin(pi alpha/2) c2.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import chebinterp, specfun
from ._search import bisect_root, golden_max
from .kernels import D_const, KernelKind, kernel_values

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
# the farthest x_max build_cache takes (10^6 grid points), and the most roots
# interp_points finds within it, (j_max + 2) pi being the reach it needs
X_LIMIT = 1e4 * math.pi
MAX_ROOTS = round(X_LIMIT / math.pi) - 2
_STEP = math.pi / 100.0  # also the root-scan step
_MAX_GRID_STEP = math.pi / 40.0
_DEGREE = 24  # of the Chebyshev interpolant on each piece
_CHEB_ANGLES = math.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)
_CHEB_NODES = np.cos(_CHEB_ANGLES)  # first kind, on [-1, 1]
_BARY_WEIGHTS = (-1.0) ** np.arange(_DEGREE + 1) * np.sin(_CHEB_ANGLES)
_BLOCK = 512  # grid points interpolated per call, bounding the temporaries
_START = (0.5, 0.5)  # (c1, c2) where every fit's descent starts


class OptimizeError(RuntimeError):
    """Minimax descent failure; the message names the best (c1, c2, sup) so far."""


@dataclass(frozen=True)
class GridCache:
    """A0 and H1 for one alpha, reusable across (c1, c2) because the scaled
    limit error is linear in both constants.

    node_vals holds the kernels at the _DEGREE + 1 Chebyshev points of the
    first kind of each piece [breaks[k], breaks[k+1]] (node_vals[k, 0] for
    A0, node_vals[k, 1] for H1), which define their interpolants there.
    These are the cache's only kernel values: on the scan grid xs, which
    the pieces must cover, the kernels come from the interpolants too.
    """

    alpha: float
    xs: np.ndarray
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

    @cached_property
    def grid_kernels(self) -> np.ndarray:
        """A0 and H1 on xs from the interpolants, as two contiguous rows."""
        blocks = range(0, len(self.xs), _BLOCK)
        vals = [_interpolated_kernels(self, self.xs[i : i + _BLOCK]) for i in blocks]
        return np.concatenate(vals).T.copy()


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
    """The scan grid (step, 2*step, ..., x_max], step pi/100, and piecewise
    Chebyshev interpolants of A0 and H1 over it, from one kernel_values call
    per kernel at the pieces' Chebyshev points.  An x_max that leaves fewer
    than two grid points, or more than 10^6 (x_max above 10^4 pi), is
    refused before any kernel is evaluated."""
    xs = np.arange(_STEP, x_max + 0.5 * _STEP, _STEP) if x_max <= X_LIMIT else np.empty(0)
    if len(xs) < 2:
        raise ValueError(
            f"x_max must be in (1.5 pi/100, 10^4 pi] (2 to 10^6 grid points), got {x_max}"
        )
    breaks = _piece_breaks(xs[0], xs[-1])
    lo, hi = breaks[:-1, None], breaks[1:, None]
    nodes = (0.5 * (hi + lo) + 0.5 * (hi - lo) * _CHEB_NODES).ravel()
    node_vals = [
        kernel_values(kind, alpha, nodes).reshape(len(lo), _DEGREE + 1)
        for kind in (KernelKind.A0, KernelKind.H1)
    ]
    return GridCache(alpha, xs, breaks, np.stack(node_vals, axis=1))


def _prefactor(alpha: float) -> float:
    return (2.0 / math.pi) * math.sin(0.5 * math.pi * alpha)


def _check_constants(c1: float, c2: float) -> None:
    for name, c in (("c1", c1), ("c2", c2)):
        if not math.isfinite(c):
            raise ValueError(f"{name} must be finite, got {c}")


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


def limit_error(alpha: float, c1: float, c2: float, x, cache: GridCache | None = None):
    """Scaled limit error E(x) of the tuned combination; x = 0 gives the limit.

    x is a float or an array, and the result a float or an array of x's
    shape.  With a cache for this alpha, every x the cache's interpolants
    span (pi/100 up to the end of its grid) takes A0 and H1 from them.  The
    other x > 0 share one kernel_values call per kernel, whose rows converge
    together: with more than one such x, an entry can differ from a float
    call's in the last bits, within the quadrature's tolerance.
    """
    _check_constants(c1, c2)
    xa = np.asarray(x, dtype=float)
    ok = (0.0 <= xa) & (xa < math.inf)
    if not ok.all():
        raise ValueError(f"x must be finite and >= 0, got {xa.ravel()[np.argmin(ok.ravel())]}")
    out = np.full(xa.shape, -_prefactor(alpha) * c2)
    rest = xa > 0.0
    if cache is not None and cache.alpha == alpha:
        hit = rest & (cache.breaks[0] <= xa) & (xa <= cache.breaks[-1])
        out[hit] = _interpolated_error(cache, c1, c2, xa[hit])
        rest &= ~hit
    if rest.any():
        xs = xa[rest]
        a0, h1 = (kernel_values(kind, alpha, xs) for kind in (KernelKind.A0, KernelKind.H1))
        out[rest] = _error(alpha, c1, c2, xs, a0, h1, np.cos(xs), np.sin(xs))
    return float(out) if np.ndim(x) == 0 else out


def _error_on_grid(cache: GridCache, c1: float, c2: float) -> np.ndarray:
    return _error(cache.alpha, c1, c2, cache.xs, *cache.grid_kernels, *cache.trig)


def _polished_sup(cache: GridCache, c1: float, c2: float, tail: float) -> float:
    """sup |E| over (0, inf): the largest of the grid maximum of |E| (ends
    included), |E(0)| = |p c2| and the amplitude tail |c1| that the lobes of
    E tend to as x -> inf (tail = |p| D(alpha)), raised by a golden polish on
    the interpolants of every interior grid lobe within 5% of it, all at once."""
    a = np.abs(_error_on_grid(cache, c1, c2))
    top = max(a.max(), abs(_prefactor(cache.alpha) * c2), tail * abs(c1))
    lobes = np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:]) & (a[1:-1] >= 0.95 * top)) + 1
    _, v = golden_max(
        lambda x: np.abs(_interpolated_error(cache, c1, c2, x)),
        cache.xs[lobes - 1],
        cache.xs[lobes + 1],
        xtol=1e-6,
    )
    return float(np.max(v, initial=top))


def minimize(*args, **kwargs):
    """scipy's minimize, imported on first call (most of the import time)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def optimize_c(alpha: float, reference_delta: float | None = None) -> NearBestSolution:
    """Fit (c1, c2) minimizing the sup of |E| over (0, inf) and assemble the
    full solution.

    Valid for 0 < alpha < 2.  D(alpha), which the x -> inf lobe amplitude
    needs, is integrated once, before the cache is built.  For each x, E is
    affine in (c1, c2), so |E| is convex in them, and so is the sup over x
    with the rows |p c2| (x = 0) and |p c1| D(alpha) (x -> inf): every local
    minimum is the global one, and a Nelder-Mead descent from the fixed
    start _START needs no seed search and no box.  The objective is
    piecewise smooth, because the arg-sup jumps between lobes, so the
    descent is derivative-free; tolerance 1e-4 on the constants.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"optimize_c requires 0 < alpha < 2, got {alpha}")
    tail = abs(_prefactor(alpha)) * D_const(alpha)
    cache = build_cache(alpha)
    res = minimize(
        lambda c: _polished_sup(cache, c[0], c[1], tail),
        _START,
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 400, "maxfev": 600},
    )
    if not res.success:
        raise OptimizeError(
            f"simplex descent did not converge for alpha={alpha}: {res.message}; "
            f"best (c1, c2, sup) = ({res.x[0]}, {res.x[1]}, {res.fun})"
        )
    c1, c2 = float(res.x[0]), float(res.x[1])
    minimax = float(res.fun)

    roots = interp_points(alpha, c1, c2, 11, cache=cache)
    alts = _extrema(alpha, c1, c2, roots, cache)
    mags = [abs(e) for _, e in alts]
    return NearBestSolution(
        alpha, c1, c2, minimax, roots[:10], alts, max(mags) - min(mags), reference_delta, cache
    )


def interp_points(
    alpha: float,
    c1: float,
    c2: float,
    j_max: int,
    cache: GridCache | None = None,
) -> np.ndarray:
    """First j_max positive roots of E, bisected to 1e-8 from a pi/100 scan of
    the grid of _cache_reaching(alpha, j_max, cache)."""
    _check_constants(c1, c2)
    if not 1 <= j_max <= MAX_ROOTS:
        raise ValueError(f"j_max must be in [1, {MAX_ROOTS}], got {j_max}")
    cache = _cache_reaching(alpha, j_max, cache)

    vals = np.concatenate([[-_prefactor(alpha) * c2], _error_on_grid(cache, c1, c2)])
    xs = np.concatenate([[0.0], cache.xs])
    i = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[:j_max]  # sign changes
    if len(i) < j_max:
        raise RuntimeError(f"only {len(i)} roots of the limit error found below x={xs[-1]:.2f}")
    return bisect_root(lambda x: limit_error(alpha, c1, c2, x, cache=cache), xs[i], xs[i + 1], 1e-8)


def _cache_reaching(alpha: float, j_max: int, cache: GridCache | None) -> GridCache:
    """cache if it is for alpha and its grid reaches (j_max + 2) pi, where the
    search for j_max roots scans; else a new cache to there."""
    x_max = (j_max + 2.0) * math.pi
    if cache is not None and cache.alpha == alpha and x_max <= cache.xs[-1]:
        return cache
    return build_cache(alpha, x_max=x_max)


def alternation_points(
    alpha: float,
    c1: float,
    c2: float,
    j_max: int,
    cache: GridCache | None = None,
) -> list:
    """(y_j, signed error) for j = 0..j_max: y_0 = 0 plus the extremum of E
    between each pair of consecutive interpolation points."""
    _check_constants(c1, c2)
    cache = _cache_reaching(alpha, j_max + 1, cache)
    return _extrema(alpha, c1, c2, interp_points(alpha, c1, c2, j_max + 1, cache=cache), cache)


def _extrema(alpha: float, c1: float, c2: float, roots, cache: GridCache) -> list:
    """(0, E(0)) plus (y, E(y)) at the extremum of E between each pair of
    consecutive roots, all pairs polished in one golden section."""

    def err(x):
        return limit_error(alpha, c1, c2, x, cache=cache)

    ys, _ = golden_max(lambda x: np.abs(err(x)), roots[:-1], roots[1:], xtol=1e-8)
    return [(0.0, -_prefactor(alpha) * c2)] + list(zip(ys.tolist(), err(ys).tolist()))


def p3_poly(alpha: float, n: int, c1: float, c2: float, x: float) -> float:
    """Finite-n tuned polynomial at x in [-1, 1].

    The Chebyshev correction T_{2n+1}(x)/((2n+1) x) is continued through
    x = 0 by its limit T'_{2n+1}(0)/(2n+1) = (-1)^n.
    """
    _check_constants(c1, c2)
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
