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
A0 -> D(alpha) and H1 ~ C(alpha)/x.  Each term is |A (c1, c2) + b| for a
row A, b, so on a finite set of x the fit is a linear Chebyshev (L-inf)
problem in two unknowns, which minimize solves by Stiefel's exchange on
three-row references, in numpy alone.  The level of any reference bounds the
minimax from below (de la Vallee Poussin) and the sup polished on the
interpolants bounds it from above; optimize_c solves in rounds, on the grid
plus the last round's polished lobe maxima, until the two agree to 1e-12
relative, and returns both.  The kernels are precomputed once per alpha
(GridCache), so a round is a few vector operations plus a Newton polish,
on its local series, of every grid lobe within 5% of the top.  The cache
holds A0 and H1 only as piecewise Chebyshev interpolants, which give the
scan grid (step pi/100 up to 40 pi) and every off-grid value the searches
ask for without quadrature (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013).  The pieces are pi wide above pi and graded by
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
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import chebinterp, specfun
from ._search import _DEGREE, bisect_root, cheb_points, interpolate_pieces, polish_brackets, refine_grid_maxima
from .entire import _prefactor
from .kernels import D_const, KernelKind, _require_alpha, kernel_values

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
_ROUNDS = 12  # exchange rounds a fit may take before it gives up
_GAP = 1e-12  # upper - lower bound, relative, at which a fit is certified
_MAX_STEPS = 100  # exchange steps one solve may take
_U = 2.0**-53  # unit roundoff of a double


class OptimizeError(RuntimeError):
    """A fit the exchange could not certify; the message names the best (c1, c2, sup) found."""


@dataclass(frozen=True)
class GridCache:
    """A0 and H1 for one alpha, reusable across (c1, c2) because the scaled
    limit error is linear in both constants.

    node_vals holds the kernels at the _DEGREE + 1 Chebyshev points of the
    first kind of each piece [breaks[k], breaks[k+1]] (node_vals[k, 0] for
    A0, node_vals[k, 1] for H1), which define their interpolants there.
    These are the cache's only kernel values: the scan grid xs, derived from
    the breaks, lies in the pieces and takes the kernels from them too.
    """

    alpha: float
    breaks: np.ndarray
    node_vals: np.ndarray

    def __post_init__(self):
        # a grid through x = 0 would make sin(x)/x NaN
        if not (self.breaks[0] > 0.0 and (np.diff(self.breaks) > 0).all()):
            raise ValueError("interpolant breaks must be positive and strictly increasing")
        if self.node_vals.shape != (len(self.breaks) - 1, 2, _DEGREE + 1):
            raise ValueError(
                f"node values of shape {self.node_vals.shape} do not match "
                f"{len(self.breaks) - 1} pieces of degree {_DEGREE}"
            )

    @cached_property
    def xs(self) -> np.ndarray:
        """The scan grid breaks[0], breaks[0] + pi/100, ... up to breaks[-1]."""
        xs = np.arange(self.breaks[0], self.breaks[-1] + 0.5 * _STEP, _STEP)
        return xs[xs <= self.breaks[-1]]

    @cached_property
    def trig(self) -> tuple:
        """cos and sin on xs, which every grid scan of E needs."""
        return np.cos(self.xs), np.sin(self.xs)

    @cached_property
    def grid_kernels(self) -> np.ndarray:
        """A0 and H1 on xs from the interpolants, as two contiguous rows."""
        return _interpolated_kernels(self, self.xs).T.copy()


@dataclass(frozen=True)
class NearBestSolution:
    """Fitted (c1, c2) with the achieved sup error minimax, a lower bound on
    the least sup any (c1, c2) achieves, and the first ten roots x_j of E.
    The alternation points of the fit are
    alternation_points(alpha, c1, c2, 10, cache=cache)."""

    alpha: float
    c1: float
    c2: float
    minimax: float
    lower_bound: float
    interp_points: np.ndarray
    # the fit's kernel cache, for further root or error evaluations at alpha
    cache: GridCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.lower_bound <= self.minimax:
            raise ValueError(f"lower bound {self.lower_bound} above the minimax {self.minimax}")
        xs = self.interp_points
        if not (np.diff(xs) > 0).all():
            raise ValueError("interpolation points must be strictly increasing")
        for j, x in enumerate(xs, start=1):
            if j >= 2 and not ((j - 1.5) * math.pi <= x <= (j - 0.5) * math.pi):
                raise ValueError(f"x_{j} = {x} outside [(j-3/2) pi, (j-1/2) pi]")


def _piece_breaks(x_lo: float, x_hi: float) -> np.ndarray:
    """Ends of the interpolant pieces over [x_lo, x_hi]: doubling from x_lo
    below pi, pi wide above it; the last piece ends at x_hi."""
    graded = x_lo * 2.0 ** np.arange(math.ceil(math.log2(math.pi / x_lo)))
    # the slack keeps an x_hi an ulp above k pi (the default grid ends at
    # 40 pi + 1.4e-14) from opening a sliver piece past k pi
    whole = math.pi * np.arange(1, math.ceil(x_hi / math.pi - 1e-9))
    return np.concatenate([graded[graded < x_hi], whole, [x_hi]])


def build_cache(alpha: float, x_max: float = _X_MAX) -> GridCache:
    """Piecewise Chebyshev interpolants of A0 and H1 from the first to the last
    point of the scan grid (step, 2*step, ..., x_max], step pi/100, from one
    kernel_values call per kernel at the pieces' Chebyshev points.  An x_max
    that leaves fewer than two grid points, or more than 10^6 (x_max above
    10^4 pi), is refused before any kernel is evaluated."""
    xs = np.arange(_STEP, x_max + 0.5 * _STEP, _STEP) if x_max <= X_LIMIT else np.empty(0)
    if len(xs) < 2:
        raise ValueError(
            f"x_max must be in (1.5 pi/100, 10^4 pi] (2 to 10^6 grid points), got {x_max}"
        )
    breaks = _piece_breaks(xs[0], xs[-1])
    nodes = cheb_points(breaks[:-1], breaks[1:])
    node_vals = [
        kernel_values(kind, alpha, nodes.ravel()).reshape(nodes.shape)
        for kind in (KernelKind.A0, KernelKind.H1)
    ]
    return GridCache(alpha, breaks, np.stack(node_vals, axis=1))


def _check_constants(c1: float, c2: float) -> None:
    for name, c in (("c1", c1), ("c2", c2)):
        if not math.isfinite(c):
            raise ValueError(f"{name} must be finite, got {c}")


def _error(alpha: float, c1: float, c2: float, x, a0, h1, cos_x, sin_x):
    """E at x (scalar or array) from A0, H1, cos and sin there."""
    return _prefactor(alpha) * (c1 * cos_x * a0 + (1.0 - c1) * sin_x * h1 - c2 * sin_x / x)


def _interpolated_kernels(cache: GridCache, x) -> np.ndarray:
    """A0 and H1 at x (scalar or array) inside [breaks[0], breaks[-1]], by
    barycentric interpolation in the Chebyshev points of x's piece
    (_search.interpolate_pieces); shape x.shape + (2,)."""
    return interpolate_pieces(cache.breaks[:-1], cache.breaks[1:], cache.node_vals, x)


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
    _require_alpha(alpha, 0.0, "limit_error")
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


def _lobe_maxima(cache: GridCache, c1: float, c2: float, tail: float):
    """The top of |E| that needs no search, the largest of the grid maximum
    (ends included), |E(0)| = |p c2| and the amplitude tail |c1| that the
    lobes of E tend to as x -> inf (tail = |p| D(alpha)); and x, |E(x)| of
    every grid lobe within 5% of it, ends included, polished on the
    interpolants by one refine_grid_maxima call (xtol 1e-9 for a kink)."""
    a = np.abs(_error_on_grid(cache, c1, c2))
    top = max(a.max(), abs(_prefactor(cache.alpha) * c2), tail * abs(c1))
    x, v = refine_grid_maxima(
        lambda x: np.abs(_interpolated_error(cache, c1, c2, x)), cache.xs, a, 1e-9, floor=0.95 * top
    )
    return top, x, v


def _polished_sup(cache: GridCache, c1: float, c2: float, tail: float) -> float:
    """sup |E| over (0, inf): the largest of _lobe_maxima's top and polished lobes."""
    top, _, v = _lobe_maxima(cache, c1, c2, tail)
    return float(np.max(v, initial=top))


@dataclass(frozen=True)
class ExchangeResult:
    """What minimize returns: the minimizer x, the level fun of its final
    reference rounded down by its rounding error (_level; a lower bound on
    the minimax), the exchange steps nfev, and the reference's three row
    indices ref."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool
    message: str
    ref: np.ndarray


def _weights(a: np.ndarray) -> np.ndarray:
    """Dual weights of the three rows a (3 x 2): the cross product of its
    columns (np.cross's bits, ten times faster), so that weights @ a = 0."""
    (u0, v0), (u1, v1), (u2, v2) = a.tolist()
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def _level(weights: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Signed level h = sum(weights b) / sum(|weights|) of three rows with
    these dual weights, and |h| rounded down by the rounding error of h.
    For every c, weights @ (a c + b) = weights @ b, so max |a c + b| >= |h|
    (de la Vallee Poussin): |h| bounds the minimax of the rows, and of any
    set holding them, from below.

    The computed h errs by the rounding of its three steps.  With u = 2^-53
    and the weights w as given, the dot product of three terms errs by at
    most 3u sum|w_i b_i|, the sum d of the three |w_i| by 2u d, and the
    quotient adds u |h|, so |fl(h) - h| <= 3u sum|w_i b_i|/d + 3u |h| to
    first order in u, which 4u (sum|w_i b_i|/d + |h|) covers.  Where no term
    cancels (w_i b_i all of the sign of h, as at the final reference of every
    fit in 0.1:1.9:0.1) that is 8u |h|, a few ulps of |h|."""
    d = np.abs(weights).sum()
    h = float(weights @ b / d)
    return h, abs(h) - 4.0 * _U * (float(np.abs(weights * b).sum() / d) + abs(h))


def _start_reference(a: np.ndarray) -> np.ndarray:
    """Three rows whose dual weights are all nonzero when the rows span R^2:
    the longest row, the row least parallel to it, and the row least
    parallel to either."""
    i = int(np.argmax(np.hypot(a[:, 0], a[:, 1])))
    cross_i = np.abs(a[:, 0] * a[i, 1] - a[:, 1] * a[i, 0])
    j = int(np.argmax(cross_i))
    cross_j = np.abs(a[:, 0] * a[j, 1] - a[:, 1] * a[j, 0])
    return np.array([i, j, int(np.argmax(np.minimum(cross_i, cross_j)))])


def minimize(a, b) -> ExchangeResult:
    """min over c in R^2 of max_i |a[i] c + b[i]|, by Stiefel's exchange on
    three-row references.

    The signs of a reference's dual weights give the signs its residuals
    take, so c solves a[ref] c + b[ref] = sign(weights) h for the level h.
    The row of the largest residual comes in; the row going out is the one
    whose removal leaves dual weights of one sign once multiplied by the
    residual signs, which raises |h|.  Converged when no residual exceeds
    |h| by more than 1e-14 relative, or the incoming row is in the
    reference; given up after _MAX_STEPS steps.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ref = _start_reference(a)
    for step in range(1, _MAX_STEPS + 1):
        lam = _weights(a[ref])
        if not lam.all():
            return ExchangeResult(np.zeros(2), math.nan, step, False, "reference rows do not span R^2", ref)
        h, low = _level(lam, b[ref])
        c = np.linalg.lstsq(a[ref], np.sign(lam) * h - b[ref], rcond=None)[0]
        r = a @ c + b
        i = int(np.argmax(np.abs(r)))
        if abs(r[i]) <= abs(h) * (1.0 + 1e-14) or i in ref:
            return ExchangeResult(c, low, step, True, "reference levelled", ref)
        sign = np.sign(r)
        sign[ref] = np.sign(lam) * (np.sign(h) or 1.0)
        for k in range(3):
            new = ref.copy()
            new[k] = i
            s = _weights(a[new]) * sign[new]
            if (s > 0.0).all() or (s < 0.0).all():
                ref = new
                break
        else:
            return ExchangeResult(c, low, step, False, "no exchange keeps the weights of one sign", ref)
    return ExchangeResult(c, low, _MAX_STEPS, False, f"not levelled in {_MAX_STEPS} steps", ref)


def _rows(alpha: float, x, a0, h1, cos_x, sin_x):
    """E = A (c1, c2) + b at x > 0 from A0, H1, cos and sin there: the rows
    A = p (u, -w) and b = p v, u = cos A0 - sin H1, v = sin H1, w = sin/x."""
    p = _prefactor(alpha)
    return p * np.stack([cos_x * a0 - sin_x * h1, -sin_x / x], axis=-1), p * sin_x * h1


def _fixed_rows(cache: GridCache, d: float):
    """x, A and b of the rows every round of a fit solves on: x = 0, whose
    row is (0, -p); x -> inf, whose row (p d, 0), d = D(alpha), gives the
    lobe amplitude |p c1| d; and the cache grid."""
    p = _prefactor(cache.alpha)
    a, b = _rows(cache.alpha, cache.xs, *cache.grid_kernels, *cache.trig)
    x = np.concatenate([[0.0, math.inf], cache.xs])
    return x, np.vstack([[[0.0, -p], [p * d, 0.0]], a]), np.concatenate([[0.0, 0.0], b])


def _interpolated_rows(cache: GridCache, x):
    kern = _interpolated_kernels(cache, x)
    return _rows(cache.alpha, x, kern[..., 0], kern[..., 1], np.cos(x), np.sin(x))


def _two_row_optimum(cache: GridCache, ref_x: np.ndarray):
    """(c1, c2, level) of a fit whose final reference, at the x of ref_x, is
    x = 0 and two rows of one lobe (less than pi/2 apart, with a sign change
    of u between them); None for any other reference.

    Only x = 0 and that lobe are active then, so dE/dc1 = p u vanishes at
    the lobe's top x*: x* is the root of u between the two rows, whatever c.
    E(x*) = E(0) gives c2 = -v/(1 - w) there, and E'(x*) = 0, linear in c1,
    gives c1 from central differences of the rows at x* -+ 1e-5.  The level
    is that of the rows x = 0 and x* -+ 1e-8, a lower bound like any
    reference's.
    """

    def u(x):
        return _interpolated_rows(cache, x)[0][..., 0]

    xa, xb = np.sort(ref_x)[1:]
    if ref_x.min() != 0.0 or not xb - xa < 0.5 * math.pi or u(xa) * u(xb) >= 0.0:
        return None
    x = bisect_root(u, [xa], [xb], 1e-13 * xb)[0]
    p = _prefactor(cache.alpha)
    a, b = _interpolated_rows(cache, x + np.array([0.0, -1e-5, 1e-5, -1e-8, 1e-8]))
    c2 = -b[0] / (a[0, 1] + p)
    da, db = a[2] - a[1], b[2] - b[1]
    c1 = -(da[1] * c2 + db) / da[0]
    _, level = _level(_weights(np.vstack([[0.0, -p], a[3:]])), np.concatenate([[0.0], b[3:]]))
    return float(c1), float(c2), level


def optimize_c(alpha: float) -> NearBestSolution:
    """Fit (c1, c2) minimizing the sup of |E| over (0, inf), and find the
    first ten roots of E at them.

    Valid for 0 < alpha < 2.  D(alpha), which the x -> inf row needs, is
    integrated once, before the cache is built.  E is affine in (c1, c2), so
    on a finite set of x the fit is a linear Chebyshev problem: each grid x
    gives the row of _rows, x = 0 the row (0, -p) and x -> inf the row
    (p D(alpha), 0).  Round 0 solves it on the cache grid by minimize's
    exchange; each round then polishes the grid lobes of its solution
    (_lobe_maxima), and the next solves on the grid plus this round's
    polished maxima, which replace the previous round's.  The level of a
    solve bounds the minimax from below and the polished sup from above; the
    fit stops once they agree to _GAP relative, and returns both.  Where the
    final reference is x = 0 and two rows of one lobe, the rounds do not
    settle, and _two_row_optimum closes the fit.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"optimize_c requires 0 < alpha < 2, got {alpha}")
    d = D_const(alpha)
    tail = abs(_prefactor(alpha)) * d
    cache = build_cache(alpha)
    base_x, base_a, base_b = _fixed_rows(cache, d)
    best = (math.nan, math.nan, math.inf)
    lobes = np.empty(0)
    for _ in range(_ROUNDS):
        lobe_a, lobe_b = _interpolated_rows(cache, lobes)
        res = minimize(np.vstack([base_a, lobe_a]), np.concatenate([base_b, lobe_b]))
        c1, c2 = (float(c) for c in res.x)
        top, next_lobes, v = _lobe_maxima(cache, c1, c2, tail)
        upper, lower = float(np.max(v, initial=top)), res.fun
        best = min(best, (c1, c2, upper), key=lambda fit: fit[2])
        if not res.success or upper <= (1.0 + _GAP) * lower:
            break
        closing = _two_row_optimum(cache, np.concatenate([base_x, lobes])[res.ref])
        if closing is not None:
            c1, c2, lower = closing
            upper = _polished_sup(cache, c1, c2, tail)
            if upper <= (1.0 + _GAP) * lower:
                break
        lobes = next_lobes
    if not (res.success and upper <= (1.0 + _GAP) * lower):
        why = res.message if not res.success else f"bounds {_GAP} apart not reached in {_ROUNDS} rounds"
        raise OptimizeError(
            f"exchange fit for alpha={alpha} not certified: {why}; "
            f"best (c1, c2, sup) = ({best[0]}, {best[1]}, {best[2]})"
        )
    roots = interp_points(alpha, c1, c2, 10, cache=cache)
    return NearBestSolution(alpha, c1, c2, upper, lower, roots, cache)


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
    if not isinstance(j_max, numbers.Integral) or not 1 <= j_max <= MAX_ROOTS:
        raise ValueError(f"j_max must be an integer in [1, {MAX_ROOTS}], got {j_max!r}")
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
    if cache is not None and cache.alpha == alpha and x_max <= cache.breaks[-1]:
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
    between each pair of consecutive interpolation points, all pairs
    polished in one polish_brackets call."""
    _check_constants(c1, c2)
    if not isinstance(j_max, numbers.Integral) or not 0 <= j_max < MAX_ROOTS:
        raise ValueError(f"j_max must be an integer in [0, {MAX_ROOTS - 1}], got {j_max!r}")
    cache = _cache_reaching(alpha, j_max + 1, cache)
    roots = interp_points(alpha, c1, c2, j_max + 1, cache=cache)

    def err(x):
        return limit_error(alpha, c1, c2, x, cache=cache)

    ys, _ = polish_brackets(lambda x: np.abs(err(x)), roots[:-1], roots[1:], 1e-8)
    return [(0.0, -_prefactor(alpha) * c2)] + list(zip(ys.tolist(), err(ys).tolist()))


def p3_poly(alpha: float, n: int, c1: float, c2: float, x: float) -> float:
    """Finite-n tuned polynomial at x in [-1, 1].

    The Chebyshev correction T_{2n+1}(x)/((2n+1) x) is continued through
    x = 0 by its limit T'_{2n+1}(0)/(2n+1) = (-1)^n.
    """
    _check_constants(c1, c2)
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
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
