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
the three terms are linear in (c1, c2), so kernel values on a fixed grid
are precomputed once (GridCache) and each objective evaluation is a few
vector operations plus golden-section polish of the top lobes.  The scan
grid (step pi/100 up to 40 pi) and the number of polished lobes are fixed;
off-grid kernel values come from kernel_eval at the package's one quadrature
configuration.

The correction term exists because both interpolation schemes reproduce
|x|^alpha at x = 0 while the best approximation alternates there; c2
controls the error value E(0) = -(2/pi) sin(pi alpha/2) c2.
"""

import math
from dataclasses import dataclass, field

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


class OptimizeError(RuntimeError):
    """Minimax descent failure; carries the best (c1, c2, objective) so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class GridCache:
    """Kernel values on a fixed x-grid, reusable across (c1, c2) because the
    scaled limit error is linear in both constants."""

    alpha: float
    xs: np.ndarray
    a0_vals: np.ndarray
    h1_vals: np.ndarray

    def __post_init__(self):
        step = np.diff(self.xs).max()
        if step > _MAX_GRID_STEP + 1e-12:
            raise ValueError(f"grid step {step} exceeds pi/40")


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


def build_cache(alpha: float, x_max: float = _X_MAX) -> GridCache:
    """Precompute A0 and H1 on the scan grid (step, 2*step, ..., x_max], step pi/100."""
    xs = np.arange(_STEP, x_max + 0.5 * _STEP, _STEP)
    return GridCache(
        alpha,
        xs,
        kernel_values(KernelKind.A0, alpha, xs),
        kernel_values(KernelKind.H1, alpha, xs),
    )


def _prefactor(alpha: float) -> float:
    return (2.0 / math.pi) * math.sin(0.5 * math.pi * alpha)


def limit_error(
    alpha: float,
    c1: float,
    c2: float,
    x: float,
    cache: GridCache | None = None,
) -> float:
    """Scaled limit error E(x) of the tuned combination; x = 0 gives the limit.

    With a cache, grid abscissas reuse the stored kernel values; any other x
    falls back to direct quadrature.
    """
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    pref = _prefactor(alpha)
    if x == 0.0:
        return -pref * c2
    if cache is not None and cache.alpha == alpha:
        step = cache.xs[0]
        idx = int(round(x / step)) - 1
        if 0 <= idx < len(cache.xs) and abs(cache.xs[idx] - x) < 1e-12:
            a0 = cache.a0_vals[idx]
            h1 = cache.h1_vals[idx]
            return pref * (
                c1 * math.cos(x) * a0 + (1.0 - c1) * math.sin(x) * h1 - c2 * math.sin(x) / x
            )
    a0 = kernel_eval(KernelKind.A0, alpha, x)
    h1 = kernel_eval(KernelKind.H1, alpha, x)
    return pref * (
        c1 * math.cos(x) * a0 + (1.0 - c1) * math.sin(x) * h1 - c2 * math.sin(x) / x
    )


def _error_on_grid(cache: GridCache, c1: float, c2: float) -> np.ndarray:
    pref = _prefactor(cache.alpha)
    xs = cache.xs
    return pref * (
        c1 * np.cos(xs) * cache.a0_vals
        + (1.0 - c1) * np.sin(xs) * cache.h1_vals
        - c2 * np.sin(xs) / xs
    )


def _polished_sup(cache: GridCache, c1: float, c2: float) -> float:
    """sup |E| over (0, X]: grid scan plus golden polish of the top lobes."""
    a = np.abs(_error_on_grid(cache, c1, c2))
    interior = (a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])
    idx = np.flatnonzero(interior) + 1
    if len(idx) == 0:
        idx = np.array([int(np.argmax(a))])
    order = idx[np.argsort(a[idx])[::-1]]
    top = a[order[0]]
    best = max(top, abs(_prefactor(cache.alpha) * c2))
    alpha = cache.alpha
    for i in order[:_MAX_LOBES]:
        if a[i] < 0.95 * top:
            break
        lo = cache.xs[max(i - 1, 0)]
        hi = cache.xs[min(i + 1, len(cache.xs) - 1)]
        _, v = golden_max(
            lambda x: abs(limit_error(alpha, c1, c2, x)), lo, hi, xtol=1e-6
        )
        best = max(best, v)
    return best


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
    alts = alternation_points(alpha, c1, c2, 10, cache=cache)
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
    roots = interp_points(alpha, c1, c2, j_max + 1, cache=cache)

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
