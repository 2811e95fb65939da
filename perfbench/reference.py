"""Reference values for the benchmark's correctness checks.

Nothing here imports bernsteinlab.  The references are published tables
(the same values and tolerances the repository's tests use), closed forms
evaluated with mpmath, mpmath quadrature of the kernel integrals, a
Gauss-Legendre rule written here in numpy, and scipy's barycentric
interpolator.  Each check returns the ratio |result - reference| / tolerance,
so a value <= 1 passes; interval checks use the distance from the interval's
midpoint over its half-width.
"""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BarycentricInterpolator

mp.mp.dps = 20

# published near-best values at alpha = 1, with the tests' tolerances:
# the fit (c1, c2), the interpolation points x_1*..x_10* (tolerance for
# fitted constants), and the best-approximation constant, which bounds the
# near-best sup to [delta, 1.1 delta]
C_TABLE_1 = (0.26, 0.45)
C_TABLE_TOL = 0.03
X_TABLE_1 = (0.34, 2.38, 5.24, 8.23, 11.28, 14.36, 17.47, 20.58, 23.70, 26.83)
X_TABLE_TOL = 0.05
DELTA_INF_1 = 0.280169

# uniform-norm Bernstein constants (Varga & Carpenter, Constr. Approx. 1, 1985)
BETA = {1.0: 0.28016949902386913, 0.5: 0.3486}
BETA_TOL = 5e-3

ALPHA0_INTERVAL = (2.54288, 2.54289)


class CheckFailed(AssertionError):
    """An output disagrees with its reference beyond tolerance."""


def ratio(value: float, ref: float, tol: float, what: str) -> float:
    r = abs(value - ref) / tol
    if not r <= 1.0:
        raise CheckFailed(f"{what}: {value!r} vs reference {ref!r} (tolerance {tol:.3g})")
    return r


def interval_ratio(value: float, lo: float, hi: float, what: str) -> float:
    r = abs(value - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    if not r <= 1.0:
        raise CheckFailed(f"{what}: {value!r} outside [{lo!r}, {hi!r}]")
    return r


# ---------------------------------------------------------------------------
# closed forms and kernel integrals in mpmath
# ---------------------------------------------------------------------------


def C_closed(alpha: float) -> float:
    """C(a) = int t^a/sinh t dt = 2 (1 - 2^-(a+1)) Gamma(a+1) zeta(a+1)."""
    a = mp.mpf(alpha)
    return float(2 * (1 - mp.power(2, -(a + 1))) * mp.gamma(a + 1) * mp.zeta(a + 1))


def D_closed(alpha: float) -> float:
    """D(a) = int t^(a-1)/cosh t dt = 2 Gamma(a) beta(a), beta the Dirichlet beta."""
    a = mp.mpf(alpha)
    return float(2 * mp.gamma(a) * mp.dirichlet(a, [0, 1, 0, -1]))


def J_mp(alpha: float, x: float) -> float:
    """H1(alpha, x) = int t^alpha/sinh(t) x/(x^2+t^2) dt.

    Below alpha = 1 the piece over (0, 1) is taken in u = t^alpha, which
    removes the t^(alpha-1) endpoint singularity that defeats plain
    tanh-sinh at small alpha.
    """
    a, xx = mp.mpf(alpha), mp.mpf(x)

    def k(t):
        return xx / (xx * xx + t * t)

    total = mp.mpf(0)
    if alpha < 1.0:
        p = 1 / a
        near = [0] + ([xx**a] if x < 1.0 else []) + [1]
        total += mp.quad(lambda u: p * u**p / mp.sinh(u**p) * k(u**p), near)
        lo = [mp.mpf(1)]
    else:
        lo = [mp.mpf(0)] + ([xx] if x < 1.0 else []) + [mp.mpf(1)]
    hi = sorted({mp.mpf(v) for v in (x, alpha, 2.0 * alpha + 40.0) if v > 1.0})
    total += mp.quad(lambda t: t**a / mp.sinh(t) * k(t), lo + hi + [mp.inf])
    return float(total)


def F_mp(alpha: float, x: float) -> float:
    """F(a, x) = int t^a / sinh(x t) / (1 + t^2) dt, for a > 1."""
    a, xx = mp.mpf(alpha), mp.mpf(x)
    peak = alpha / x
    pts = sorted({0.0, 1.0, peak, 2.0 * peak + 40.0 / x})
    return float(mp.quad(lambda t: t**a / mp.sinh(xx * t) / (1 + t * t), pts + [mp.inf]))


# ---------------------------------------------------------------------------
# Gauss-Legendre kernel values and dense maximization (numpy)
# ---------------------------------------------------------------------------


def _gl_nodes(alpha: float):
    """Composite 20-point Gauss-Legendre rule on (0, 2 alpha + 60).

    Panels grade geometrically towards t = 0, where x/(x^2+t^2) is sharp for
    small x; for alpha >= 1 the weight t^alpha/sinh t is bounded there.
    """
    t_max = 2.0 * alpha + 60.0
    edges = np.concatenate([[0.0], np.logspace(-6, 0, 25), np.arange(1.25, t_max + 0.25, 0.25)])
    nodes, weights = leggauss(20)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    ts = (mid + half * nodes[None, :]).ravel()
    ws = (half * weights[None, :]).ravel()
    g = np.exp(alpha * np.log(ts) - ts) * 2.0 / (-np.expm1(-2.0 * ts)) * ws
    return ts, g


def J_gl(alpha: float, xs) -> np.ndarray:
    """H1(alpha, x) for alpha >= 1 on an array of x > 0."""
    if alpha < 1.0:
        raise ValueError("J_gl needs alpha >= 1")
    ts, g = _gl_nodes(alpha)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(len(xs))
    for lo in range(0, len(xs), 64):
        x = xs[lo : lo + 64, None]
        out[lo : lo + 64] = (x / (x * x + ts[None, :] ** 2)) @ g
    return out


def dense_max(f, lo: float, hi: float, points: int, lobes: int = 3) -> float:
    """Largest value of a vectorized f on [lo, hi].

    A grid of `points` samples locates the top `lobes` local maxima; each is
    refined by four rounds of 65-point zooming onto its neighbours.
    """
    xs = np.linspace(lo, hi, points)
    v = f(xs)
    inner = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1
    cand = np.concatenate([inner, [0, len(xs) - 1]])
    best = -math.inf
    for i in cand[np.argsort(v[cand])[::-1][:lobes]]:
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        for _ in range(4):
            zs = np.linspace(a, b, 65)
            zv = f(zs)
            j = int(np.argmax(zv))
            a, b = zs[max(j - 1, 0)], zs[min(j + 1, 64)]
        best = max(best, float(zv[j]), float(v[i]))
    return best


def sup_H1_gl(alpha: float) -> float:
    """sup over x > 0 of H1(alpha, x), alpha >= 2 (the maximum lies below alpha + 20 pi)."""
    return dense_max(lambda x: J_gl(alpha, x), 1e-3, alpha + 20.0 * math.pi, 600)


def sup_absH_gl(alpha: float, x_hi: float) -> float:
    """sup over (0, x_hi] of |sin x| H1(alpha, x), alpha >= 1."""
    n = int(x_hi / math.pi * 32) + 1
    return dense_max(lambda x: np.abs(np.sin(x)) * J_gl(alpha, x), 1e-3, x_hi, n, lobes=4)


# ---------------------------------------------------------------------------
# finite-n references
# ---------------------------------------------------------------------------


def node_system(scheme: str, n: int) -> np.ndarray:
    """P2: zeros of T_{2n+1}; P1: zeros of T_{2n} plus 0."""
    m = 2 * n + 1 if scheme == "P2" else 2 * n
    nodes = np.cos((np.arange(1, m + 1) - 0.5) * math.pi / m)
    nodes[np.abs(nodes) < 1e-15] = 0.0  # the middle zero of T_{2n+1}
    return nodes if scheme == "P2" else np.concatenate([nodes, [0.0]])


def scaled_interp_sup(scheme: str, alpha: float, n: int) -> float:
    """(2n)^alpha sup over [0, 1] of | |x|^alpha - P(x) | via scipy's barycentric form."""
    nodes = node_system(scheme, n)
    interp = BarycentricInterpolator(nodes, np.abs(nodes) ** alpha)

    def err(x):
        return np.abs(np.abs(x) ** alpha - interp(x))

    return (2.0 * n) ** alpha * dense_max(err, 0.0, 1.0, 32 * (2 * n + 1), lobes=4)


def best_poly_gap(alpha: float, y_hi: float, coeffs, ref_points, signs, e_n: float) -> float:
    """de la Vallee Poussin certificate of a best even approximation.

    The error y^(alpha/2) - p(y), with p in the Chebyshev basis of
    [0, y_hi], must alternate in sign on the reference with magnitude E_n,
    and its maximum on a dense grid must not exceed E_n.  Returns the
    larger relative gap.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    ref = np.asarray(ref_points, dtype=float)
    theta = np.linspace(0.0, math.pi, 64 * len(coeffs) + 1)
    ys = np.concatenate([0.5 * y_hi * (1.0 + np.cos(theta)), ref])

    def err(y):
        return y ** (0.5 * alpha) - npcheb.chebval(2.0 * y / y_hi - 1.0, coeffs)

    e_ref = err(ref)
    if not (np.sign(e_ref[1:]) * np.sign(e_ref[:-1]) < 0).all():
        raise CheckFailed("error does not alternate on the reference")
    if not (np.sign(e_ref) == np.asarray(signs)).all():
        raise CheckFailed("reported signs disagree with the error on the reference")
    low = np.abs(e_ref).min() / e_n
    high = np.abs(err(ys)).max() / e_n
    return max(1.0 - low, high - 1.0, 0.0)
