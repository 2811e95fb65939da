"""Independent oracles used by the tests.

Everything here deliberately avoids the library's tanh-sinh/exp-sinh path:
midpoint rules, fixed Gauss-Legendre panels, direct summation, and an LP
discretization of the minimax problem.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import linprog

CATALAN = 0.9159655941772190150546035149324  # Dirichlet beta(2)
ZETA3 = 1.2020569031595942854  # Apery's constant


def midpoint_singular_power_sinh(exponent: float = 0.1, panels: int = 1_000_000) -> float:
    """int_0^1 t^exponent / sinh(t) dt by midpoint after t = u^10.

    The substitution turns the t^(exponent-1) endpoint behaviour into an
    analytic integrand, so the plain midpoint rule converges at O(N^-2).
    """
    p = 10.0
    u = (np.arange(panels) + 0.5) / panels
    t = u**p
    g = p * u ** (exponent * p + p - 1.0) / np.sinh(t)
    return float(np.sum(g)) / panels


def C_closed_mp(alpha: float) -> float:
    """C(alpha) = int_0^inf t^alpha/sinh(t) dt = 2 Gamma(alpha+1) (1 - 2^-(alpha+1)) zeta(alpha+1),
    in mpmath at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        return float(2 * mpmath.gamma(a + 1) * (1 - mpmath.mpf(2) ** (-a - 1)) * mpmath.zeta(a + 1))


def H_alpha_series_mp(alpha: float, x: float) -> float:
    """The interpolation series of H_alpha(x), summed in mpmath at 40 digits:
    sin x [(2/pi) sum_{n<N} sin(pi a/2) C(a) x^(2n+1), a = alpha-2n-2,
           + 2 x^(2N+1) sum_{k>=1} (-1)^k (k pi)^sigma / (x^2 - (k pi)^2)]
    with N = floor(alpha/2), sigma = alpha - 2N, and the tail past x/pi + 3
    by mpmath's nsum (Richardson and Shanks extrapolation)."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        big_n = int(mpmath.floor(a / 2))
        sigma = a - 2 * big_n
        poly = 0
        for n in range(big_n):
            b = a - 2 * n - 2
            c = 2 * mpmath.gamma(b + 1) * (1 - mpmath.mpf(2) ** (-b - 1)) * mpmath.zeta(b + 1)
            poly += 2 / mpmath.pi * mpmath.sin(mpmath.pi * b / 2) * c * x ** (2 * n + 1)

        def term(k):
            kp = k * mpmath.pi
            return (-1) ** int(k) * kp**sigma / (x * x - kp * kp)

        k0 = int(mpmath.ceil(x / mpmath.pi)) + 3
        series = mpmath.fsum(term(k) for k in range(1, k0 + 1)) + mpmath.nsum(term, [k0 + 1, mpmath.inf])
        return float(mpmath.sin(x) * (poly + 2 * x ** (2 * big_n + 1) * series))


def D_closed_mp(alpha: float) -> float:
    """D(alpha) = int_0^inf t^(alpha-1)/cosh(t) dt = 2 Gamma(alpha) beta(alpha), with
    beta the Dirichlet beta function (the L-series of the character mod 4), in
    mpmath at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        return float(2 * mpmath.gamma(a) * mpmath.dirichlet(a, [0, 1, 0, -1]))


def midpoint_power_cosh(alpha: float, panels: int = 1_000_000, upper: float = 60.0) -> float:
    """int_0^inf t^(alpha-1)/cosh(t) dt by midpoint on (0, upper), alpha > 1."""
    t = (np.arange(panels) + 0.5) * (upper / panels)
    with np.errstate(over="ignore"):
        g = t ** (alpha - 1.0) / np.cosh(t)
    return float(np.sum(g)) * upper / panels


def _gl_rule(t_max: float, panels: int = 64, order: int = 8):
    nodes, weights = leggauss(order)
    edges = np.linspace(0.0, t_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    ts = (mid + half * nodes[None, :]).ravel()
    ws = (half * weights[None, :]).ravel()
    return ts, ws


def gl_sinh_kernel_grid(alpha: float, xs: np.ndarray, t_max: float = 80.0) -> np.ndarray:
    """J(alpha, x) = int t^alpha/sinh(t) x/(x^2+t^2) dt on a fixed GL rule.

    Valid for alpha >= 1 (no endpoint singularity).  Vectorized and chunked
    over the x grid.
    """
    ts, ws = _gl_rule(t_max)
    g = np.exp(alpha * np.log(ts) - ts) * 2.0 / (-np.expm1(-2.0 * ts)) * ws
    out = np.empty(len(xs))
    for lo in range(0, len(xs), 4096):
        x = xs[lo : lo + 4096, None]
        out[lo : lo + 4096] = (x / (x * x + ts[None, :] ** 2)) @ g
    return out


def lp_minimax(alpha: float, n: int, grid_m: int = 4000) -> float:
    """Best degree-n approximation error of y^(alpha/2) on [0, 1] by LP.

    Discretized minimax: minimize E subject to |f(y_i) - p(y_i)| <= E on a
    Chebyshev-distributed grid; the Chebyshev basis keeps the LP well
    conditioned.
    """
    theta = np.linspace(0.0, np.pi, grid_m)
    y = 0.5 * (1.0 + np.cos(theta))[::-1]
    f = y ** (0.5 * alpha)
    u = 2.0 * y - 1.0
    v = np.empty((grid_m, n + 1))
    v[:, 0] = 1.0
    v[:, 1] = u
    for k in range(2, n + 1):
        v[:, k] = 2.0 * u * v[:, k - 1] - v[:, k - 2]
    ones = np.ones((grid_m, 1))
    a_ub = np.vstack([np.hstack([v, -ones]), np.hstack([-v, -ones])])
    b_ub = np.concatenate([f, -f])
    cost = np.zeros(n + 2)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 2), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.x[-1])


def brute_minimax_even_quadratic(samples: int = 2001) -> float:
    """min over (a, c) of max_x | |x| - (a x^2 + c) | on [-1, 1], by grid scan."""
    x = np.linspace(0.0, 1.0, samples)
    best = math.inf
    for a in np.linspace(0.8, 1.2, 81):
        resid = x - a * x * x
        lo, hi = resid.min(), resid.max()
        # optimal c centers the residual range
        best = min(best, 0.5 * (hi - lo))
    return best


def direct_alternating_odd_sum(s: float, terms: int = 2_000_000) -> float:
    """sum (-1)^n (1+2n)^-s by direct summation, averaging the last partials."""
    n = np.arange(terms, dtype=float)
    t = np.where(n % 2 == 0, 1.0, -1.0) * (1.0 + 2.0 * n) ** -s
    total = float(np.sum(t))
    # average of the last two partial sums kills the leading remainder
    return total - 0.5 * float(t[-1])
