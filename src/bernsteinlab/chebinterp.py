"""Chebyshev node systems and barycentric Lagrange interpolation of |x|^alpha.

Two node systems for the even interpolant of order 2n on [-1, 1]:

* P2: the 2n+1 zeros of T_{2n+1}, cos((j-1/2) pi / (2n+1)), which include 0;
* P1: the 2n zeros of T_{2n} plus the extra node 0 (not a zero of T_{2n}).

Nodes are built from the equivalent sine form so that symmetry about 0 and
the zero node are exact in floating point.  Evaluation uses the second
barycentric form, whose weights have closed forms here: for Chebyshev
first-kind zeros w_j = (-1)^(j-1) sin(theta_j), and appending the node 0
divides each existing weight by its node and adds the weight (-1)^n (the
standard product-formula update, rescaled by a common factor).

sup_error scans the error on its grid from the interpolant's Chebyshev
coefficients (one DCT-II of the values at the first-kind zeros, then one
DCT-I of the zero-padded coefficients, both by numpy.fft; Trefethen,
Approximation Theory and Approximation Practice, ch. 3), takes each lobe's
top by Newton's method on a 10-point local interpolant of the scan, and
evaluates the barycentric form once, at the tops of the lobes that a
derived bound cannot rule out (see sup_error).
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._search import cos_series, grid_maxima

__all__ = [
    "NodeSystem",
    "InterpError",
    "build_nodes",
    "interp_eval",
    "scaled_interp_eval",
    "check_order",
    "sup_error",
]

_GRID_PER_N = 40  # theta-uniform sup_error grid points per unit of n
_LOBE_RTOL = 1e-2  # sup_error screens the grid maxima within this of the largest
_FLOOR_ULPS = 2.0**16  # sup_error raises below this many roundings of _bary
# sup_error's screen interpolates p(cos theta) at these grid steps s from a
# lobe's sampled top, and takes the top of its lobe in _NEWTON_STEPS steps
_STENCIL = np.arange(-4, 6)
_NEWTON_STEPS = 5
# over _STENCIL, rounded up: the largest |prod_k (s - k)| (1075.107 at
# s = -0.5425) and sum_k |l_k(s)| (1.6977 at s = -0.505) for s in [-1, 1],
# and of their derivatives (2906.68 and 2.8312) for s in [-1/2, 1/2]
_OMEGA, _LEBESGUE_10 = 1075.2, 1.698
_OMEGA_PRIME, _LEBESGUE_PRIME = 2906.7, 2.832
# entries of _bary's (rows, nodes) block: 2^16 doubles (512 kB) measured
# fastest from 2^14 to 2^20; one matrix of a large batch's rows spills out of cache
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class NodeSystem:
    """Interpolation nodes (strictly decreasing) with barycentric weights."""

    scheme: str  # "P1" or "P2"
    n: int  # polynomial order is 2n
    nodes: np.ndarray
    bary_weights: np.ndarray

    def __post_init__(self):
        if not (np.diff(self.nodes) < 0).all():
            raise ValueError("nodes must be strictly decreasing")


@dataclass(frozen=True)
class InterpError:
    """Scaled interpolation error (2n)^alpha * sup |err| over [0, 1]."""

    n: int
    scaled_error: float
    argmax_x: float

    def __post_init__(self):
        if self.scaled_error < 0.0:
            raise ValueError("scaled_error must be >= 0")


def _mirrored_first_kind(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of T_m (decreasing) and their weights, mirrored for exact symmetry."""
    j = np.arange(1, m + 1)
    theta = (j - 0.5) * math.pi / m
    nodes = np.sin(math.pi * (m + 1 - 2 * j) / (2.0 * m))
    sines = np.sin(theta)
    half = m // 2
    # enforce exact symmetry: x_j = -x_{m+1-j}, sin(theta_j) = sin(theta_{m+1-j})
    nodes[m - half :] = -nodes[half - 1 :: -1]
    sines[m - half :] = sines[half - 1 :: -1]
    weights = np.where(j % 2 == 1, 1.0, -1.0) * sines
    return nodes, weights


def build_nodes(scheme: str, n: int) -> NodeSystem:
    """Build the P1 or P2 node system of order 2n (n >= 1)."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if scheme == "P2":
        nodes, weights = _mirrored_first_kind(2 * n + 1)
        return NodeSystem(scheme, n, nodes, weights)
    if scheme == "P1":
        nodes, weights = _mirrored_first_kind(2 * n)
        weights = weights / (2.0 * n * nodes)
        w0 = (-1.0) ** n
        nodes = np.concatenate([nodes[:n], [0.0], nodes[n:]])
        weights = np.concatenate([weights[:n], [w0], weights[n:]])
        return NodeSystem(scheme, n, nodes, weights)
    raise ValueError(f"unknown scheme {scheme!r}; expected 'P1' or 'P2'")


def _values(system: NodeSystem, alpha: float) -> np.ndarray:
    return np.abs(system.nodes) ** alpha


def _bary(system: NodeSystem, fvals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second barycentric form, vectorized over x; exact at the nodes.

    Both sums are taken row by row (numpy's pairwise summation), in place in
    one (rows, nodes) block of about _BLOCK_ENTRIES entries that is reused
    for every block of rows: a point gets the same bits whatever batch it is
    evaluated in, which a matrix-vector product does not promise.  A row
    whose result is not finite has x on a node, or so close to the node 0
    that w / (x - 0) overflows; it takes the value at its nearest node.  A
    NaN x stays NaN.
    """
    nodes = system.nodes
    rows = max(1, _BLOCK_ENTRIES // len(nodes))
    block = np.empty((min(rows, len(x)), len(nodes)))
    out = np.empty(len(x))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, len(x), rows):
            xs = x[lo : lo + rows]
            ratio = block[: len(xs)]
            np.subtract(xs[:, None], nodes, out=ratio)
            np.divide(system.bary_weights, ratio, out=ratio)
            den = ratio.sum(axis=1)
            ratio *= fvals
            out[lo : lo + rows] = ratio.sum(axis=1) / den
    snap = ~np.isfinite(out) & np.isfinite(x)
    if snap.any():
        out[snap] = fvals[np.abs(x[snap, None] - nodes).argmin(axis=1)]
    return out


def _check_alpha(alpha: float) -> None:
    # |t|^alpha at the node t = 0 must be finite
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"requires a finite alpha >= 0, got {alpha}")


def interp_eval(system: NodeSystem, alpha: float, x) -> float:
    """Evaluate the Lagrange interpolant of |t|^alpha at x in [-1, 1].

    Raises ValueError naming alpha unless it is finite and >= 0, and naming
    x unless every x lies in [-1, 1].
    """
    _check_alpha(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    outside = ~(np.abs(xs) <= 1.0)
    if outside.any():
        raise ValueError(f"x must lie in [-1, 1], got {xs[outside][0]}")
    out = _bary(system, _values(system, alpha), xs)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def scaled_interp_eval(system: NodeSystem, alpha: float, x_big: float) -> float:
    """(2n)^alpha * P(x_big / (2n)): the interpolant viewed at the large scale."""
    two_n = 2.0 * system.n
    if not abs(x_big) <= two_n:
        raise ValueError(f"|x_big| must be <= 2n = {two_n}, got {x_big}")
    return two_n**alpha * interp_eval(system, alpha, x_big / two_n)


def check_order(n: int, alpha: float) -> None:
    """Raise ValueError naming n and alpha unless sup_error can take them.

    n must be an integer >= 1, alpha finite and >= 0, and 2n > alpha.
    """
    _check_alpha(alpha)
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if 2 * n <= alpha:
        raise ValueError(f"need 2n > alpha for a meaningful scaled error, got n={n} and alpha={alpha}")


def _coefficients(system: NodeSystem, fvals: np.ndarray) -> np.ndarray:
    """The interpolant's even Chebyshev coefficients c_2l, l <= n, by FFT.

    A DCT-II of the values at the first-kind zeros gives the c_2l; P1 adds
    g T_2n with g fixed by p(0) = 0.
    """
    fft = np.fft  # numpy loads it on first use, not at import
    n = system.n
    f = _first_kind(system, fvals)
    k = np.arange(0, 2 * n + 1, 2)
    # the real FFT of f's even extension is 2 e^(i pi k / (2 len(f))) times
    # the DCT-II sum_j f_j cos(pi k (2j + 1) / (2 len(f))), which is
    # len(f) c_k / 2 (len(f) c_0 at k = 0)
    spectrum = fft.rfft(np.concatenate([f, f[::-1]]))[k]
    coef = (np.exp(-0.5j * math.pi * k / len(f)) * spectrum).real / len(f)
    coef[0] *= 0.5
    if system.scheme == "P1":
        q0 = np.dot(coef[:n], np.where(k[:n] % 4 == 0, 1.0, -1.0))  # T_2l(0) = (-1)^l
        coef[n] = -q0 * (-1.0) ** n
    return coef


def _first_kind(system: NodeSystem, fvals: np.ndarray) -> np.ndarray:
    # the values at the zeros of T_len: all of P2's, P1's without the node 0
    return fvals if system.scheme == "P2" else np.delete(fvals, system.n)


def _scan(system: NodeSystem, fvals: np.ndarray, m: int) -> np.ndarray:
    """The interpolant at cos(theta_i), theta_i = i pi / (2(m - 1)), i < m, by FFT.

    Since p(cos theta) = sum c_2l cos(2 l theta), the m values are one DCT-I
    (cos_series) in phi = 2 theta over [0, pi] of the zero-padded c_2l.
    """
    return cos_series(_coefficients(system, fvals), m)


def _rounding(system: NodeSystem, fvals: np.ndarray, x: float) -> float:
    """eps * sum_j |l_j(x) f_j|: the rounding of _bary's weighted sum at x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = system.bary_weights / (x - system.nodes)
        return float(np.finfo(float).eps * np.abs(q * fvals).sum() / abs(q.sum()))


@functools.cache
def _stencil_monomials() -> np.ndarray:
    """Row k: the ascending monomial coefficients of the Lagrange basis
    polynomial l_k of the node _STENCIL[k]; the nodes are small integers, so
    np.poly's products are exact and each entry is one division off."""
    rows = []
    for k in _STENCIL:
        others = _STENCIL[_STENCIL != k]
        rows.append(np.poly(others)[::-1] / np.prod(k - others))
    return np.array(rows)


def _local_fits(p: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row by row, the monomial coefficients in s of p~(s) = y_0 + sum_k
    l_k(s) (y_k - y_0), which interpolates y_k = p[center + k] at s = k in
    _STENCIL; the y_k - y_0 are small, so p~ rounds as y_0 does."""
    # p(cos theta) is even about theta = 0 and pi/2: 5 samples reflected past either end
    ext = np.concatenate([p[5:0:-1], p, p[-2:-7:-1]])
    y = ext[centers[:, None] + 5 + _STENCIL]
    a = (y - y[:, 4:5]) @ _stencil_monomials()
    a[:, 0] = y[:, 4]
    return a


def _horner(a: np.ndarray, s: np.ndarray):
    """Row by row, the polynomial sum_j a[:, j] s^j and its first two derivatives."""
    v, d1, d2 = a[:, -1], 0.0, 0.0
    for c in a[:, -2::-1].T:
        d2 = d2 * s + d1
        d1 = d1 * s + v
        v = v * s + c
    return v, d1, 2.0 * d2


def _screen_bounds(system, alpha, fvals, coef, p, x_lo):
    """sup_error's B (one per lobe, x_lo the lower end of its bracket) and
    R, the first-order rounding bounds in its docstring."""
    eps = np.finfo(float).eps
    m, n = len(p), system.n
    h = 0.5 * math.pi / (m - 1)
    f = _first_kind(system, fvals)
    # the scan: 7 eps per FFT stage; the DCT-II's in the 2-norm, carried to
    # a value by Cauchy-Schwarz and, for P1, once more through g; P1's sum
    # for g; the DCT-I's, value by value
    scan = eps * (
        28.0 * math.sqrt(n + 1) * math.log2(2 * len(f)) * math.sqrt(np.mean(f * f))
        + (n + 7.0 * math.log2(2 * m - 2) + 5.0) * np.abs(coef).sum()
    )
    norm = np.abs(p).max() / math.cos(math.pi / 80) + scan  # ||p||
    # p~'s rounding: y_k - y_0 <= |k| pi/40 ||p|| (Bernstein), and the sums
    # and Horner's rule take at most 30 roundings of each term
    lagrange = np.abs(_stencil_monomials()) * np.abs(_STENCIL)[:, None]
    ulps = 1.0 + 30.0 * math.pi / 40 * lagrange.sum()
    ulps_slope = 30.0 * math.pi / 40 * (lagrange * np.arange(len(_STENCIL))).sum()
    lebesgue = 2.0 / math.pi * math.log(len(f)) + 1.0  # of the first-kind zeros
    if system.scheme == "P1":
        # l_j(x) x / x_j = l_j(x) + T_2n(x) / (x_j T_2n'(x_j)), |that| <= |w_j|
        lebesgue += np.abs(system.bary_weights).sum()
    # _bary interpolates at the rounded first-kind nodes, x_j off by at most
    # eps (2 sin(theta_j) + |x_j| / 2), which moves p by at most lebesgue
    # max_j |p'(x_j)| times that; p_theta from p~ at theta_j, to within the
    # remainder of its derivative, the scan's rounding and p~'s
    r = (np.arange(1, n + 1) - 0.5) * 2 * (m - 1) / len(f)  # theta_j / h
    centers = np.rint(r).astype(int)
    _, d1, _ = _horner(_local_fits(p, centers), r - centers)
    remainder = 2 * n * (
        (math.pi / 40) ** 9 / math.factorial(10) * _OMEGA_PRIME
        + (math.pi / 40) ** 10 / math.factorial(11) * _OMEGA
    )
    slope = (np.abs(d1) + _LEBESGUE_PRIME * scan + ulps_slope * eps * norm) / h + remainder * norm
    nodes = eps * lebesgue * np.max(slope * (0.5 / np.tan(r * h) + 2.0))
    band = (
        (math.pi / 40) ** 10 / math.factorial(10) * _OMEGA * norm
        + _LEBESGUE_10 * scan
        + ulps * eps * norm
        + nodes
        + eps * (1.0 + alpha + 4.0 * alpha * np.maximum(1.0, x_lo ** (alpha - 1.0)))
    )
    # _bary: 2 roundings per term, numpy's pairwise sums log2 + 12 deep, a
    # division; relative to sum_j |l_j(x)| (|f_j| + |p(x)|) <= lebesgue (1 + ||p||)
    bary = eps * ((math.log2(len(system.nodes)) + 15.0) * lebesgue * (1.0 + norm) + norm + 1.0)
    return band, bary


def _screen(system, alpha, fvals, coef, p, xs, scanned, idx):
    """sup_error's tops of the grid maxima idx of its scan: their x (the
    ends keep theirs) and which can hold the sup, True for the ends and for
    every lobe the bounds in sup_error's docstring cannot rule out."""
    m = len(xs)
    h = 0.5 * math.pi / (m - 1)
    x, keep = xs[idx], np.ones(len(idx), dtype=bool)
    inner = (idx > 0) & (idx < m - 1)
    i = m - 1 - idx[inner]  # the sampled tops, in steps h of theta
    a = _local_fits(p, i)
    sign = np.sign(xs[idx[inner]] ** alpha - p[i])

    def top(s):
        # sign (x^alpha - p~) at theta = (i + s) h and its first two s-derivatives
        v, d1, d2 = _horner(a, s)
        theta = (i + s) * h
        t = np.tan(theta)
        c0 = np.cos(theta) ** alpha
        c1 = -alpha * h * c0 * t
        c2 = alpha * h * h * c0 * ((alpha - 1.0) * t * t - 1.0)
        return sign * (c0 - v), sign * (c1 - d1), sign * (c2 - d2)

    s = np.zeros(len(i))
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            g, g1, g2 = top(s)
            s = np.clip(s - g1 / g2, -1.0, 1.0)
        g, g1, g2 = top(s)
        curv = -g2
        settled = (g > 0.0) & (curv > 0.0) & (np.abs(g1) <= 1e-6 * curv)
        band, bary = _screen_bounds(system, alpha, fvals, coef, p, xs[idx[inner] - 1])
        upper = g + g1 * g1 / curv + band + bary
        lower = g - band - bary
    best = max(lower[settled].max(initial=-math.inf), scanned[idx[~inner]].max(initial=-math.inf))
    x[inner] = np.cos((i + s) * h)
    keep[inner] = ~settled | (upper >= best)
    return x, keep


def sup_error(system: NodeSystem, alpha: float) -> InterpError:
    """(2n)^alpha * sup over [0, 1] of | |x|^alpha - P(x) |.

    The sup is taken over [0, 1] only (the error is even), on a theta-uniform
    grid x = cos(theta) of 40 n + 1 points, theta_i = i h with h = pi/(80 n).
    The grid is scanned in O(n log n) by two FFTs (_coefficients, then
    cos_series), and its ends x = 0 and 1 by _bary; every value returned is
    a _bary value.

    Each lobe of |err| spans about 40 grid steps, so a sampled lobe top is
    within a phase of pi/80 of the true top and at least cos(pi/80), about
    1 - 7.7e-4, of it.  A lobe whose sampled top lies more than _LOBE_RTOL
    (1e-2, left wide for lobes that are not quite cosine-shaped) below the
    largest sample cannot hold the sup: P2 keeps about one lobe, P1 nearly
    all.  Each interior lobe left has its top S taken without _bary
    (_screen): the top of |x^alpha - p~(theta)|, by Newton's method on
    s = theta/h - i in [-1, 1], where p~ interpolates the scanned
    p(cos theta) at the 10 grid steps s = -4..5 from its sampled top i.
    p~ lies within B of the interpolant that _bary evaluates, so the lobe's
    true top lies within S +- B; B is the sum of
      * the remainder of p~: p(cos theta) is a trigonometric polynomial of
        degree 2n, so by Bernstein's inequality its 10th derivative is at
        most (2n)^10 ||p||, and |p - p~| <= (pi/40)^10 / 10! * Omega * ||p||,
        Omega = 1075.2 the largest |prod_k (s - k)| on [-1, 1]; ||p|| is at
        most the largest scanned |p| over cos(pi/80) (the same inequality);
      * the rounding of the scan, carried through p~ (its Lebesgue constant
        on [-1, 1] is 1.698): 7 eps per FFT stage, the DCT-II's error
        bounded in the 2-norm (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 24) and carried to a value by Cauchy-Schwarz, once
        more for P1 through its coefficient g, plus n eps sum |c_2l| for
        the sum that gives g;
      * the rounding of the nodes: _bary interpolates at the rounded nodes,
        each within eps (2 sin(theta_j) + |x_j|/2) of its cosine, which
        moves p by at most the Lebesgue constant of the nodes times the
        largest |p'(x_j)| times that, p' taken from p~;
      * the rounding of p~ itself and of x^alpha at the double theta.
    A _bary value lies within R of the error at its x: R bounds the
    rounding of _bary by the Lebesgue constant of the nodes, at most
    (2/pi) log(2n + 1) + 1 for P2 and (2/pi) log(2n) + 1 + sum_j |w_j|
    for P1 with its weights w_j.  Lobe i is evaluated unless S_i + B_i + R
    lies below the best lower bound L: the larger of an end sample and the
    largest S_j - B_j - R.  One _bary call takes the tops of all the lobes
    kept, and a lobe where Newton's method does not settle is kept and
    taken at its last step.  So the sup and its argmax have the bits of
    evaluating every lobe's top, and the sup lies within 2 B + R of the
    true sup, B that of the lobe holding it.  These are first-order
    bounds; against golden section on every grid maximum, over both
    schemes, n <= 2048 and alpha <= 5.5, the sup stayed within 1.5e-3 of
    them.  Near the rounding floor B and R are a large share of the sup,
    and more lobes, up to all of them, are kept.

    An even alpha (0 included) is reproduced exactly, so its error is 0 at
    x = 0.  Otherwise ValueError names the scheme, n and alpha when the sup
    is below 2^16 times rho = eps * sum_j |l_j(x*) f_j|, the rounding of
    _bary's sum at the argmax x*: such a sup is mostly rounding, and scaled
    by (2n)^alpha it no longer follows n.  It also names n and alpha unless
    2n > alpha (see check_order).
    """
    n = system.n
    check_order(n, alpha)
    if alpha % 2.0 == 0.0:  # the interpolant reproduces x^alpha
        return InterpError(n, 0.0, 0.0)
    fvals = _values(system, alpha)
    m = _GRID_PER_N * n + 1
    theta = np.linspace(0.0, 0.5 * math.pi, m)
    xs = np.cos(theta)[::-1]  # increasing, in [0, 1]
    xs[0] = 0.0

    def abserr(x: np.ndarray) -> np.ndarray:
        return np.abs(x**alpha - _bary(system, fvals, x))

    coef = _coefficients(system, fvals)
    p = cos_series(coef, m)  # at theta, increasing
    scanned = np.abs(xs**alpha - p[::-1])
    scanned[[0, -1]] = abserr(xs[[0, -1]])  # the ends keep these samples
    idx = grid_maxima(scanned, (1.0 - _LOBE_RTOL) * scanned.max())
    tops, keep = _screen(system, alpha, fvals, coef, p, xs, scanned, idx)
    tops, values = tops[keep], scanned[idx[keep]]
    inner = (idx[keep] > 0) & (idx[keep] < m - 1)
    values[inner] = abserr(tops[inner])
    k = int(np.argmax(values))
    sup, x = float(values[k]), float(tops[k])
    rho = _rounding(system, fvals, x)
    if sup < _FLOOR_ULPS * rho:
        raise ValueError(
            f"{system.scheme} n={n} alpha={alpha}: sup/rho = 2^{math.log2(sup / rho):.1f} is below "
            "2^16, so the sup error is mostly the rounding rho of the barycentric sum"
        )
    return InterpError(n, (2.0 * n) ** alpha * sup, x)
