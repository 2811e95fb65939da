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
"""

import math
from dataclasses import dataclass

import numpy as np

from ._search import refine_grid_maxima

__all__ = ["NodeSystem", "InterpError", "build_nodes", "interp_eval", "scaled_interp_eval", "sup_error"]

_GRID_PER_N = 40  # theta-uniform sup_error grid points per unit of n
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
    if n < 1:
        raise ValueError("n must be >= 1")
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


def sup_error(system: NodeSystem, alpha: float) -> InterpError:
    """(2n)^alpha * sup over [0, 1] of | |x|^alpha - P(x) |.

    The sup is taken over [0, 1] only (the error is even).  A theta-uniform
    grid x = cos(theta) with 40 n points resolves every oscillation of the
    error, and all grid maxima are polished together by one array golden
    section, whose every step is one batched _bary call; the end x = 1,
    where the P1 error peaks, is kept when it is the larger.  _bary bounds
    its own memory by working in blocks of rows, so each batch is one call.
    """
    n = system.n
    _check_alpha(alpha)
    if 2 * n <= alpha:
        raise ValueError("need 2n > alpha for a meaningful scaled error")
    fvals = _values(system, alpha)
    m = _GRID_PER_N * n + 1
    theta = np.linspace(0.0, 0.5 * math.pi, m)
    xs = np.cos(theta)[::-1]  # increasing, in [0, 1]
    xs[0] = 0.0

    def abserr(x: np.ndarray) -> np.ndarray:
        return np.abs(x**alpha - _bary(system, fvals, x))

    peaks, values = refine_grid_maxima(abserr, xs, abserr(xs), xtol=1e-10)
    k = int(np.argmax(values))
    return InterpError(n, (2.0 * n) ** alpha * float(values[k]), float(peaks[k]))
