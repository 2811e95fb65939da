"""Search helpers over arrays of brackets, advanced in lockstep (the one
maximum polisher among them), the piecewise Chebyshev interpolant of
nearbest's cache, and the DCT-I that sums a cosine series on a uniform grid.

A piece [lo, hi] is interpolated in degree _DEGREE on the Chebyshev points
of the first kind mapped onto it, by the barycentric formula; its error
is estimated from the last two of its Chebyshev coefficients (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, ch. 3 and 8).
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_DEGREE = 24  # of the Chebyshev interpolant on each piece
_CHEB_ANGLES = math.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)
_CHEB_NODES = np.cos(_CHEB_ANGLES)  # first kind, on [-1, 1]
_BARY_WEIGHTS = (-1.0) ** np.arange(_DEGREE + 1) * np.sin(_CHEB_ANGLES)
_BLOCK = 512  # points interpolated per block, bounding the temporaries
# a piece's Chebyshev coefficients, c_0 doubled, are c_k = sum_j f_j
# _CHEB_MAP[j, k] = 2/(_DEGREE + 1) sum_j f_j cos(k theta_j) for its node
# values f_j
_CHEB_MAP = 2.0 / (_DEGREE + 1) * np.cos(_CHEB_ANGLES[:, None] * np.arange(_DEGREE + 1.0))
# a bracket whose tail exceeds this share of the largest |f| at any
# bracket's nodes is polished by golden section on f
_TAIL_RTOL = 2.0**-40
_NEWTON_STEPS = 10
_STEP_TOL = 4.0 * float(np.finfo(float).eps)  # a few ulps of t in [-1, 1]


def _closing_width(a, b, xtol: float):
    """Each bracket's closing width, as golden_max states it."""
    if not 0.0 < xtol < math.inf:
        raise ValueError(f"xtol must be positive and finite, got {xtol}")
    return np.maximum(xtol, 16.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))


def golden_max(f, a, b, xtol: float):
    """Maximize f on each bracket [a[i], b[i]] by golden-section search;
    returns arrays x and f(x), one entry per bracket.

    Assumes a single interior maximum in each bracket; callers locate the
    brackets with a coarse grid first.  f takes and returns arrays: every
    bracket takes its own golden steps, and f is called once per step on the
    brackets still open.  A bracket closes once it is at most xtol wide, or
    at most 16 ulps of its larger end wide, where a step may no longer
    narrow it (xtol below the spacing of the doubles in it).  Raises
    ValueError naming xtol unless it is positive and finite.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    tol = _closing_width(a, b, xtol)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = np.array(f(x1), dtype=float)
    f2 = np.array(f(x2), dtype=float)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        up = f1[live] < f2[live]
        u, d = live[up], live[~up]
        a[u], x1[u], f1[u] = x1[u], x2[u], f2[u]
        b[d], x2[d], f2[d] = x2[d], x1[d], f1[d]
        x2[u] = a[u] + _INVPHI * (b[u] - a[u])
        x1[d] = b[d] - _INVPHI * (b[d] - a[d])
        fv = f(np.concatenate([x2[u], x1[d]]))
        f2[u], f1[d] = fv[: len(u)], fv[len(u) :]
        live = live[b[live] - a[live] > tol[live]]
    xm = 0.5 * (a + b)
    fm = np.array(f(xm), dtype=float)
    for x, fx in ((x1, f1), (x2, f2)):
        better = fx > fm
        xm[better], fm[better] = x[better], fx[better]
    return xm, fm


def bisect_root(f, a, b, xtol: float):
    """Roots of f in the brackets [a[i], b[i]] by plain bisection, one per bracket.

    f takes and returns arrays: it is called on all a, on all b, then once per
    step on the midpoints of the brackets still open, so each bracket takes a
    scalar bisection's midpoints and closes onto an end or midpoint where f = 0.
    A bracket closes as in golden_max, and ValueError names xtol unless it is
    positive and finite, or the first bracket where f(a) and f(b) do not
    differ in sign.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    tol = _closing_width(a, b, xtol)
    fa = np.array(f(a), dtype=float)
    fb = np.array(f(b), dtype=float)
    same = (fa != 0.0) & (fb != 0.0) & (np.signbit(fa) == np.signbit(fb))
    if same.any():
        i = np.argmax(same)
        raise ValueError(f"no sign change on [{a[i]}, {b[i]}]: f(a)={fa[i]}, f(b)={fb[i]}")
    b = np.where(fa == 0.0, a, b)
    a = np.where(fb == 0.0, b, a)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = np.array(f(m), dtype=float)
        zero = fm == 0.0
        left = zero | (np.signbit(fm) == np.signbit(fa[live]))
        a[live[left]], fa[live[left]] = m[left], fm[left]
        b[live[zero | ~left]] = m[zero | ~left]
        live = live[b[live] - a[live] > tol[live]]
    return 0.5 * (a + b)


def cos_series(coef, m: int) -> np.ndarray:
    """sum_k coef[k] cos(k phi_i) at phi_i = i pi / (m - 1), i < m, by one
    DCT-I: irfft(X, 2N)[i] = (X_0 + 2 sum_l X_l cos(pi l i / N)) / (2N) for
    i <= N = m - 1, so X = N coef, zero-padded, with X_0 doubled.  coef may
    hold at most m - 1 terms.  numpy loads its fft module on first use, not
    at import.
    """
    half = m - 1
    x = np.asarray(coef, dtype=float) * half
    x[0] *= 2.0
    return np.fft.irfft(x, 2 * half)[:m]


def grid_maxima(values, floor=-math.inf) -> np.ndarray:
    """Indices of the local maxima of sampled values, ends included, that
    are not below floor."""
    values = np.asarray(values, dtype=float)
    last = len(values) - 1
    idx = np.flatnonzero(~(values < floor))
    v = values[idx]
    left = np.where(idx > 0, values[np.maximum(idx - 1, 0)], -math.inf)
    right = np.where(idx < last, values[np.minimum(idx + 1, last)], -math.inf)
    return idx[~((v < left) | (v < right))]


def cheb_points(lo, hi) -> np.ndarray:
    """The _DEGREE + 1 Chebyshev points of the first kind of every piece
    [lo[i], hi[i]], one row per piece."""
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * _CHEB_NODES


def interpolate_pieces(starts, ends, node_vals, x) -> np.ndarray:
    """The piecewise interpolant at x (scalar or array) whose piece i spans
    [starts[i], ends[i]] and takes the values node_vals[i, :, j] at its
    Chebyshev points j, by the barycentric formula; shape x.shape + (m,)
    for node_vals of shape (pieces, m, _DEGREE + 1).

    starts must be nondecreasing, and x takes the last piece that starts at
    or before it, so pieces that share their ends (nearbest's breaks) read
    each x from the piece holding it.  A 1-D x of more than _BLOCK points
    is worked through in blocks of _BLOCK, so the temporaries stay bounded.
    The barycentric form is used rather than a Clenshaw sum of Chebyshev
    coefficients: at degree 24 it matches batched quadrature to about 1e-15
    relative where the Clenshaw sum drifted to about 8e-15.
    """
    if np.ndim(x) == 1 and len(x) > _BLOCK:
        blocks = range(0, len(x), _BLOCK)
        return np.concatenate(
            [interpolate_pieces(starts, ends, node_vals, x[i : i + _BLOCK]) for i in blocks]
        )
    k = np.searchsorted(starts[1:], x, side="right")
    lo, hi = starts[k], ends[k]
    # q = _BARY_WEIGHTS / d for d the offsets from the nodes, in place; at a
    # node itself its weight swamps the others and the node value comes back
    q = ((2.0 * x - (hi + lo)) / (hi - lo))[..., None] - _CHEB_NODES
    q[q == 0.0] = 1e-300
    np.divide(_BARY_WEIGHTS, q, out=q)
    return np.einsum("...kj,...j->...k", node_vals[k], q) / q.sum(axis=-1)[..., None]


def _chebder(c: np.ndarray) -> np.ndarray:
    """Each row's derivative (c_0 is not read): numpy.polynomial's chebder,
    which the package does not import, as it adds about 3 ms at import."""
    d = np.zeros((len(c), c.shape[1] + 1))
    for k in range(c.shape[1] - 1, 0, -1):
        d[:, k - 1] = d[:, k + 1] + 2.0 * k * c[:, k]
    d[:, 0] *= 0.5
    return d[:, :-2]


def centred_series(vals: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients of each row of vals, a bracket's values at
    its cheb_points, less its middle node (so c_0 is off by that value):
    they round relative to the row's change, not its size.  vals is
    overwritten by the offsets."""
    vals -= vals[:, _DEGREE // 2, None]
    return vals @ _CHEB_MAP


def newton_tops(c: np.ndarray, t, closed=None) -> np.ndarray:
    """Each bracket's t in [-1, 1], its own coordinate, where g'(t) = 0, by
    Newton's method from t: g is the series of coefficients c[i] (c_0 is
    not read), as centred_series gives them, or h minus it, closed(t, live)
    giving h', h'' at t for the brackets live.  Steps are clamped to
    [-1, 1]; a bracket stops after _NEWTON_STEPS, at a step of at most
    _STEP_TOL or no smaller than its last, or at a NaN step."""
    d1 = _chebder(c)
    d2 = _chebder(d1)
    t = np.array(t, dtype=float)
    last, live = np.full(len(t), np.inf), np.arange(len(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            tl = t[live]
            h1, h2 = (0.0, 0.0) if closed is None else closed(tl, live)
            cheb = np.cos(np.arccos(tl)[:, None] * np.arange(_DEGREE))  # T_k(t)
            de = h1 - np.einsum("ij,ij->i", cheb, d1[live])
            dde = h2 - np.einsum("ij,ij->i", cheb[:, :-1], d2[live])
            step = np.clip(tl - de / dde, -1.0, 1.0) - tl
            step[np.isnan(step)] = 0.0
            t[live] = tl + step
            moving = (np.abs(step) > _STEP_TOL) & (np.abs(step) < last[live])
            last[live] = np.abs(step)
            live = live[moving]
            if not live.size:
                break
    return t


def polish_brackets(f, a, b, xtol: float):
    """x and f(x) at the top of f on every bracket [a[i], b[i]]: newton_tops
    on the series through f at the bracket's cheb_points, from the point
    where f is largest.  f takes and returns arrays, and is called at every
    bracket's points and at the tops, so every value returned is f's own.
    A bracket whose last two Chebyshev coefficients sum above _TAIL_RTOL of
    the largest |f| at any bracket's points (a kink, say) takes golden_max
    on f to xtol instead: f may be tiny on one bracket while its rounding,
    the floor under any tail, is set by its size elsewhere."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x, v = np.empty(len(a)), np.empty(len(a))
    vals = np.asarray(f(cheb_points(a, b).ravel()), dtype=float).reshape(len(a), _DEGREE + 1)
    scale = max(vals.max(initial=0.0), -vals.min(initial=0.0))
    t = _CHEB_NODES[np.argmax(vals, axis=1)]
    c = centred_series(vals)
    del vals  # (brackets, 25) arrays are dropped once used, for the peak RSS
    smooth = np.abs(c[:, -2]) + np.abs(c[:, -1]) <= _TAIL_RTOL * scale  # NaN goes to golden section
    rough = ~smooth
    if rough.any():
        x[rough], v[rough] = golden_max(f, a[rough], b[rough], xtol)
    if smooth.any():
        lo, hi = a[smooth], b[smooth]
        t = newton_tops(c[smooth], t[smooth])
        x[smooth] = np.clip(0.5 * (hi + lo) + 0.5 * (hi - lo) * t, lo, hi)
        v[smooth] = f(x[smooth])
    return x, v


def refine_grid_maxima(f, xs, values, xtol: float, floor: float = -math.inf):
    """Polish every local maximum of sampled values to its top.

    xs must be increasing and f takes and returns arrays.  Every grid local
    maximum, ends included, whose sampled value is not below floor is
    bracketed by its grid neighbours, and all are polished by one
    polish_brackets call.  Returns arrays x and f(x), one entry per
    maximum, the sample where the polish is lower (or NaN): an end of the
    grid is no Chebyshev point of its bracket.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(values)
    idx = grid_maxima(values, floor)
    x, v = polish_brackets(f, xs[np.maximum(idx - 1, 0)], xs[np.minimum(idx + 1, n - 1)], xtol)
    low = ~(v >= values[idx])
    x[low], v[low] = xs[idx[low]], values[idx[low]]
    return x, v
