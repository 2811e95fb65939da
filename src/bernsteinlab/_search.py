"""Search helpers: golden-section maximization and bisection."""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, xtol: float = 1e-6):
    """Maximize f on [a, b] by golden-section search; returns (x, f(x)).

    Assumes a single interior maximum in each bracket; callers locate the
    brackets with a coarse grid first.

    With arrays a and b (one bracket per entry) f takes and returns arrays:
    every bracket advances in lockstep, f is called once per step on the
    brackets still open, and x and f(x) come back as arrays.  A scalar
    bracket runs the same loop as a one-element array, with f applied to
    each point alone, and comes back as two floats.
    """
    if np.ndim(a) or np.ndim(b):
        return _golden_max_many(f, a, b, xtol)
    x, fx = _golden_max_many(lambda xs: [f(float(x)) for x in xs], [a], [b], xtol)
    return float(x[0]), float(fx[0])


def _golden_max_many(f, a, b, xtol: float):
    """golden_max over arrays of brackets, each taking its own golden steps,
    masked per bracket."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = np.array(f(x1), dtype=float)
    f2 = np.array(f(x2), dtype=float)
    live = np.flatnonzero(b - a > xtol)
    while live.size:
        up = f1[live] < f2[live]
        u, d = live[up], live[~up]
        a[u], x1[u], f1[u] = x1[u], x2[u], f2[u]
        b[d], x2[d], f2[d] = x2[d], x1[d], f1[d]
        x2[u] = a[u] + _INVPHI * (b[u] - a[u])
        x1[d] = b[d] - _INVPHI * (b[d] - a[d])
        fv = f(np.concatenate([x2[u], x1[d]]))
        f2[u], f1[d] = fv[: len(u)], fv[len(u) :]
        live = live[b[live] - a[live] > xtol]
    xm = 0.5 * (a + b)
    fm = np.array(f(xm), dtype=float)
    for x, fx in ((x1, f1), (x2, f2)):
        better = fx > fm
        xm[better], fm[better] = x[better], fx[better]
    return xm, fm


def bisect_root(f, a: float, b: float, xtol: float):
    """Root of f in [a, b] by plain bisection; f(a) and f(b) must differ in sign."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def refine_grid_maxima(f, xs, values, xtol: float = 1e-6):
    """Polish every local maximum of sampled values with golden sections.

    xs must be increasing and f takes and returns arrays.  Every grid local
    maximum, endpoints included, is bracketed by its grid neighbours and all
    brackets are polished in one array golden_max call.  Returns arrays x and
    f(x), one entry per maximum.  Golden section never evaluates the ends of
    its bracket, so a maximum at either end of the grid keeps the sampled
    endpoint when that beats the polished interior point.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(values)
    padded = np.concatenate([[-math.inf], values, [-math.inf]])
    idx = np.flatnonzero(~((values < padded[:-2]) | (values < padded[2:])))
    x, v = golden_max(f, xs[np.maximum(idx - 1, 0)], xs[np.minimum(idx + 1, n - 1)], xtol)
    end = ((idx == 0) | (idx == n - 1)) & (values[idx] > v)
    x[end], v[end] = xs[idx[end]], values[idx[end]]
    return x, v
