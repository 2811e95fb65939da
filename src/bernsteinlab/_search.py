"""Search helpers: golden-section maximization and bisection."""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, xtol: float = 1e-6):
    """Maximize f on [a, b] by golden-section search; returns (x, f(x)).

    Assumes a single interior maximum in the bracket; callers locate the
    bracket with a coarse grid first.

    With arrays a and b (one bracket per entry) f takes and returns arrays:
    every bracket advances in lockstep, f is called once per step on the
    brackets still open, and x and f(x) come back as arrays.  Each bracket
    takes exactly the steps, in the same arithmetic, that a scalar search
    of it would take.
    """
    if np.ndim(a) or np.ndim(b):
        return _golden_max_many(f, a, b, xtol)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if f1 > fm:
        xm, fm = x1, f1
    if f2 > fm:
        xm, fm = x2, f2
    return xm, fm


def _golden_max_many(f, a, b, xtol: float):
    """golden_max over arrays of brackets: the scalar steps, masked per bracket."""
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
    """Polish every local maximum of sampled |values| with golden sections.

    xs must be increasing.  Returns a list of (x, f(x)) pairs, one per grid
    local maximum, endpoints included.  Golden section never evaluates the
    ends of its bracket, so a maximum at either end of the grid keeps the
    sampled endpoint when that beats the polished interior point.
    """
    out = []
    n = len(xs)
    for i in range(n):
        left = values[i - 1] if i > 0 else -math.inf
        right = values[i + 1] if i < n - 1 else -math.inf
        if values[i] < left or values[i] < right:
            continue
        x, v = golden_max(f, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)], xtol)
        if (i == 0 or i == n - 1) and values[i] > v:
            x, v = xs[i], values[i]
        out.append((x, v))
    return out
