"""Search helpers over arrays of brackets, advanced in lockstep."""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, xtol: float):
    """Maximize f on each bracket [a[i], b[i]] by golden-section search;
    returns arrays x and f(x), one entry per bracket.

    Assumes a single interior maximum in each bracket; callers locate the
    brackets with a coarse grid first.  f takes and returns arrays: every
    bracket takes its own golden steps, and f is called once per step on the
    brackets still open.
    """
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


def bisect_root(f, a, b, xtol: float):
    """Roots of f in the brackets [a[i], b[i]] by plain bisection, one per bracket.

    f takes and returns arrays: it is called on all a, on all b, then once per
    step on the midpoints of the brackets still open, so each bracket takes a
    scalar bisection's midpoints and closes onto an end or midpoint where f = 0.
    The first bracket where f(a) and f(b) do not differ in sign is named in a
    ValueError.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa = np.array(f(a), dtype=float)
    fb = np.array(f(b), dtype=float)
    same = (fa != 0.0) & (fb != 0.0) & (np.signbit(fa) == np.signbit(fb))
    if same.any():
        i = np.argmax(same)
        raise ValueError(f"no sign change on [{a[i]}, {b[i]}]: f(a)={fa[i]}, f(b)={fb[i]}")
    b = np.where(fa == 0.0, a, b)
    a = np.where(fb == 0.0, b, a)
    live = np.flatnonzero(b - a > xtol)
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = np.array(f(m), dtype=float)
        zero = fm == 0.0
        left = zero | (np.signbit(fm) == np.signbit(fa[live]))
        a[live[left]], fa[live[left]] = m[left], fm[left]
        b[live[zero | ~left]] = m[zero | ~left]
        live = live[b[live] - a[live] > xtol]
    return 0.5 * (a + b)


def refine_grid_maxima(f, xs, values, xtol: float):
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
