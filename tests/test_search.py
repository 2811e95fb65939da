import math

import numpy as np
import pytest

from bernsteinlab._search import bisect_root, golden_max, refine_grid_maxima


def _f(x):
    # several maxima, so brackets take different paths; plain arithmetic, so
    # scalar and array evaluation round identically
    return x * (x - 1.3) * (x + 0.7) * (x - 2.9) * (0.2 - x)


def _reference_golden_max(f, a, b, xtol):
    # the textbook scalar loop, kept here as the reference for the one
    # lockstep loop in the library
    inv_phi = (5.0**0.5 - 1.0) / 2.0
    x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if f1 > fm:
        xm, fm = x1, f1
    if f2 > fm:
        xm, fm = x2, f2
    return xm, fm


def test_golden_max_array_brackets_match_scalar_runs():
    # brackets advanced in lockstep, each bit for bit its own scalar run
    rng = np.random.default_rng(7)
    a = rng.uniform(-2.0, 3.0, 40)
    b = a + rng.uniform(1e-3, 1.5, 40)
    for xtol in (1e-4, 1e-9, 10.0):
        xs, fs = golden_max(_f, a, b, xtol=xtol)
        for i in range(len(a)):
            assert (xs[i], fs[i]) == _reference_golden_max(_f, float(a[i]), float(b[i]), xtol)


def test_golden_max_scalar_bracket_matches_reference_loop():
    # a single bracket is a one-entry array in and out
    rng = np.random.default_rng(11)
    for a, w in zip(rng.uniform(-2.0, 3.0, 40), rng.uniform(1e-3, 1.5, 40)):
        a, b = float(a), float(a + w)
        for xtol in (1e-4, 1e-9, 10.0):
            x, fx = golden_max(_f, [a], [b], xtol=xtol)
            assert x.shape == fx.shape == (1,)
            assert (x[0], fx[0]) == _reference_golden_max(_f, a, b, xtol)


def test_refine_grid_maxima_polishes_each_bracket_as_scalar_runs():
    # _f rises towards both ends of [-0.9, 2]: two end maxima and one interior lobe
    xs = np.linspace(-0.9, 2.0, 41)
    values = _f(xs)
    x, v = refine_grid_maxima(_f, xs, values, xtol=1e-9)
    n = len(xs)
    idx = [
        i
        for i in range(n)
        if values[i] >= (values[i - 1] if i > 0 else -np.inf)
        and values[i] >= (values[i + 1] if i < n - 1 else -np.inf)
    ]
    assert len(idx) == len(x) == 3
    ends_kept = 0
    for k, i in enumerate(idx):
        polished = _reference_golden_max(_f, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)], 1e-9)
        if i in (0, n - 1) and values[i] > polished[1]:
            # a sampled end that beats the interior point of its bracket stays
            assert (x[k], v[k]) == (xs[i], values[i])
            ends_kept += 1
        else:
            assert (x[k], v[k]) == polished
    assert ends_kept == 2


def test_refine_grid_maxima_calls_f_once_per_step():
    calls = []

    def f(x):
        calls.append(len(x))
        return _f(x)

    xs = np.linspace(-0.9, 3.2, 41)
    x, _ = refine_grid_maxima(f, xs, _f(xs), xtol=1e-9)
    # one golden section for all brackets: two opening calls, one per step,
    # one closing call, each on the brackets still open
    assert len(calls) <= 60
    assert max(calls) == len(x)


def _g(x):
    # exact roots at -2, 0.5 and 1.25, all representable, so a bisection
    # midpoint can land on one; plain arithmetic, as _f
    return (x + 2.0) * (x - 0.5) * (x - 1.25)


def _reference_bisect_root(f, a, b, xtol):
    # the plain scalar loop, kept here as the reference for the lockstep one
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError(f"no sign change on [{a}, {b}]")
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


def test_bisect_root_brackets_match_scalar_runs():
    rng = np.random.default_rng(5)
    roots = rng.choice([-2.0, 0.5, 1.25], 30)
    a = list(roots - rng.uniform(1e-3, 0.4, 30))
    b = list(roots + rng.uniform(1e-3, 0.2, 30))
    # a root at the left end, at the right end and at both (the left one is
    # taken); a first midpoint on the root; a bracket already narrower than xtol
    a += [0.5, 1.0, 0.5, 0.0, 1.25 - 2e-14]
    b += [0.9, 1.25, 1.25, 1.0, 1.25 + 1e-14]
    calls = []

    def f(x):
        calls.append(len(x))
        return _g(x)

    for xtol in (1e-8, 1e-13):
        calls.clear()
        got = bisect_root(f, np.array(a), np.array(b), xtol)
        want = [_reference_bisect_root(_g, lo, hi, xtol) for lo, hi in zip(a, b)]
        assert got.shape == (len(a),)
        assert got.tolist() == want
        assert got[-5:-1].tolist() == [0.5, 1.25, 0.5, 0.5]
        # both ends once, then once per step on the brackets still open
        assert calls[:2] == [len(a), len(a)]
        assert len(calls) <= 2 + math.ceil(math.log2(0.6 / xtol))
        assert calls[2] == len(a) - 3 - 1  # the three roots at an end and the narrow bracket
        assert calls[3] == calls[2] - 1  # the midpoint root is done


def test_bisect_root_names_bracket_without_sign_change():
    with pytest.raises(ValueError, match=r"no sign change on \[0\.6, 1\.0\]"):
        bisect_root(_g, [0.0, 0.6, 1.5], [1.0, 1.0, 2.0], 1e-8)
