import math

import numpy as np
import pytest

from bernsteinlab import _search, kernels, nearbest
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


@pytest.mark.parametrize("xtol", [0.0, -1e-9, math.nan, math.inf])
def test_golden_max_names_a_bad_xtol(xtol):
    with pytest.raises(ValueError, match="^xtol must be positive and finite"):
        golden_max(_f, [0.0], [1.0], xtol)


def test_golden_max_closes_a_bracket_narrower_than_xtol_cannot_get():
    # the doubles near 1e10 are 1.9e-6 apart, so no step narrows the bracket
    # to 1e-9; it once looped forever.  The other bracket is polished as alone
    a, b = [1e10, -0.6], [1e10 + 1e-3, 0.1]
    x, fx = golden_max(lambda x: np.where(x > 1e9, -((x - a[0] - 4e-4) ** 2), _f(x)), a, b, 1e-9)
    assert a[0] <= x[0] <= b[0]
    assert (x[1], fx[1]) == _reference_golden_max(_f, a[1], b[1], 1e-9)


def test_refine_grid_maxima_polishes_each_bracket_as_scalar_runs():
    # _f rises towards both ends of [-0.9, 2]: two end maxima and one interior
    # lobe.  Each bracket is polished to at least 2 ulps below the top of a
    # dense scan of it and of 2e-6 about the polished x; a sampled end that
    # the polish does not beat stays
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
    for k, i in enumerate(idx):
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
        scan = np.concatenate([np.linspace(lo, hi, 200_001), x[k] + np.linspace(-1e-6, 1e-6, 2001)])
        top = _f(np.clip(scan, lo, hi)).max()
        assert lo <= x[k] <= hi
        assert v[k] == _f(x[k]) and v[k] >= values[i]
        assert v[k] >= top - 2.0 * np.spacing(top)
    assert (x[0], v[0]) == (xs[0], values[0]) and (x[-1], v[-1]) == (xs[-1], values[-1])


def test_refine_grid_maxima_floor_drops_only_the_lower_maxima():
    # a floor at the second largest of the three sampled maxima keeps two,
    # each with the bits of the call that polishes all three
    xs = np.linspace(-0.9, 2.0, 41)
    values = _f(xs)
    x_all, v_all = refine_grid_maxima(_f, xs, values, xtol=1e-9)
    padded = np.concatenate([[-np.inf], values, [-np.inf]])
    sampled = values[(values >= padded[:-2]) & (values >= padded[2:])]
    assert len(sampled) == len(x_all) == 3
    x, v = refine_grid_maxima(_f, xs, values, xtol=1e-9, floor=np.sort(sampled)[1])
    assert len(x) == 2
    assert set(zip(x, v)) < set(zip(x_all, v_all))


def test_refine_grid_maxima_calls_f_once_per_step():
    # every bracket is smooth, so f is called twice: at the Chebyshev points
    # of all brackets, and at all the Newton tops
    calls = []

    def f(x):
        calls.append(len(x))
        return _f(x)

    xs = np.linspace(-0.9, 3.2, 41)
    x, _ = refine_grid_maxima(f, xs, _f(xs), xtol=1e-9)
    assert calls == [25 * len(x), len(x)]


def _part(x):
    # smooth, and costly in the callers it stands for
    return np.exp(-0.1 * x) * (2.0 + np.cos(0.7 * x))


def _outer(x, p):
    # cheap and exact, with a kink at every multiple of pi, as |sin x| H1
    return np.abs(np.sin(x)) * p


def _split_f(x):
    return _outer(x, _part(x))


def _counting(f, calls):
    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted


def test_refine_grid_maxima_with_part_calls_it_twice():
    # the costly factor is called once at every bracket's interpolation
    # nodes and once at the polished x; every value returned is a true one,
    # and none is below golden section's on the same bracket
    xs = np.linspace(0.2, 12.0, 90)
    calls = []
    part = _counting(_part, calls)
    x, v = refine_grid_maxima(lambda x: _outer(x, part(x)), xs, _split_f(xs), xtol=1e-9)
    assert len(x) == 4
    assert calls == [25 * len(x), len(x)]
    assert (v == _split_f(x)).all()
    values = _split_f(xs)
    idx = [i for i in range(1, len(xs) - 1) if values[i - 1] <= values[i] >= values[i + 1]]
    x_g, v_g = golden_max(_split_f, xs[np.subtract(idx, 1)], xs[np.add(idx, 1)], xtol=1e-9)
    assert (v >= v_g - 2.0 * np.spacing(v_g)).all()
    assert (np.abs(x - x_g) <= 1e-7).all()


def test_refine_grid_maxima_polishes_a_kinked_bracket_on_f():
    # a kink of part inside one bracket leaves its tail far above 2^-40 of
    # the scale: that bracket alone is polished on f, with the bits of
    # golden_max on f, and the others by Newton's method on their series
    xs = np.linspace(0.2, 12.0, 90)
    step = xs[1] - xs[0]
    top = int(np.argmax(_split_f(xs)))  # the lobe at pi/2
    kink = xs[top] + 0.3 * step

    def part(x):
        return _part(x) + 1e-3 * np.abs(x - kink)

    def f(x):
        return _outer(x, part(x))

    calls = []
    counted = _counting(part, calls)
    x, v = refine_grid_maxima(lambda x: _outer(x, counted(x)), xs, f(xs), xtol=1e-9)
    k = int(np.argmin(np.abs(x - xs[top])))
    x_f, v_f = golden_max(f, [xs[top - 1]], [xs[top + 1]], xtol=1e-9)
    assert (x[k], v[k]) == (x_f[0], v_f[0])
    # the nodes, the kinked bracket's golden steps, one entry each, then the rest at once
    assert calls[0] == 25 * len(x) and calls[-1] == len(x) - 1
    assert set(calls[1:-1]) == {1} and len(calls) > 20
    assert (v == f(x)).all()


def test_sup_norms_and_the_fit_run_no_golden_section(monkeypatch):
    # deterministic work gate: every bracket of these searches is smooth, so
    # each is polished by Newton's method on its local series
    def no_golden(*args, **kwargs):
        raise AssertionError("golden section ran")

    monkeypatch.setattr(_search, "golden_max", no_golden)
    nearbest.optimize_c(1.0)
    kernels.sup_norm_H(40.0)
    kernels.sup_norm_H1(10.0)


def test_cheb_map_takes_node_values_to_chebyshev_coefficients():
    # T_k at a piece's 25 first-kind points maps to the k-th unit vector,
    # c_0 doubled
    t = np.cos(np.arange(_search._DEGREE + 1)[:, None] * np.arccos(_search._CHEB_NODES))
    want = np.eye(_search._DEGREE + 1)
    want[0, 0] = 2.0
    assert np.abs(t @ _search._CHEB_MAP - want).max() <= 1e-14


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


@pytest.mark.parametrize("xtol", [0.0, -1e-9, math.nan, math.inf])
def test_bisect_root_names_a_bad_xtol(xtol):
    with pytest.raises(ValueError, match="^xtol must be positive and finite"):
        bisect_root(_g, [0.0], [1.0], xtol)


def test_bisect_root_closes_a_bracket_narrower_than_xtol_cannot_get():
    # the doubles near 1e10 are 1.9e-6 apart, so the midpoint rounds to an
    # end before the bracket is 1e-9 wide; it once looped forever.  Beside
    # another bracket, each is bisected as alone
    x = bisect_root(lambda x: x - 1e10 - 4e-4, [1e10], [1e10 + 1e-3], 1e-9)
    assert abs(x[0] - (1e10 + 4e-4)) <= 16.0 * np.spacing(1e10)
    a, b = [1e10, 0.0], [1e10 + 1e-3, 0.9]
    both = bisect_root(lambda x: np.where(x > 1e9, x - 1e10 - 4e-4, _g(x)), a, b, 1e-9)
    assert both.tolist() == [x[0], _reference_bisect_root(_g, a[1], b[1], 1e-9)]


def test_bisect_root_names_bracket_without_sign_change():
    with pytest.raises(ValueError, match=r"no sign change on \[0\.6, 1\.0\]"):
        bisect_root(_g, [0.0, 0.6, 1.5], [1.0, 1.0, 2.0], 1e-8)
