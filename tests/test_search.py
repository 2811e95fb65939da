import numpy as np

from bernsteinlab._search import golden_max, refine_grid_maxima


def _f(x):
    # several maxima, so brackets take different paths; plain arithmetic, so
    # scalar and array evaluation round identically
    return x * (x - 1.3) * (x + 0.7) * (x - 2.9) * (0.2 - x)


def test_golden_max_array_brackets_match_scalar_runs():
    rng = np.random.default_rng(7)
    a = rng.uniform(-2.0, 3.0, 40)
    b = a + rng.uniform(1e-3, 1.5, 40)
    for xtol in (1e-4, 1e-9):
        xs, fs = golden_max(_f, a, b, xtol=xtol)
        for i in range(len(a)):
            assert (xs[i], fs[i]) == golden_max(_f, float(a[i]), float(b[i]), xtol=xtol)


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


def test_golden_max_scalar_bracket_matches_reference_loop():
    rng = np.random.default_rng(11)
    for a, w in zip(rng.uniform(-2.0, 3.0, 40), rng.uniform(1e-3, 1.5, 40)):
        a, b = float(a), float(a + w)
        for xtol in (1e-4, 1e-9, 10.0):
            got = golden_max(_f, a, b, xtol=xtol)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == _reference_golden_max(_f, a, b, xtol)


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
        polished = golden_max(_f, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n - 1)]), xtol=1e-9)
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
