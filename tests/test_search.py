import numpy as np

from bernsteinlab._search import golden_max


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
