import math

import numpy as np
import pytest

from bernsteinlab import specfun
from bernsteinlab.quadrature import integrate_zero_to_inf

import oracles


def test_gamma_factorial():
    assert specfun.gamma(5.0) == 24.0


def test_gamma_half():
    assert abs(specfun.gamma(0.5) - math.sqrt(math.pi)) <= 1e-15


def test_gamma_vs_quadrature_oracle():
    v = integrate_zero_to_inf(lambda t: np.exp(9.3 * np.log(t) - t))
    assert abs(specfun.gamma(10.3) - v.value) <= 1e-11 * v.value


def test_gamma_domain_and_overflow():
    with pytest.raises(ValueError):
        specfun.gamma(0.0)
    with pytest.raises(ValueError):
        specfun.gamma(-2.5)
    with pytest.raises(OverflowError):
        specfun.gamma(200.0)
    with pytest.raises(OverflowError, match=r"gamma\(inf\)"):
        specfun.gamma(math.inf)


def test_zeta_classical_values():
    assert abs(specfun.zeta(2.0) - math.pi**2 / 6.0) <= 1e-13
    assert abs(specfun.zeta(4.0) - math.pi**4 / 90.0) <= 1e-13


def test_zeta_vs_partial_sum_oracle():
    s = 2.6
    n = 10_000_000
    ks = np.arange(1.0, n + 1.0)
    oracle = float(np.sum(ks**-s)) + (n + 1.0) ** (1.0 - s) / (s - 1.0) + 0.5 * (n + 1.0) ** -s
    assert abs(specfun.zeta(s) - oracle) <= 1e-13


def test_zeta_domain():
    with pytest.raises(ValueError):
        specfun.zeta(1.0)
    with pytest.raises(ValueError):
        specfun.zeta(0.3)
    for zeta in (specfun.zeta, specfun.odd_zeta):
        with pytest.raises(ValueError, match="alpha > 1, got inf"):
            zeta(math.inf)


def test_odd_zeta_values():
    assert abs(specfun.odd_zeta(2.0) - math.pi**2 / 4.0) <= 1e-13
    assert abs(specfun.odd_zeta(3.0) - specfun.zeta(3.0) * (2.0 - 0.25)) <= 1e-15
    # only the n=0 term survives for large alpha, doubled
    assert abs(specfun.odd_zeta(40.0) - 2.0) <= 1e-11


def test_odd_zeta_vs_direct_sum():
    n = np.arange(200_000, dtype=float)
    direct = 2.0 * float(np.sum((1.0 + 2.0 * n) ** -3.0))
    tail = 2.0 * (2.0 * 200_000.0) ** -2.0 / (2.0 * 2.0)  # integral bound remainder
    assert abs(specfun.odd_zeta(3.0) - direct) <= 4.0 * tail + 1e-12


def test_chebyshev_T_values():
    for n in (0, 1, 5, 12):
        assert specfun.chebyshev_T(n, 1.0) == 1.0
    assert abs(specfun.chebyshev_T(2, 0.5) - (-0.5)) <= 1e-15


def test_chebyshev_T_vs_recurrence():
    def by_recurrence(n, x):
        prev, cur = 1.0, x
        for _ in range(n - 1):
            prev, cur = cur, 2.0 * x * cur - prev
        return cur if n >= 1 else 1.0

    assert abs(specfun.chebyshev_T(7, 0.3) - by_recurrence(7, 0.3)) <= 1e-14


def test_chebyshev_T_recurrence_property():
    rng = np.random.RandomState(20240811)
    for _ in range(100):
        n = int(rng.randint(1, 50))
        x = float(rng.uniform(-1.0, 1.0))
        lhs = specfun.chebyshev_T(n + 1, x)
        rhs = 2.0 * x * specfun.chebyshev_T(n, x) - specfun.chebyshev_T(n - 1, x)
        assert abs(lhs - rhs) <= 1e-12


def test_chebyshev_T_domain():
    with pytest.raises(ValueError):
        specfun.chebyshev_T(3, 1.5)
    with pytest.raises(ValueError):
        specfun.chebyshev_T(-1, 0.5)
    with pytest.raises(ValueError, match="integer n >= 0, got 2.5"):
        specfun.chebyshev_T(2.5, 0.3)
    with pytest.raises(ValueError, match=r"\|x\| <= 1, got nan"):
        specfun.chebyshev_T(3, math.nan)
    assert specfun.chebyshev_T(np.int64(3), 0.5) == specfun.chebyshev_T(3, 0.5)


def test_alternating_odd_sum_classical():
    assert abs(specfun.alternating_odd_sum(1.0) - math.pi**3 / 32.0) <= 1e-13
    assert abs(specfun.alternating_odd_sum(0.0) - oracles.CATALAN) <= 1e-13
    assert abs(specfun.alternating_odd_sum(0.0) - oracles.direct_alternating_odd_sum(2.0)) <= 1e-12
    # first term dominates for large alpha
    assert abs(specfun.alternating_odd_sum(60.0) - 1.0) <= 1e-12


def test_alternating_odd_sum_domain():
    with pytest.raises(ValueError):
        specfun.alternating_odd_sum(-1.0)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0, 20.0])
def test_gamma_above_stirling(alpha):
    low = math.sqrt(2.0 * math.pi / alpha) * (alpha / math.e) ** alpha
    assert specfun.gamma(alpha) > low


@pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0, 10.0])
def test_zeta_elementary_bounds(alpha):
    z = specfun.zeta(alpha)
    assert 1.0 < z < 1.0 + 2.0**-alpha + 2.0 ** (1.0 - alpha) / (alpha - 1.0)
