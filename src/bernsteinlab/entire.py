"""Limiting entire interpolants of |x|^alpha of exponential type 1.

Two families arise as scaled limits of the Chebyshev interpolation schemes:

* H_alpha, interpolating |x|^alpha at {k pi}:
      H_alpha(x) = |x|^alpha - (2/pi) sin(pi alpha/2) H(alpha, x)
  with an equivalent interpolation series (N = floor(alpha/2)):
      H_alpha(x) = sin x * [ (2/pi) sum_{n<N} sin(pi(alpha-2n-2)/2) C(alpha-2n-2) x^(2n+1)
                             + 2 x^(2N+1) sum_{k>=1} (-1)^k (k pi)^(alpha-2N) / (x^2-(k pi)^2) ]

* G_alpha, interpolating |x|^alpha at {(k+1/2) pi} and 0:
      G_alpha(x) = |x|^alpha - (2/pi) sin(pi alpha/2) cos(x) A0(alpha, x)

The series' polynomial part uses the closed form
C(a) = Gamma(a+1) odd_zeta(a+1), so the series shares no quadrature with the
integral and the two serve as independent oracles for each other.  Its
terms up to k = x/pi + 3 are summed directly, with each x - k pi formed from
a split of pi into a 24-bit head and a tail, so the rounding of k pi does not
grow with x.  The alternating tail goes through specfun's accelerator, exact
to roundoff there because past x/pi each term is a sum of completely monotone
powers of k.

Both functions are even; negative arguments are reflected.  The integral
forms take x as a float or as an array, whose kernel values come from one
kernel_values call on |x|, which gives H and A0 their limit 0 at x = 0.
beta_point, the lobe abscissa, lives in kernels and is re-exported here.
"""

import math

import numpy as np

from . import specfun
from .kernels import KernelKind, _past_range, _require_alpha, beta_point, kernel_values

__all__ = [
    "H_alpha_integral",
    "H_alpha_series",
    "G_alpha",
    "beta_point",
]

_POLE_WINDOW = 1e-4  # |x - k pi| below this evaluates the pole term jointly
# pi = _PI_HI + _PI_LO (Cody-Waite): _PI_HI has 24 bits, so k _PI_HI is exact for k < 2^29
_PI_HI = float(np.float32(math.pi))
_PI_LO = -8.742278000372485e-08  # pi - _PI_HI, rounded
# H_alpha_series sums x/pi + 3 terms one by one: about 3.2e5 at this |x|
_SERIES_X_MAX = 1e6


def _prefactor(alpha: float) -> float:
    """p(alpha) = (2/pi) sin(pi alpha/2), the weight of every error kernel."""
    return (2.0 / math.pi) * math.sin(0.5 * math.pi * alpha)


def _by_entry(f, x: np.ndarray) -> np.ndarray:
    """f applied to each entry of x as a Python float.  numpy's array power
    and cos may differ from x**alpha and math.cos in the last bit; applied
    entry by entry they keep H_alpha_integral and G_alpha at a float x
    bit-equal to the float formula (test_float_x_keeps_the_float_formula_bits)."""
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _interpolant(name: str, alpha: float, x, kind: KernelKind, factor):
    """|x|^alpha - factor(|x|) * kind(alpha, |x|), x a float or an array
    evaluated in one batch; where |x|^alpha passes the double range, an
    OverflowError names name, alpha and x."""
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    k = kernel_values(kind, alpha, xs)
    try:
        power = _by_entry(lambda v: v**alpha, xs)
    except OverflowError:
        raise _past_range(name, alpha, xs) from None
    out = power - factor(xs) * k
    return float(out[0]) if np.ndim(x) == 0 else out


def H_alpha_integral(alpha: float, x):
    """H_alpha(x) through the error-kernel quadrature; x a float, or an array
    evaluated in one batch."""
    _require_alpha(alpha, 0.0, "H_alpha_integral")
    return _interpolant("H_alpha_integral", alpha, x, KernelKind.H, lambda xs: _prefactor(alpha))


def H_alpha_series(alpha: float, x: float) -> float:
    """H_alpha(x) through the interpolation series (no quadrature).

    alpha must not be an even integer.  Near x = k pi the k-th term's pole
    is evaluated jointly with sin x, so the removable singularity never
    produces 0/0; the alternating tail is summed by specfun._alternating_sum.
    |x| past _SERIES_X_MAX = 1e6 is refused: the direct terms would take seconds.
    """
    _require_alpha(alpha, 0.0, "H_alpha_series")
    if alpha == 2.0 * round(alpha / 2.0):
        raise ValueError(f"alpha must not be an even integer, got {alpha}")
    x = abs(x)
    if not x <= _SERIES_X_MAX:
        raise ValueError(f"H_alpha_series requires finite x with |x| <= {_SERIES_X_MAX:g}, got {x}")
    if x == 0.0:
        return 0.0
    big_n = int(math.floor(alpha / 2.0))
    sigma = alpha - 2.0 * big_n

    poly = 0.0
    for n in range(big_n):
        a = alpha - 2.0 * n - 2.0
        poly += _prefactor(a) * specfun.gamma(a + 1) * specfun.odd_zeta(a + 1) * x ** (2 * n + 1)

    def h(k):
        # x - k pi from the split of pi leaves out the rounding of k pi
        kp = k * math.pi
        return kp**sigma / (((x - k * _PI_HI) - k * _PI_LO) * (x + kp))

    # terms k = 1..k0 directly, with the near-pole term (if any) held out
    k_star = int(round(x / math.pi))
    d = (x - k_star * _PI_HI) - k_star * _PI_LO
    joint_pole = k_star >= 1 and abs(d) < _POLE_WINDOW
    k0 = max(int(math.ceil(x / math.pi)) + 3, 8)
    direct = 0.0
    for k in range(1, k0 + 1):
        if joint_pole and k == k_star:
            continue
        direct += (-1.0) ** k * h(float(k))

    # for k > x/pi, -h(k) = sum_m x^(2m) (k pi)^(sigma-2-2m) is completely monotone
    # (sigma < 2), so CVZ errs below 2|h(k0+1)|/(3+sqrt 8)^48 ~ 1e-36; k0+1 >= x/pi+4
    tail = (-1.0) ** (k0 + 1) * specfun._alternating_sum(lambda j: h(k0 + 1 + j))

    value = math.sin(x) * (poly + 2.0 * x ** (2 * big_n + 1) * (direct + tail))
    if joint_pole:
        # sin(x) = (-1)^k sin(d) cancels the term's (-1)^k; what is left is
        # 2 x^(2N+1) (k pi)^sigma * sinc(d) / (x + k pi), the joint limit
        kp = k_star * math.pi
        sinc = 1.0 if d == 0.0 else math.sin(d) / d
        value += 2.0 * x ** (2 * big_n + 1) * kp**sigma * sinc / (x + kp)
    return value


def G_alpha(alpha: float, x):
    """G_alpha(x) = |x|^alpha - (2/pi) sin(pi alpha/2) cos(x) A0(alpha, x); x a
    float, or an array evaluated in one batch."""
    _require_alpha(alpha, 0.0, "G_alpha")
    if alpha == 2.0 * round(alpha / 2.0):
        raise ValueError(f"alpha must not be an even integer, got {alpha}")
    p = _prefactor(alpha)
    return _interpolant("G_alpha", alpha, x, KernelKind.A0, lambda xs: p * _by_entry(math.cos, xs))
