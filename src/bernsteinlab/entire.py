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
C(a) = 2 (1 - 2^-(a+1)) Gamma(a+1) zeta(a+1), so the series path shares no
quadrature with the integral path and the two serve as independent oracles
for each other.  The series' alternating tail is summed by an iterated
Euler transform to a fixed 1e-8, and a shortfall raises.

Both functions are even; negative arguments are reflected.  The integral
forms take x as a float or as an array, whose kernel values come from one
kernel_values call on |x|, which gives H and A0 their limit 0 at x = 0.
beta_point, the lobe abscissa, lives in kernels and is re-exported here.
"""

import math

import numpy as np

from . import specfun
from .kernels import KernelKind, beta_point, kernel_values

__all__ = [
    "H_alpha_integral",
    "H_alpha_series",
    "G_alpha",
    "beta_point",
]

_POLE_WINDOW = 1e-4  # |x - k pi| below this evaluates the pole term jointly
_EULER_TOL = 1e-8  # accuracy demanded of the accelerated series tail


def _C_closed(a: float) -> float:
    """C(a) = int t^a/sinh t dt via 2 (1-2^-(a+1)) Gamma(a+1) zeta(a+1)."""
    return 2.0 * (1.0 - 2.0 ** -(a + 1.0)) * specfun.gamma(a + 1.0) * specfun.zeta(a + 1.0)


def _by_entry(f, x: np.ndarray) -> np.ndarray:
    """f applied to each entry of x as a Python float.  numpy's array power
    and cos may differ from x**alpha and math.cos in the last bit; applied
    entry by entry they keep H_alpha_integral and G_alpha at a float x
    bit-equal to the float formula (test_float_x_keeps_the_float_formula_bits)."""
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def H_alpha_integral(alpha: float, x):
    """H_alpha(x) through the error-kernel quadrature; x a float, or an array
    evaluated in one batch."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    h = kernel_values(KernelKind.H, alpha, xs)
    scale = (2.0 / math.pi) * math.sin(0.5 * math.pi * alpha)
    out = _by_entry(lambda v: v**alpha, xs) - scale * h
    return float(out[0]) if np.ndim(x) == 0 else out


def _euler_tail(h, k0: int) -> float:
    """sum_{k>k0} (-1)^k h(k) by iterated averaging of partial sums."""
    m = 60
    ks = np.arange(k0 + 1, k0 + 1 + m)
    terms = np.where(ks % 2 == 0, 1.0, -1.0) * h(ks.astype(float))
    row = np.cumsum(terms)
    prev = row[-1]
    while len(row) > 1:
        row = 0.5 * (row[:-1] + row[1:])
        prev, est = row[-1], prev
    if abs(row[0] - est) > _EULER_TOL:
        raise RuntimeError(
            f"series tail acceleration reached {abs(row[0] - est):.3e}, "
            f"short of {_EULER_TOL:.3e}"
        )
    return float(row[0])


def H_alpha_series(alpha: float, x: float) -> float:
    """H_alpha(x) through the interpolation series (no quadrature).

    alpha must not be an even integer.  Near x = k pi the k-th term's pole
    is evaluated jointly with sin x, so the removable singularity never
    produces 0/0; the alternating tail is summed by _euler_tail.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == 2.0 * round(alpha / 2.0):
        raise ValueError(f"alpha must not be an even integer, got {alpha}")
    x = abs(x)
    if x == 0.0:
        return 0.0
    big_n = int(math.floor(alpha / 2.0))
    sigma = alpha - 2.0 * big_n

    poly = 0.0
    for n in range(big_n):
        a = alpha - 2.0 * n - 2.0
        poly += math.sin(0.5 * math.pi * a) * _C_closed(a) * x ** (2 * n + 1)
    poly *= 2.0 / math.pi

    def h(k):
        kp = k * math.pi
        return kp**sigma / (x * x - kp * kp)

    # terms k = 1..k0 directly, with the near-pole term (if any) held out
    k_star = int(round(x / math.pi))
    d = x - k_star * math.pi
    joint_pole = k_star >= 1 and abs(d) < _POLE_WINDOW
    k0 = max(int(math.ceil(x / math.pi)) + 3, 8)
    direct = 0.0
    for k in range(1, k0 + 1):
        if joint_pole and k == k_star:
            continue
        direct += (-1.0) ** k * h(float(k))

    tail = _euler_tail(h, k0)

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
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == 2.0 * round(alpha / 2.0):
        raise ValueError(f"alpha must not be an even integer, got {alpha}")
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    a0 = kernel_values(KernelKind.A0, alpha, xs)
    scale = (2.0 / math.pi) * math.sin(0.5 * math.pi * alpha)
    out = _by_entry(lambda v: v**alpha, xs) - scale * _by_entry(math.cos, xs) * a0
    return float(out[0]) if np.ndim(x) == 0 else out
