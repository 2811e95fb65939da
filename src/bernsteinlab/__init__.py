"""bernsteinlab: numerics for minimax approximation of |x|^alpha.

Submodules cover double-exponential quadrature, the half-line integral
kernels driving the interpolation error, Chebyshev node systems and their
scaled limits (entire functions of exponential type 1), a Remez solver for
the true best approximation and Bernstein-constant extrapolation, Watson
expansions of the Laplace-type kernel, and a tuned near-best construction.
"""

__version__ = "0.1.0"

from .quadrature import QuadResult, QuadratureError
from .specfun import alternating_odd_sum, chebyshev_T, gamma, odd_zeta, zeta
from .kernels import (
    C_const,
    D_const,
    KernelKind,
    SupNormReport,
    delta_1_closed,
    delta_2_closed,
    kernel_eval,
    kernel_values,
    sup_norm_H,
    sup_norm_H1,
)
from .chebinterp import InterpError, NodeSystem, build_nodes, interp_eval, scaled_interp_eval, sup_error
from .entire import G_alpha, H_alpha_integral, H_alpha_series, beta_point
from .remez import BestApprox, ReferenceSet, RemezError, bernstein_extrapolate, best_poly, scaling_check
from .asymptotics import (
    EnvelopeBounds,
    G_asympt,
    WatsonCoeffs,
    envelope_bounds,
    find_alpha0,
    monotonicity_check,
    norm_ratio_limit,
    watson_coeffs,
)
from .nearbest import (
    GridCache,
    NearBestSolution,
    OptimizeError,
    alternation_points,
    build_cache,
    interp_points,
    limit_error,
    optimize_c,
    p3_poly,
)
