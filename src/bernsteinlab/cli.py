"""Command-line surface: verification suites, numeric tables, curve dumps.

    bernsteinlab verify {identities,limits,asymptotics,all} [--tol T]
    bernsteinlab table {c_constants,interp_points,convergence,envelope} ...
    bernsteinlab curve {H,H1,H_alpha,G_alpha,limit_error,R_diag} ...

Everything is deterministic: no clocks, no seeds, fixed 17-significant-digit
formatting, and sweeps fan out to a process pool only via ordered maps.
Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
"""

import argparse
import concurrent.futures
import functools
import itertools
import json
import math
import os
import sys
from math import pi

import numpy as np

from . import __version__, asymptotics, chebinterp, entire, kernels, nearbest, specfun
from .quadrature import REL_TOL, QuadratureError, integrate_finite, integrate_zero_to_inf


class ConfigError(Exception):
    """Bad command parameters (exit code 2)."""


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------


def parse_range(spec: str) -> list:
    """'a' -> [a]; 'a:b:step' -> inclusive grid a, a+step, ..., <= b, of at most 10^6 points."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"cannot parse range {spec!r} (want 'a' or 'a:b:step')")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {spec!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"bad range {spec!r}: every value must be finite")
    if len(values) == 1:
        return values
    a, b, step = values
    if step <= 0 or b < a:
        raise ConfigError(f"bad range {spec!r}: need a <= b and step > 0")
    span = (b - a) / step + 0.5  # checked before anything is built; it can be inf
    if not span < 1e6:
        raise ConfigError(f"bad range {spec!r}: more than 10^6 points")
    count = int(span) + 1
    return [a + k * step for k in range(count) if a + k * step <= b + 1e-9 * step]


def parse_int_list(spec: str) -> list:
    try:
        values = [int(p) for p in spec.split(",") if p]
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {spec!r}") from exc
    if not values:
        raise ConfigError(f"integer list {spec!r} holds no integer")
    return values


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


def _csv_lines(rows) -> list:
    """The CSV lines of the rows.  Each run of rows whose values have the same
    types is formatted by one % operation: the row's % string (%.17g for a
    float, %s for anything else) repeated once per row."""
    lines = []
    for types, run in itertools.groupby(map(tuple, rows), key=lambda row: tuple(map(type, row))):
        run = list(run)
        row_format = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)
        lines.append("\n".join([row_format] * len(run)) % tuple(itertools.chain.from_iterable(run)))
    return lines


def _json_scalar(value):
    """json.dumps's default: a numpy scalar as the Python value it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(columns, rows, meta, fmt: str, out_path: str) -> None:
    if fmt == "csv":
        lines = [f"# bernsteinlab {__version__}"]
        lines += [f"# {k}: {meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        lines += _csv_lines(rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "tool": f"bernsteinlab {__version__}",
            "meta": meta,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1, default=_json_scalar) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out_path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------
# SUITES declares the checks, afresh on each `verify`; CHECKS is that list
# declared once, and the tests run each entry as its own case.  An entry is
# (suite, name, fn, tol); names are unique.  A residual check has a tol, and
# fn() returns a residual that passes when <= tol; --tol replaces that tol.
# An ordered or interval check has tol None, and fn() returns (measured,
# bound, ok); --tol leaves it alone.  The generators only declare checks:
# each fn looks up the library functions it calls when it runs, so building
# CHECKS at import computes nothing.


def _each(name: str, values, fn, tol) -> list:
    """One entry per value v: name with v in its {}, fn(v) deferred, and tol."""
    return [(name.format(v), functools.partial(fn, v), tol) for v in values]


def _worst_rel(pairs) -> float:
    """The largest relative gap |value - ref| / |ref| over (value, ref) pairs."""
    return max(abs(value - ref) / abs(ref) for value, ref in pairs)


def _identities():
    """Properties 1-2 of the kernels, closed forms and special functions."""
    x_grid = (0.1, 1.0, 5.0, 20.0)

    @functools.cache
    def kernel(kind, alpha, x):
        # H2 on x_grid and S(3, 4) are shared: evaluated once per run
        return kernels.kernel_eval(kind, alpha, x)

    def power_over_sinh(p, s, t):
        # t^p / sinh(s t), the integrand of prop1e and prop1f, and of F
        return np.exp(p * np.log(t) - s * t) * 2.0 / (-np.expm1(-2.0 * s * t))

    @functools.cache
    def f_direct(alpha, x):
        # F(alpha, x) = int t^alpha / sinh(x t) / (1 + t^2) dt by an integrand
        # of its own: the kernels compute F as x^-alpha H1
        return integrate_zero_to_inf(lambda t: power_over_sinh(alpha, x, t) / (1.0 + t * t)).value[0]

    def prop1_residual(alpha, kind, power):
        # worst relative gap in kind(alpha, x) = x^power F(alpha, x) over x_grid
        pairs = ((kernel(kind, alpha, x), x**power * f_direct(alpha, x)) for x in x_grid)
        return _worst_rel(pairs)

    for a in (0.5, 1.0, 2.5, 5.0):
        yield f"prop1a[alpha={a}] H1=x^a F", lambda a=a: prop1_residual(a, "H1", a), 1e-9
        yield (
            f"prop1b[alpha={a}] H2=x^(a+1) F",
            lambda a=a: prop1_residual(a, "H2", a + 1.0),
            1e-9,
        )

    def c_rescaling(alpha, p):
        # C(p) = alpha^(p+1) int t^p / sinh(alpha t) dt, for p = alpha (prop1e)
        # and p = alpha - 1 (prop1f)
        c = kernels.C_const(p)
        v = integrate_zero_to_inf(functools.partial(power_over_sinh, p, alpha)).value[0]
        return abs(c - alpha ** (p + 1.0) * v) / c

    yield from _each(
        "prop1e[alpha={}] C rescaling", (0.5, 1.0, 2.5, 5.0), lambda a: c_rescaling(a, a), 1e-9
    )
    yield from _each(
        "prop1f[alpha={}] C(a-1) rescaling", (2.5, 5.0), lambda a: c_rescaling(a, a - 1), 1e-9
    )

    def prop2a(alpha):
        def f(x):
            return np.exp((alpha - 1.0) * np.log(x) - alpha * x) * (1.0 - x)

        return _worst_rel(
            (integrate_finite(f, 0.0, c).value, c**alpha * math.exp(-alpha * c) / alpha)
            for c in (0.5, 2.0)
        )

    def gamma_moments(alpha, s, powers):
        # worst relative gap in int_0^inf x^p e^(-alpha x) dx = Gamma(s)/alpha^s
        # over p in powers: it holds for p = s - 1, and for p = s when s = alpha
        ref = specfun.gamma(s) / alpha**s
        return _worst_rel(
            (integrate_zero_to_inf(lambda x, p=p: np.exp(p * np.log(x) - alpha * x)).value[0], ref)
            for p in powers
        )

    yield from _each("prop2a[alpha={}] incomplete-gamma identity", (0.5, 1.0, 3.0), prop2a, 1e-9)
    for a in (1.5, 2.0, 5.0):
        yield (
            f"prop2b[alpha={a}] Gamma(a-1)/a^(a-1)",
            lambda a=a: gamma_moments(a, a - 1.0, (a - 2.0,)),
            1e-9,
        )
        yield (
            f"prop2c[alpha={a}] Gamma(a)/a^a",
            lambda a=a: gamma_moments(a, a, (a - 1.0, a)),
            1e-9,
        )

    closed = [
        ("C(1)=pi^2/4", lambda: abs(kernels.C_const(1.0) / (pi * pi / 4.0) - 1.0)),
        ("C(2)=3.5 zeta(3)", lambda: abs(kernels.C_const(2.0) / (3.5 * specfun.zeta(3.0)) - 1.0)),
        ("D(1)=pi/2", lambda: abs(kernels.D_const(1.0) / (pi / 2.0) - 1.0)),
        ("delta1(1)=pi^2/4", lambda: abs(kernels.delta_1_closed(1.0) / (pi * pi / 4.0) - 1.0)),
        (
            "delta2(1)=(2/pi)sqrt(pi/3)",
            lambda: abs(kernels.delta_2_closed(1.0) / (2.0 / pi * math.sqrt(pi / 3.0)) - 1.0),
        ),
    ]
    for name, fn in closed:
        yield f"closed-form {name}", fn, 1e-10

    def t_recurrence():
        rng = np.random.RandomState(20240811)
        worst = 0.0
        for _ in range(100):
            n = int(rng.randint(1, 50))
            x = float(rng.uniform(-1.0, 1.0))
            res = specfun.chebyshev_T(n + 1, x) - (
                2.0 * x * specfun.chebyshev_T(n, x) - specfun.chebyshev_T(n - 1, x)
            )
            worst = max(worst, abs(res))
        return worst

    yield "chebyshev_T three-term recurrence", t_recurrence, 1e-12
    yield "odd_zeta(2)=pi^2/4", lambda: abs(specfun.odd_zeta(2.0) - pi * pi / 4.0), 1e-13
    yield "odd_zeta(30)->2", lambda: abs(specfun.odd_zeta(30.0) - 2.0), 3e-9

    def slope_bound(alpha, x):
        h = 1e-5
        d = (kernel("H1", alpha, x + h) - kernel("H1", alpha, x - h)) / (2.0 * h)
        bound = -2.0 / (x * x + alpha * alpha) * kernel("S", alpha, x)
        return max(d - bound - 1e-6, 0.0)

    yield "envelope slope bound at (3,4)", lambda: slope_bound(3.0, 4.0), 1e-12
    yield "envelope slope bound at (5,7)", lambda: slope_bound(5.0, 7.0), 1e-12
    yield (
        "H(alpha, k pi) = 0",
        lambda: max(abs(kernel("H", 1.3, k * pi)) for k in range(1, 6)),
        1e-12,
    )

    # ordered / interval checks
    def prop1c(alpha):
        h2 = [kernel("H2", alpha, x) for x in x_grid]
        c = kernels.C_const(alpha)
        return max(h2) / c, 1.0, all(-1e-12 <= v <= c * (1.0 + 1e-9) for v in h2)

    def prop1d(alpha):
        h2 = [kernel("H2", alpha, x) for x in x_grid]
        h = [kernel("H", alpha, x) for x in x_grid]
        return max(abs(a) for a in h), max(h2), all(abs(a) <= b + 1e-12 for a, b in zip(h, h2))

    for a in (0.5, 1.0, 2.5, 5.0):
        yield f"prop1c[alpha={a}] 0<=H2<=C", lambda a=a: prop1c(a), None
        yield f"prop1d[alpha={a}] |H|<=H2", lambda a=a: prop1d(a), None

    def stirling(alpha):
        g = specfun.gamma(alpha)
        low = math.sqrt(2.0 * pi / alpha) * (alpha / math.e) ** alpha
        return g / low, 1.0, g > low

    def zeta_bounds(alpha):
        z = specfun.zeta(alpha)
        hi = 1.0 + 2.0**-alpha + 2.0 ** (1.0 - alpha) / (alpha - 1.0)
        return z, hi, 1.0 < z < hi

    yield from _each("prop2d[alpha={}] Gamma > Stirling", (1.0, 2.0, 5.0, 20.0), stirling, None)
    yield from _each("zeta bounds[alpha={}]", (1.5, 2.0, 5.0, 10.0), zeta_bounds, None)

    def f_bracket(alpha):
        ok = True
        for x in (1.0, alpha, 2.0 * alpha):
            f = kernel("F", alpha, x)
            f1 = kernel("F1", alpha, x)
            f2 = kernel("F2", alpha, x)
            ok = ok and f1 <= f * (1.0 + 1e-12) and f <= f2 * (1.0 + 1e-12)
        return alpha, alpha, ok

    def s_increasing(alpha):
        xs = np.linspace(alpha / 2.0, 3.0 * alpha, 100)
        steps = np.diff(kernels.kernel_values("S", alpha, xs))
        return steps.min(), 0.0, bool((steps > 0.0).all())

    yield from _each("F1<=F<=F2[alpha={}]", (2.5, 4.0, 8.0), f_bracket, None)
    yield from _each("S increasing[alpha={}]", (3.0, 6.0), s_increasing, None)


def _limits():
    """The entire functions H_alpha and G_alpha, and their finite-n views."""
    yield "H1(1, 1e-8) -> pi/2", lambda: abs(kernels.kernel_eval("H1", 1.0, 1e-8) - pi / 2.0), 1e-4
    for a in (0.5, 2.5):
        yield f"H(alpha,0)=0 [alpha={a}]", lambda a=a: abs(kernels.kernel_eval("H", a, 0.0)), 0.0
        yield f"H2(alpha,0)=0 [alpha={a}]", lambda a=a: abs(kernels.kernel_eval("H2", a, 0.0)), 0.0
    yield "H1(2.5, 0)=0", lambda: abs(kernels.kernel_eval("H1", 2.5, 0.0)), 0.0

    def node_gap(fn, alpha, xs):
        # an entire interpolant of |x|^alpha, checked at its nodes xs
        return max(abs(fn(alpha, x) - x**alpha) for x in xs)

    yield from _each(
        "series=integral [alpha={}]",
        (0.5, 1.0, 1.9, 3.1, 5.3),
        lambda a: max(
            abs(entire.H_alpha_series(a, x) - entire.H_alpha_integral(a, x))
            for x in (0.3, 2.0, 7.0, 15.0)
        ),
        1e-6,
    )
    yield from _each(
        "H_alpha interpolates (k pi)^alpha [alpha={}]",
        (0.5, 1.3),
        lambda a: node_gap(entire.H_alpha_integral, a, [k * pi for k in range(1, 7)]),
        1e-9,
    )
    yield from _each(
        "G_alpha interpolates ((k+1/2) pi)^alpha [alpha={}]",
        (0.5, 1.0),
        lambda a: node_gap(entire.G_alpha, a, [(k + 0.5) * pi for k in range(0, 5)]),
        1e-9,
    )
    yield "G_alpha(0)=0", lambda: abs(entire.G_alpha(1.0, 0.0)), 0.0

    def beta_bracket(alpha):
        beta = entire.beta_point(alpha)
        return beta, alpha + 1.5 * pi, alpha + pi / 2.0 < beta <= alpha + 1.5 * pi

    def beta_touch(alpha):
        beta = entire.beta_point(alpha)
        lhs = abs(kernels.kernel_eval("H", alpha, beta))
        rhs = kernels.kernel_eval("H1", alpha, beta)
        return abs(lhs - rhs) / rhs

    yield from _each("beta in (a+pi/2, a+3pi/2] [alpha={}]", (3.9, 8.4, pi), beta_bracket, None)
    yield from _each("|H(a,beta)| = H1(a,beta) [alpha={}]", (3.9, 8.4), beta_touch, 1e-9)

    def growth_proxy():
        alpha = 1.5
        cbound = 2.0 / pi * kernels.C_const(alpha)
        xs = np.linspace(0.0, 100.0, 401)
        worst = float(np.max(np.abs(entire.H_alpha_integral(alpha, xs)) - (xs**alpha + cbound)))
        return worst, 0.0, worst <= 0.0

    def scaled_gap(scheme, x, limit):
        v = chebinterp.scaled_interp_eval(chebinterp.build_nodes(scheme, 64), 1.0, x)
        return abs(v - limit(1.0, x))

    yield "growth proxy |H_alpha| <= x^a + (2/pi)C", growth_proxy, None
    yield (
        "scaled P2(n=64) at pi -> H_alpha(pi)",
        lambda: scaled_gap("P2", pi, entire.H_alpha_integral),
        2e-2,
    )
    yield (
        "scaled P1(n=64) at pi/2 -> G_alpha(pi/2)",
        lambda: scaled_gap("P1", pi / 2.0, entire.G_alpha),
        5e-2,
    )


def _asymptotics():
    """The root alpha0, the envelope chain and the Watson expansions."""

    def alpha0_interval():
        root = asymptotics.find_alpha0(1e-6)
        return root, 2.54289, 2.54288 < root < 2.54289

    def r_diag(alpha, negative):
        r = kernels.kernel_eval("R", alpha, alpha)
        return r, 0.0, r < 0.0 if negative else r > 0.0

    yield "alpha0 in (2.54288, 2.54289)", alpha0_interval, None
    yield "R(2.4,2.4) < 0", lambda: r_diag(2.4, True), None
    yield "R(3,3) > 0", lambda: r_diag(3.0, False), None

    def envelope_chain(alpha):
        try:
            eb = asymptotics.envelope_bounds(alpha)
        except RuntimeError:
            return math.inf, 1.0, False
        return eb.norm / eb.upper, 1.0, True

    def h1_decreasing(alpha):
        ok = asymptotics.monotonicity_check(alpha, alpha + 6.0 * pi)
        return float(ok), 1.0, ok

    def norm_ratio(alpha):
        r = asymptotics.norm_ratio_limit(alpha)
        lo = 1.0 - 1.0 / math.sqrt(alpha) - 0.02
        hi = 1.0 + 2.0 / math.sqrt(alpha) + 0.02
        return r, hi, lo <= r <= hi

    def watson_symmetry(k):
        up = asymptotics.watson_coeffs(k, "upper")
        lo = asymptotics.watson_coeffs(k, "lower")
        ok = all(lo.a[i] == ((-1.0) ** i) * up.a[i] for i in range(6))
        return float(ok), 1.0, ok

    yield from _each("envelope chain [alpha={}]", (2.0, 4.0, 8.0, 16.0), envelope_chain, None)
    yield from _each("H1 decreasing on [a, a+6pi] [alpha={}]", (3.0, 10.0), h1_decreasing, None)
    yield from _each("norm ratio in envelope window [alpha={}]", (10.0, 20.0), norm_ratio, None)
    yield from _each("Watson branch symmetry [k={}]", (0, 1), watson_symmetry, None)

    def g_order2_gap(alpha, variant, karg):
        q = kernels.kernel_eval("G", *karg)
        return abs(q - asymptotics.G_asympt(alpha, variant, 2)) / q

    def g_shift_difference():
        q_diff = kernels.kernel_eval("G", 41.0, 40.0) - kernels.kernel_eval("G", 40.0, 40.0)
        pred = math.sqrt(2.0 * pi / 40.0) * math.exp(-40.0) / (4.0 * 1600.0)
        return abs(q_diff / pred - 1.0)

    def g_shift_gap(alpha):
        shifted = kernels.kernel_eval("G", alpha + 1.0, alpha)
        gap = shifted - (1.0 + alpha**-3) * kernels.kernel_eval("G", alpha, alpha)
        return gap, 0.0, gap > 0.0

    def g_offset_ratio():
        ratio = kernels.kernel_eval("G", 30.0, 31.5) / kernels.kernel_eval("G", 30.0, 30.0)
        return abs(ratio / math.exp(-1.5) - 1.0)

    for a in (20.0, 40.0):
        for variant, karg in (("G_aa", (a, a)), ("G_a1a", (a + 1.0, a))):
            yield (
                f"{variant} order-2 vs quadrature [alpha={a}]",
                lambda a=a, v=variant, karg=karg: g_order2_gap(a, v, karg),
                3.0 / a**3,
            )
    yield "G(a+1,a)-G(a,a) ~ sqrt(2pi/a)e^-a/(4a^2) [alpha=40]", g_shift_difference, 0.2
    yield from _each("G(a+1,a) > (1+a^-3) G(a,a) [alpha={}]", (20.0, 50.0), g_shift_gap, None)
    yield "G(a,a+c)/G(a,a) -> e^-c [alpha=30, c=1.5]", g_offset_ratio, 0.1

    def lobe_ratio_trend():
        ratios = []
        for alpha in (20.0, 40.0, 80.0):
            r = kernels.kernel_eval("H1", alpha, alpha + 1.5 * pi) / kernels.kernel_eval(
                "H1", alpha, alpha
            )
            ratios.append(abs(r - 1.0))
        ok = ratios[0] <= 0.25 and ratios[0] >= ratios[1] >= ratios[2]
        return ratios[0], 0.25, ok

    def even_watson_coefficients():
        # the expansion coefficients re-derived from the branch tables
        ok = True
        for k, coeffs in (
            (0, (0.5, -5.0 / 24.0, 61.0 / 576.0)),
            (1, (0.5, -5.0 / 24.0, 205.0 / 576.0)),
        ):
            a = asymptotics.watson_coeffs(k, "upper").a
            for j in range(3):
                derived = 2.0 * math.gamma(j + 0.5) * a[2 * j] / math.sqrt(2.0 * pi)
                ok = ok and abs(derived - coeffs[j]) <= 1e-15
        return float(ok), 1.0, ok

    yield "H1(a, a+3pi/2)/H1(a,a) -> 1 decreasing", lobe_ratio_trend, None
    yield "even Watson coefficients match expansions", even_watson_coefficients, None


SUITES = {"identities": _identities, "limits": _limits, "asymptotics": _asymptotics}


def _declare(suite: str) -> list:
    """The (suite, name, fn, tol) entries of one suite, or of all of them."""
    return [(s, *c) for s, declare in SUITES.items() if suite in ("all", s) for c in declare()]


CHECKS = _declare("all")


def evaluate(check, tol=None):
    """(measured, bound, ok) of one CHECKS entry; tol replaces a residual tol."""
    _, _, fn, default = check
    if default is None:
        return fn()
    bound = default if tol is None else tol
    value = fn()
    return value, bound, value <= bound


def run_verify(suite: str, tol=None, out=None) -> int:
    out = out or sys.stdout
    if suite != "all" and suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    # declared afresh, so that values the entries share last one run
    checks = _declare(suite)
    failures = 0
    for check in checks:
        value, bound, ok = evaluate(check, tol)
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        out.write(f"{check[1]}: {status} (measured={float(value):.17g}, bound={float(bound):.17g})\n")
    out.write(f"{suite}: {len(checks) - failures}/{len(checks)} checks passed\n")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _cc_row(alpha: float):
    sol = nearbest.optimize_c(alpha)
    return (alpha, sol.c1, sol.c2, sol.minimax)


def _convergence_row(item):
    alpha, scheme, n = item
    err = chebinterp.sup_error(chebinterp.build_nodes(scheme, n), alpha)
    return (alpha, scheme, n, err.scaled_error)


def _pool_map(fn, items, jobs: int):
    # a pool starts all of its workers at once, so it gets no more than there are items
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_table(name: str, args) -> int:
    meta = {"command": f"table {name}", "rel_tol": REL_TOL}
    if name == "c_constants":
        alphas = parse_range(args.alpha) if args.alpha else parse_range("0.1:1.9:0.1")
        rows = _pool_map(_cc_row, alphas, args.jobs)
        emit(("alpha", "c1", "c2", "minimax"), rows, meta, args.format, args.out)
    elif name == "interp_points":
        if not args.alpha:
            raise ConfigError("table interp_points requires --alpha")
        if not 1 <= args.jmax <= nearbest.MAX_ROOTS:  # checked before any fit runs
            raise ConfigError(f"--jmax must be in [1, {nearbest.MAX_ROOTS}], got {args.jmax}")
        rows = []
        for alpha in parse_range(args.alpha):
            sol = nearbest.optimize_c(alpha)
            if args.jmax <= len(sol.interp_points):  # the fit holds these roots
                pts = sol.interp_points[: args.jmax]
            else:
                pts = nearbest.interp_points(alpha, sol.c1, sol.c2, args.jmax, cache=sol.cache)
            rows += [(alpha, j + 1, x) for j, x in enumerate(pts)]
        emit(("alpha", "j", "x_j_star"), rows, meta, args.format, args.out)
    elif name == "convergence":
        if not args.alpha or not args.n:
            raise ConfigError("table convergence requires --alpha and --n")
        schemes = [args.scheme] if args.scheme else ["P1", "P2"]
        items = [
            (alpha, scheme, n)
            for alpha in parse_range(args.alpha)
            for scheme in schemes
            for n in parse_int_list(args.n)
        ]
        for alpha, _, n in items:  # checked before any row runs
            chebinterp.check_order(n, alpha)
        rows = _pool_map(_convergence_row, items, args.jobs)
        emit(("alpha", "scheme", "n", "scaled_error"), rows, meta, args.format, args.out)
    elif name == "envelope":
        if not args.alpha:
            raise ConfigError("table envelope requires --alpha")
        rows = []
        for alpha in parse_range(args.alpha):
            eb = asymptotics.envelope_bounds(alpha)
            rows.append((alpha, eb.lower, eb.point_value, eb.norm, eb.upper))
        emit(("alpha", "lower", "H1_at_alpha", "norm", "upper"), rows, meta, args.format, args.out)
    else:
        raise ConfigError(f"unknown table {name!r}")
    return 0


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def run_curve(kind: str, args) -> int:
    meta = {"command": f"curve {kind}", "rel_tol": REL_TOL}
    if kind == "R_diag":
        alphas = parse_range(args.alpha) if args.alpha else parse_range("2.4:20:0.05")
        r = kernels.kernel_values("R", alphas, alphas)
        rows = list(zip(alphas, r.tolist()))
        emit(("alpha", "R_diag"), rows, meta, args.format, args.out)
        return 0

    if not args.alpha:
        raise ConfigError(f"curve {kind} requires --alpha")
    alphas = parse_range(args.alpha)
    if len(alphas) != 1:
        raise ConfigError(f"curve {kind} takes a single --alpha")
    alpha = alphas[0]
    xs = parse_range(args.x) if args.x else parse_range(f"0:{40 * math.pi:.10f}:{math.pi / 50.0:.10f}")

    if kind == "H":
        grid = np.array([x for x in xs if x > 0.0])
        h1 = kernels.kernel_values("H1", alpha, grid)
        rows = list(zip(grid.tolist(), (np.sin(grid) * h1).tolist(), h1.tolist()))
        emit(("x", "H", "H1"), rows, meta, args.format, args.out)
    elif kind == "H1":
        grid = np.array([x for x in xs if x > 0.0])
        h1 = kernels.kernel_values("H1", alpha, grid)
        rows = list(zip(grid.tolist(), h1.tolist()))
        emit(("x", "H1"), rows, meta, args.format, args.out)
    elif kind == "H_alpha":
        rows = list(zip(xs, entire.H_alpha_integral(alpha, xs).tolist()))
        emit(("x", "H_alpha"), rows, meta, args.format, args.out)
    elif kind == "G_alpha":
        rows = list(zip(xs, entire.G_alpha(alpha, xs).tolist()))
        emit(("x", "G_alpha"), rows, meta, args.format, args.out)
    elif kind == "limit_error":
        if args.c1 is None or args.c2 is None:
            raise ConfigError("curve limit_error requires --c1 and --c2")
        if max(xs) + 1.0 > nearbest.X_LIMIT:  # the cache's x_max, refused before it is built
            raise ConfigError(f"--x must be <= {nearbest.X_LIMIT - 1.0!r}, got up to {max(xs)!r}")
        cache = nearbest.build_cache(alpha, x_max=max(xs) + 1.0)
        rows = list(zip(xs, nearbest.limit_error(alpha, args.c1, args.c2, xs, cache=cache).tolist()))
        emit(("x", "limit_error"), rows, meta, args.format, args.out)
    else:
        raise ConfigError(f"unknown curve {kind!r}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bernsteinlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=[*SUITES, "all"])
    pv.add_argument("--tol", type=float, default=None, help="override every residual tolerance")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=str, default=None, help="a or a:b:step")
    common.add_argument("--out", type=str, default="-")
    common.add_argument("--format", choices=["csv", "json"], default="csv")

    pt = sub.add_parser("table", parents=[common], help="emit a numeric table")
    pt.add_argument("name", choices=["c_constants", "interp_points", "convergence", "envelope"])
    pt.add_argument("--n", type=str, default=None, help="comma-separated n list")
    pt.add_argument("--scheme", choices=["P1", "P2"], default=None)
    pt.add_argument("--jmax", type=int, default=10)
    pt.add_argument("--jobs", type=int, default=1, help="processes for c_constants and convergence")

    pc = sub.add_parser("curve", parents=[common], help="emit (x, value) samples")
    pc.add_argument("kind", choices=["H", "H1", "H_alpha", "G_alpha", "limit_error", "R_diag"])
    pc.add_argument("--x", type=str, default=None, help="x range a:b:step")
    pc.add_argument("--c1", type=float, default=None)
    pc.add_argument("--c2", type=float, default=None)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads -1:1:0.5 or -1e-1 as an option
        if argv[i] in ("--alpha", "--x", "--c1", "--c2") and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.suite, args.tol)
        if args.command == "table" and args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        out_dir = os.path.dirname(args.out) or "."  # checked before any table or curve runs
        if args.out != "-" and (os.path.isdir(args.out) or not os.path.isdir(out_dir)):
            raise ConfigError(f"--out must name a file in an existing directory, got {args.out!r}")
        try:
            if args.command == "table":
                return run_table(args.name, args)
            if args.command == "curve":
                return run_curve(args.kind, args)
        except (ValueError, QuadratureError, OverflowError) as exc:  # a domain error
            raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
