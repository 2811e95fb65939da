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
import json
import math
import sys
from math import pi

import numpy as np

from . import __version__, asymptotics, chebinterp, entire, kernels, nearbest, specfun
from .quadrature import REL_TOL, integrate_finite, integrate_zero_to_inf


class ConfigError(Exception):
    """Bad command parameters (exit code 2)."""


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------


def parse_range(spec: str) -> list:
    """'a' -> [a]; 'a:b:step' -> inclusive grid a, a+step, ..., <= b."""
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
    count = int(math.floor((b - a) / step + 0.5)) + 1
    return [a + k * step for k in range(count) if a + k * step <= b + 1e-9 * step]


def parse_int_list(spec: str) -> list:
    try:
        return [int(p) for p in spec.split(",") if p]
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {spec!r}") from exc


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit(columns, rows, meta, fmt: str, out_path: str) -> None:
    if fmt == "csv":
        lines = [f"# bernsteinlab {__version__}"]
        lines += [f"# {k}: {meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "tool": f"bernsteinlab {__version__}",
            "meta": meta,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------
# CHECKS is the one registry behind `verify`, and the tests run each entry as
# its own case.  An entry is (suite, name, fn, tol); names are unique.  A
# residual check has a tol, and fn() returns a residual that passes when
# <= tol; --tol replaces that tol.  An ordered or interval check has tol None,
# and fn() returns (measured, bound, ok); --tol leaves it alone.  The suite
# generators below only declare checks: each fn looks up the library functions
# it calls when it runs, so building CHECKS at import computes nothing.


def _identities():
    """Properties 1-2 of the kernels, closed forms and special functions."""
    x_grid = (0.1, 1.0, 5.0, 20.0)

    def prop1_residual(alpha, kind, power):
        # worst relative gap in kind(alpha, x) = x^power F(alpha, x) over x_grid
        worst = 0.0
        for x in x_grid:
            f = kernels.kernel_eval("F", alpha, x)
            lhs, rhs = kernels.kernel_eval(kind, alpha, x), x**power * f
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst

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
        def g(t):
            return np.exp(p * np.log(t) - alpha * t) * 2.0 / (-np.expm1(-2.0 * alpha * t))

        c = kernels.C_const(p)
        return abs(c - alpha ** (p + 1.0) * integrate_zero_to_inf(g).value[0]) / c

    for a in (0.5, 1.0, 2.5, 5.0):
        yield f"prop1e[alpha={a}] C rescaling", lambda a=a: c_rescaling(a, a), 1e-9
    for a in (2.5, 5.0):
        yield f"prop1f[alpha={a}] C(a-1) rescaling", lambda a=a: c_rescaling(a, a - 1), 1e-9

    def prop2a(alpha):
        worst = 0.0
        for c in (0.5, 2.0):
            val = integrate_finite(
                lambda x: np.exp((alpha - 1.0) * np.log(x) - alpha * x) * (1.0 - x), 0.0, c
            ).value
            ref = c**alpha * math.exp(-alpha * c) / alpha
            worst = max(worst, abs(val - ref) / ref)
        return worst

    def gamma_moments(alpha, s, powers):
        # worst relative gap in int_0^inf x^p e^(-alpha x) dx = Gamma(s)/alpha^s
        # over p in powers: it holds for p = s - 1, and for p = s when s = alpha
        ref = specfun.gamma(s) / alpha**s
        worst = 0.0
        for p in powers:
            val = integrate_zero_to_inf(lambda x, p=p: np.exp(p * np.log(x) - alpha * x)).value[0]
            worst = max(worst, abs(val - ref) / ref)
        return worst

    for a in (0.5, 1.0, 3.0):
        yield f"prop2a[alpha={a}] incomplete-gamma identity", lambda a=a: prop2a(a), 1e-9
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
        d = (kernels.kernel_eval("H1", alpha, x + h) - kernels.kernel_eval("H1", alpha, x - h)) / (
            2.0 * h
        )
        bound = -2.0 / (x * x + alpha * alpha) * kernels.kernel_eval("S", alpha, x)
        return max(d - bound - 1e-6, 0.0)

    yield "envelope slope bound at (3,4)", lambda: slope_bound(3.0, 4.0), 1e-12
    yield "envelope slope bound at (5,7)", lambda: slope_bound(5.0, 7.0), 1e-12
    yield (
        "H(alpha, k pi) = 0",
        lambda: max(abs(kernels.kernel_eval("H", 1.3, k * pi)) for k in range(1, 6)),
        1e-12,
    )

    # ordered / interval checks
    @functools.cache
    def h2_grid(alpha):
        # shared by prop1c and prop1d, computed by whichever runs first
        return [kernels.kernel_eval("H2", alpha, x) for x in x_grid]

    def prop1c(alpha):
        h2 = h2_grid(alpha)
        c = kernels.C_const(alpha)
        return max(h2) / c, 1.0, all(-1e-12 <= v <= c * (1.0 + 1e-9) for v in h2)

    def prop1d(alpha):
        h2 = h2_grid(alpha)
        h = [kernels.kernel_eval("H", alpha, x) for x in x_grid]
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

    for a in (1.0, 2.0, 5.0, 20.0):
        yield f"prop2d[alpha={a}] Gamma > Stirling", lambda a=a: stirling(a), None
    for a in (1.5, 2.0, 5.0, 10.0):
        yield f"zeta bounds[alpha={a}]", lambda a=a: zeta_bounds(a), None

    def f_bracket(alpha):
        ok = True
        for x in (1.0, alpha, 2.0 * alpha):
            f = kernels.kernel_eval("F", alpha, x)
            f1 = kernels.kernel_eval("F1", alpha, x)
            f2 = kernels.kernel_eval("F2", alpha, x)
            ok = ok and f1 <= f * (1.0 + 1e-12) and f <= f2 * (1.0 + 1e-12)
        return alpha, alpha, ok

    def s_increasing(alpha):
        xs = np.linspace(alpha / 2.0, 3.0 * alpha, 100)
        vals = [kernels.kernel_eval("S", alpha, x) for x in xs]
        return min(np.diff(vals)), 0.0, all(b > a for a, b in zip(vals, vals[1:]))

    for a in (2.5, 4.0, 8.0):
        yield f"F1<=F<=F2[alpha={a}]", lambda a=a: f_bracket(a), None
    for a in (3.0, 6.0):
        yield f"S increasing[alpha={a}]", lambda a=a: s_increasing(a), None


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

    for a in (0.5, 1.0, 1.9, 3.1, 5.3):
        yield (
            f"series=integral [alpha={a}]",
            lambda a=a: max(
                abs(entire.H_alpha_series(a, x) - entire.H_alpha_integral(a, x))
                for x in (0.3, 2.0, 7.0, 15.0)
            ),
            1e-6,
        )
    for a in (0.5, 1.3):
        yield (
            f"H_alpha interpolates (k pi)^alpha [alpha={a}]",
            lambda a=a: node_gap(entire.H_alpha_integral, a, [k * pi for k in range(1, 7)]),
            1e-9,
        )
    for a in (0.5, 1.0):
        yield (
            f"G_alpha interpolates ((k+1/2) pi)^alpha [alpha={a}]",
            lambda a=a: node_gap(entire.G_alpha, a, [(k + 0.5) * pi for k in range(0, 5)]),
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

    for a in (3.9, 8.4, pi):
        yield f"beta in (a+pi/2, a+3pi/2] [alpha={a}]", lambda a=a: beta_bracket(a), None
    for a in (3.9, 8.4):
        yield f"|H(a,beta)| = H1(a,beta) [alpha={a}]", lambda a=a: beta_touch(a), 1e-9

    def growth_proxy():
        alpha = 1.5
        cbound = 2.0 / pi * kernels.C_const(alpha)
        worst = max(
            abs(entire.H_alpha_integral(alpha, x)) - (x**alpha + cbound)
            for x in np.linspace(0.0, 100.0, 401)
        )
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

    for a in (2.0, 4.0, 8.0, 16.0):
        yield f"envelope chain [alpha={a}]", lambda a=a: envelope_chain(a), None
    for a in (3.0, 10.0):
        yield f"H1 decreasing on [a, a+6pi] [alpha={a}]", lambda a=a: h1_decreasing(a), None
    for a in (10.0, 20.0):
        yield f"norm ratio in envelope window [alpha={a}]", lambda a=a: norm_ratio(a), None
    for k in (0, 1):
        yield f"Watson branch symmetry [k={k}]", lambda k=k: watson_symmetry(k), None

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
    for a in (20.0, 50.0):
        yield f"G(a+1,a) > (1+a^-3) G(a,a) [alpha={a}]", lambda a=a: g_shift_gap(a), None
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
CHECKS = [(suite, *check) for suite, declare in SUITES.items() for check in declare()]


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
    checks = [check for check in CHECKS if suite in ("all", check[0])]
    failures = 0
    for check in checks:
        value, bound, ok = evaluate(check, tol)
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        out.write(f"{check[1]}: {status} (measured={_fmt(float(value))}, bound={_fmt(float(bound))})\n")
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
    if jobs <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
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
        if args.jmax < 1:  # checked before any fit runs
            raise ConfigError(f"--jmax must be >= 1, got {args.jmax}")
        rows = []
        for alpha in parse_range(args.alpha):
            sol = nearbest.optimize_c(alpha)
            # the fit's cache serves if it reaches as far as interp_points would build one
            cache = sol.cache if (args.jmax + 2.0) * pi <= sol.cache.xs[-1] else None
            pts = nearbest.interp_points(alpha, sol.c1, sol.c2, args.jmax, cache=cache)
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
        rows = [(a, kernels.kernel_eval("R", a, a)) for a in alphas]
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
        rows = [(x, entire.H_alpha_integral(alpha, x)) for x in xs]
        emit(("x", "H_alpha"), rows, meta, args.format, args.out)
    elif kind == "G_alpha":
        rows = [(x, entire.G_alpha(alpha, x)) for x in xs]
        emit(("x", "G_alpha"), rows, meta, args.format, args.out)
    elif kind == "limit_error":
        if args.c1 is None or args.c2 is None:
            raise ConfigError("curve limit_error requires --c1 and --c2")
        cache = nearbest.build_cache(alpha, x_max=max(xs) + 1.0)
        rows = [
            (x, nearbest.limit_error(alpha, args.c1, args.c2, x, cache=cache)) for x in xs
        ]
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
    common.add_argument("--jobs", type=int, default=1)

    pt = sub.add_parser("table", parents=[common], help="emit a numeric table")
    pt.add_argument("name", choices=["c_constants", "interp_points", "convergence", "envelope"])
    pt.add_argument("--n", type=str, default=None, help="comma-separated n list")
    pt.add_argument("--scheme", choices=["P1", "P2"], default=None)
    pt.add_argument("--jmax", type=int, default=10)

    pc = sub.add_parser("curve", parents=[common], help="emit (x, value) samples")
    pc.add_argument("kind", choices=["H", "H1", "H_alpha", "G_alpha", "limit_error", "R_diag"])
    pc.add_argument("--x", type=str, default=None, help="x range a:b:step")
    pc.add_argument("--c1", type=float, default=None)
    pc.add_argument("--c2", type=float, default=None)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.suite, args.tol)
        try:
            if args.command == "table":
                return run_table(args.name, args)
            if args.command == "curve":
                return run_curve(args.kind, args)
        except ValueError as exc:  # a library domain error: a bad --alpha or --x
            raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
