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
import json
import math
import sys

import numpy as np

from . import __version__, asymptotics, chebinterp, entire, kernels, nearbest, specfun
from .quadrature import integrate_finite, integrate_zero_to_inf


class ConfigError(Exception):
    """Bad command parameters (exit code 2)."""


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------


def parse_range(spec: str) -> list:
    """'a' -> [a]; 'a:b:step' -> inclusive grid a, a+step, ..., <= b."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            a, b, step = (float(p) for p in parts)
            if step <= 0 or b < a:
                raise ConfigError(f"bad range {spec!r}: need a <= b and step > 0")
            count = int(math.floor((b - a) / step + 0.5)) + 1
            return [a + k * step for k in range(count) if a + k * step <= b + 1e-9 * step]
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {spec!r}") from exc
    raise ConfigError(f"cannot parse range {spec!r} (want 'a' or 'a:b:step')")


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
# Each check returns (measured, bound, ok).  A check "name" is unique; the
# optional --tol override replaces the default tolerance of every check that
# compares |measured| against a tolerance (interval checks keep their logic).


def _residual_checks():
    """Checks of the form |residual| <= tol."""
    pi = math.pi
    out = []

    def add(name, fn, tol):
        out.append((name, fn, tol))

    x_grid = (0.1, 1.0, 5.0, 20.0)

    def prop1_residual(alpha, which):
        worst = 0.0
        for x in x_grid:
            f = kernels.kernel_eval("F", alpha, x)
            if which == "a":
                lhs, rhs = kernels.kernel_eval("H1", alpha, x), x**alpha * f
            else:
                lhs, rhs = kernels.kernel_eval("H2", alpha, x), x ** (alpha + 1.0) * f
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst

    for alpha in (0.5, 1.0, 2.5, 5.0):
        add(f"prop1a[alpha={alpha}] H1=x^a F", lambda a=alpha: prop1_residual(a, "a"), 1e-9)
        add(f"prop1b[alpha={alpha}] H2=x^(a+1) F", lambda a=alpha: prop1_residual(a, "b"), 1e-9)

    def c_rescaling(alpha, p):
        # C(p) = alpha^(p+1) int t^p / sinh(alpha t) dt, for p = alpha (prop1e)
        # and p = alpha - 1 (prop1f)
        def g(t):
            return np.exp(p * np.log(t) - alpha * t) * 2.0 / (-np.expm1(-2.0 * alpha * t))

        c = kernels.C_const(p)
        return abs(c - alpha ** (p + 1.0) * integrate_zero_to_inf(g).value) / c

    for alpha in (0.5, 1.0, 2.5, 5.0):
        add(f"prop1e[alpha={alpha}] C rescaling", lambda a=alpha: c_rescaling(a, a), 1e-9)
    for alpha in (2.5, 5.0):
        add(
            f"prop1f[alpha={alpha}] C(a-1) rescaling",
            lambda a=alpha: c_rescaling(a, a - 1.0),
            1e-9,
        )

    def prop2a(alpha):
        worst = 0.0
        for c in (0.5, 2.0):
            val = integrate_finite(
                lambda x: np.exp((alpha - 1.0) * np.log(x) - alpha * x) * (1.0 - x), 0.0, c
            ).value
            ref = c**alpha * math.exp(-alpha * c) / alpha
            worst = max(worst, abs(val - ref) / ref)
        return worst

    def prop2b(alpha):
        val = integrate_zero_to_inf(lambda x: np.exp((alpha - 2.0) * np.log(x) - alpha * x)).value
        ref = specfun.gamma(alpha - 1.0) / alpha ** (alpha - 1.0)
        return abs(val - ref) / ref

    def prop2c(alpha):
        ref = specfun.gamma(alpha) / alpha**alpha
        worst = 0.0
        for p in (alpha - 1.0, alpha):
            val = integrate_zero_to_inf(lambda x, p=p: np.exp(p * np.log(x) - alpha * x)).value
            worst = max(worst, abs(val - ref) / ref)
        return worst

    for alpha in (0.5, 1.0, 3.0):
        add(f"prop2a[alpha={alpha}] incomplete-gamma identity", lambda a=alpha: prop2a(a), 1e-9)
    for alpha in (1.5, 2.0, 5.0):
        add(f"prop2b[alpha={alpha}] Gamma(a-1)/a^(a-1)", lambda a=alpha: prop2b(a), 1e-9)
        add(f"prop2c[alpha={alpha}] Gamma(a)/a^a", lambda a=alpha: prop2c(a), 1e-9)

    zeta3 = specfun.zeta(3.0)
    closed = [
        ("C(1)=pi^2/4", lambda: abs(kernels.C_const(1.0) / (pi * pi / 4.0) - 1.0)),
        ("C(2)=3.5 zeta(3)", lambda: abs(kernels.C_const(2.0) / (3.5 * zeta3) - 1.0)),
        ("D(1)=pi/2", lambda: abs(kernels.D_const(1.0) / (pi / 2.0) - 1.0)),
        ("delta1(1)=pi^2/4", lambda: abs(kernels.delta_1_closed(1.0) / (pi * pi / 4.0) - 1.0)),
        (
            "delta2(1)=(2/pi)sqrt(pi/3)",
            lambda: abs(kernels.delta_2_closed(1.0) / (2.0 / pi * math.sqrt(pi / 3.0)) - 1.0),
        ),
    ]
    for name, fn in closed:
        add(f"closed-form {name}", fn, 1e-10)

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

    add("chebyshev_T three-term recurrence", t_recurrence, 1e-12)
    add(
        "odd_zeta(2)=pi^2/4",
        lambda: abs(specfun.odd_zeta(2.0) - pi * pi / 4.0),
        1e-13,
    )
    add("odd_zeta(30)->2", lambda: abs(specfun.odd_zeta(30.0) - 2.0) - 2e-9, 1e-9)

    def slope_bound(alpha, x):
        h = 1e-5
        d = (kernels.kernel_eval("H1", alpha, x + h) - kernels.kernel_eval("H1", alpha, x - h)) / (
            2.0 * h
        )
        bound = -2.0 / (x * x + alpha * alpha) * kernels.kernel_eval("S", alpha, x)
        return max(d - bound - 1e-6, 0.0)

    add("envelope slope bound at (3,4)", lambda: slope_bound(3.0, 4.0), 1e-12)
    add("envelope slope bound at (5,7)", lambda: slope_bound(5.0, 7.0), 1e-12)

    def h_zero_at_kpi():
        return max(abs(kernels.kernel_eval("H", 1.3, k * pi)) for k in range(1, 6))

    add("H(alpha, k pi) = 0", h_zero_at_kpi, 1e-12)
    return out


def _suite_identities(tol_override=None):
    results = []
    for name, fn, tol in _residual_checks():
        tol = tol_override if tol_override is not None else tol
        value = fn()
        results.append((name, value, tol, value <= tol))

    # ordered / interval checks (kept outside the residual form)
    def interval(name, ok, detail, bound):
        results.append((name, detail, bound, ok))

    for alpha in (0.5, 1.0, 2.5, 5.0):
        h2 = [kernels.kernel_eval("H2", alpha, x) for x in (0.1, 1.0, 5.0, 20.0)]
        h = [kernels.kernel_eval("H", alpha, x) for x in (0.1, 1.0, 5.0, 20.0)]
        c = kernels.C_const(alpha)
        ok_c = all(-1e-12 <= v <= c * (1.0 + 1e-9) for v in h2)
        interval(f"prop1c[alpha={alpha}] 0<=H2<=C", ok_c, max(h2) / c, 1.0)
        ok_d = all(abs(a) <= b + 1e-12 for a, b in zip(h, h2))
        interval(f"prop1d[alpha={alpha}] |H|<=H2", ok_d, max(abs(a) for a in h), max(h2))
    for alpha in (1.0, 2.0, 5.0, 20.0):
        g = specfun.gamma(alpha)
        low = math.sqrt(2.0 * math.pi / alpha) * (alpha / math.e) ** alpha
        interval(f"prop2d[alpha={alpha}] Gamma > Stirling", g > low, g / low, 1.0)
    for alpha in (1.5, 2.0, 5.0, 10.0):
        z = specfun.zeta(alpha)
        hi = 1.0 + 2.0**-alpha + 2.0 ** (1.0 - alpha) / (alpha - 1.0)
        interval(f"zeta bounds[alpha={alpha}]", 1.0 < z < hi, z, hi)
    for alpha in (2.5, 4.0, 8.0):
        ok = True
        for x in (1.0, alpha, 2.0 * alpha):
            f = kernels.kernel_eval("F", alpha, x)
            f1 = kernels.kernel_eval("F1", alpha, x)
            f2 = kernels.kernel_eval("F2", alpha, x)
            ok = ok and f1 <= f * (1.0 + 1e-12) and f <= f2 * (1.0 + 1e-12)
        interval(f"F1<=F<=F2[alpha={alpha}]", ok, alpha, alpha)
    for alpha in (3.0, 6.0):
        xs = np.linspace(alpha / 2.0, 3.0 * alpha, 100)
        vals = [kernels.kernel_eval("S", alpha, x) for x in xs]
        ok = all(b > a for a, b in zip(vals, vals[1:]))
        interval(f"S increasing[alpha={alpha}]", ok, min(np.diff(vals)), 0.0)
    return results


def _suite_limits(tol_override=None):
    pi = math.pi
    results = []

    def residual(name, value, tol):
        tol = tol_override if tol_override is not None else tol
        results.append((name, value, tol, value <= tol))

    residual("H1(1, 1e-8) -> pi/2", abs(kernels.kernel_eval("H1", 1.0, 1e-8) - pi / 2.0), 1e-4)
    for alpha in (0.5, 2.5):
        residual(f"H(alpha,0)=0 [alpha={alpha}]", abs(kernels.kernel_eval("H", alpha, 0.0)), 0.0)
        residual(f"H2(alpha,0)=0 [alpha={alpha}]", abs(kernels.kernel_eval("H2", alpha, 0.0)), 0.0)
    residual("H1(2.5, 0)=0", abs(kernels.kernel_eval("H1", 2.5, 0.0)), 0.0)

    for alpha in (0.5, 1.0, 1.9, 3.1, 5.3):
        worst = max(
            abs(entire.H_alpha_series(alpha, x) - entire.H_alpha_integral(alpha, x))
            for x in (0.3, 2.0, 7.0, 15.0)
        )
        residual(f"series=integral [alpha={alpha}]", worst, 1e-6)
    for alpha in (0.5, 1.3):
        worst = max(
            abs(entire.H_alpha_integral(alpha, k * pi) - (k * pi) ** alpha) for k in range(1, 7)
        )
        residual(f"H_alpha interpolates (k pi)^alpha [alpha={alpha}]", worst, 1e-9)
    for alpha in (0.5, 1.0):
        worst = max(
            abs(entire.G_alpha(alpha, (k + 0.5) * pi) - ((k + 0.5) * pi) ** alpha)
            for k in range(0, 5)
        )
        residual(f"G_alpha interpolates ((k+1/2) pi)^alpha [alpha={alpha}]", worst, 1e-9)
    residual("G_alpha(0)=0", abs(entire.G_alpha(1.0, 0.0)), 0.0)

    for alpha in (3.9, 8.4, pi):
        beta = entire.beta_point(alpha)
        ok = alpha + pi / 2.0 < beta <= alpha + 1.5 * pi
        results.append((f"beta in (a+pi/2, a+3pi/2] [alpha={alpha}]", beta, alpha + 1.5 * pi, ok))
    for alpha in (3.9, 8.4):
        beta = entire.beta_point(alpha)
        lhs = abs(kernels.kernel_eval("H", alpha, beta))
        rhs = kernels.kernel_eval("H1", alpha, beta)
        residual(f"|H(a,beta)| = H1(a,beta) [alpha={alpha}]", abs(lhs - rhs) / rhs, 1e-9)

    alpha = 1.5
    cbound = 2.0 / pi * kernels.C_const(alpha)
    worst = max(
        abs(entire.H_alpha_integral(alpha, x)) - (x**alpha + cbound)
        for x in np.linspace(0.0, 100.0, 401)
    )
    results.append(("growth proxy |H_alpha| <= x^a + (2/pi)C", worst, 0.0, worst <= 0.0))

    v = chebinterp.scaled_interp_eval(chebinterp.build_nodes("P2", 64), 1.0, pi)
    residual("scaled P2(n=64) at pi -> H_alpha(pi)", abs(v - entire.H_alpha_integral(1.0, pi)), 2e-2)
    v = chebinterp.scaled_interp_eval(chebinterp.build_nodes("P1", 64), 1.0, pi / 2.0)
    residual("scaled P1(n=64) at pi/2 -> G_alpha(pi/2)", abs(v - entire.G_alpha(1.0, pi / 2.0)), 5e-2)
    return results


def _suite_asymptotics(tol_override=None):
    results = []

    def residual(name, value, tol):
        tol = tol_override if tol_override is not None else tol
        results.append((name, value, tol, value <= tol))

    root = asymptotics.find_alpha0(1e-6)
    results.append(
        ("alpha0 in (2.54288, 2.54289)", root, 2.54289, 2.54288 < root < 2.54289)
    )
    r_lo = kernels.kernel_eval("R", 2.4, 2.4)
    r_hi = kernels.kernel_eval("R", 3.0, 3.0)
    results.append(("R(2.4,2.4) < 0", r_lo, 0.0, r_lo < 0.0))
    results.append(("R(3,3) > 0", r_hi, 0.0, r_hi > 0.0))

    for alpha in (2.0, 4.0, 8.0, 16.0):
        try:
            eb = asymptotics.envelope_bounds(alpha)
            ok, detail = True, eb.norm / eb.upper
        except RuntimeError:
            ok, detail = False, math.inf
        results.append((f"envelope chain [alpha={alpha}]", detail, 1.0, ok))

    for alpha in (3.0, 10.0):
        ok = asymptotics.monotonicity_check(alpha, alpha + 6.0 * math.pi)
        results.append((f"H1 decreasing on [a, a+6pi] [alpha={alpha}]", float(ok), 1.0, ok))

    for alpha in (10.0, 20.0):
        r = asymptotics.norm_ratio_limit(alpha)
        lo = 1.0 - 1.0 / math.sqrt(alpha) - 0.02
        hi = 1.0 + 2.0 / math.sqrt(alpha) + 0.02
        results.append((f"norm ratio in envelope window [alpha={alpha}]", r, hi, lo <= r <= hi))

    for k in (0, 1):
        up = asymptotics.watson_coeffs(k, "upper")
        lo_ = asymptotics.watson_coeffs(k, "lower")
        ok = all(lo_.a[i] == ((-1.0) ** i) * up.a[i] for i in range(6))
        results.append((f"Watson branch symmetry [k={k}]", float(ok), 1.0, ok))

    for alpha in (20.0, 40.0):
        for variant, karg in (("G_aa", (alpha, alpha)), ("G_a1a", (alpha + 1.0, alpha))):
            q = kernels.kernel_eval("G", *karg)
            e = asymptotics.G_asympt(alpha, variant, 2)
            residual(f"{variant} order-2 vs quadrature [alpha={alpha}]", abs(q - e) / q, 3.0 / alpha**3)

    q_diff = kernels.kernel_eval("G", 41.0, 40.0) - kernels.kernel_eval("G", 40.0, 40.0)
    pred = math.sqrt(2.0 * math.pi / 40.0) * math.exp(-40.0) / (4.0 * 1600.0)
    residual("G(a+1,a)-G(a,a) ~ sqrt(2pi/a)e^-a/(4a^2) [alpha=40]", abs(q_diff / pred - 1.0), 0.2)

    for alpha in (20.0, 50.0):
        gap = kernels.kernel_eval("G", alpha + 1.0, alpha) - (1.0 + alpha**-3) * kernels.kernel_eval(
            "G", alpha, alpha
        )
        results.append((f"G(a+1,a) > (1+a^-3) G(a,a) [alpha={alpha}]", gap, 0.0, gap > 0.0))

    ratio = kernels.kernel_eval("G", 30.0, 31.5) / kernels.kernel_eval("G", 30.0, 30.0)
    residual("G(a,a+c)/G(a,a) -> e^-c [alpha=30, c=1.5]", abs(ratio / math.exp(-1.5) - 1.0), 0.1)

    ratios = []
    for alpha in (20.0, 40.0, 80.0):
        r = kernels.kernel_eval("H1", alpha, alpha + 1.5 * math.pi) / kernels.kernel_eval(
            "H1", alpha, alpha
        )
        ratios.append(abs(r - 1.0))
    ok = ratios[0] <= 0.25 and ratios[0] >= ratios[1] >= ratios[2]
    results.append(("H1(a, a+3pi/2)/H1(a,a) -> 1 decreasing", ratios[0], 0.25, ok))

    # expansion coefficients re-derived from the branch tables
    derived_ok = True
    for k, coeffs in ((0, (0.5, -5.0 / 24.0, 61.0 / 576.0)), (1, (0.5, -5.0 / 24.0, 205.0 / 576.0))):
        a = asymptotics.watson_coeffs(k, "upper").a
        for j in range(3):
            derived = 2.0 * math.gamma(j + 0.5) * a[2 * j] / math.sqrt(2.0 * math.pi)
            derived_ok = derived_ok and abs(derived - coeffs[j]) <= 1e-15
    results.append(("even Watson coefficients match expansions", float(derived_ok), 1.0, derived_ok))
    return results


_SUITES = {
    "identities": (_suite_identities,),
    "limits": (_suite_limits,),
    "asymptotics": (_suite_asymptotics,),
    "all": (_suite_identities, _suite_limits, _suite_asymptotics),
}


def run_verify(suite: str, tol=None, out=None) -> int:
    out = out or sys.stdout
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    failures = 0
    count = 0
    for fn in _SUITES[suite]:
        for name, value, bound, ok in fn(tol):
            count += 1
            failures += 0 if ok else 1
            status = "PASS" if ok else "FAIL"
            out.write(f"{name}: {status} (measured={_fmt(float(value))}, bound={_fmt(float(bound))})\n")
    out.write(f"{suite}: {count - failures}/{count} checks passed\n")
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
    meta = {"command": f"table {name}", "rel_tol": 1e-12}
    if name == "c_constants":
        alphas = parse_range(args.alpha) if args.alpha else parse_range("0.1:1.9:0.1")
        rows = _pool_map(_cc_row, alphas, args.jobs)
        emit(("alpha", "c1", "c2", "minimax"), rows, meta, args.format, args.out)
    elif name == "interp_points":
        if not args.alpha:
            raise ConfigError("table interp_points requires --alpha")
        rows = []
        for alpha in parse_range(args.alpha):
            sol = nearbest.optimize_c(alpha)
            pts = nearbest.interp_points(alpha, sol.c1, sol.c2, args.jmax)
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
    meta = {"command": f"curve {kind}", "rel_tol": 1e-12}
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
    pv.add_argument("suite", choices=["identities", "limits", "asymptotics", "all"])
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
        if args.command == "table":
            return run_table(args.name, args)
        if args.command == "curve":
            return run_curve(args.kind, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
