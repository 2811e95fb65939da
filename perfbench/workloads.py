"""The benchmark's workloads: seeded operations and their reference checks.

An operation runs one CLI command (stdout captured, exit code checked) or
one public API call, and returns its output as text so that repeated runs
can be compared byte for byte.  Its check parses that text and compares it
with the references in reference.py, returning the largest
|result - reference| / tolerance; one-sided bounds and orderings pass or
fail without adding to that ratio.

The seed moves x-grid offsets and alpha by small amounts and shuffles the
order of operations; it never changes how many operations run or their
size, so the work per run stays comparable.  Jitter is kept small enough
that the published-table checks, which are stated at the nominal alpha,
still hold, and is left out where it would change the amount of work.

Library functions are looked up as module attributes at call time so that
the tracer's wrappers see every call.
"""

import contextlib
import importlib.util
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable

import bernsteinlab.asymptotics
import bernsteinlab.cli
import bernsteinlab.kernels
import bernsteinlab.remez

bl = bernsteinlab


def _import_lazily(name: str):
    """Import module `name` when one of its attributes is first used."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# reference.py loads mpmath and scipy.interpolate, which the library never
# imports; it is loaded by the first check, after worker.py has read the
# peak RSS, so that the peak is the library's and the workload's alone
ref = _import_lazily("reference")

WORKLOADS = ("nearbest-fit", "kernel-tables", "finite-n")

PI = math.pi


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], str]
    check: Callable[[str], float]
    cli: bool = True


def _cli(argv) -> str:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = bl.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        raise RuntimeError(f"usage error (exit {exc.code})") from None
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    return buf.getvalue()


def cli_op(argv, check) -> Op:
    return Op(" ".join(argv), lambda: _cli(argv), check)


def api_op(name, fn, check) -> Op:
    return Op(name, lambda: json.dumps(fn(), sort_keys=True), check, cli=False)


def csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _jitter(rng: random.Random, x: float, width: float) -> float:
    return round(x + rng.uniform(-width, width), 6)


def _expect_grid(values, start: float, step: float, stop: float, what: str):
    """The CLI's a:b:step range: start, start + step, ... up to stop."""
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    expect = [start + k * step for k in range(count) if start + k * step <= stop + 1e-9 * step]
    if len(values) != len(expect):
        raise ref.CheckFailed(f"{what}: {len(values)} rows, expected {len(expect)}")
    worst = max(abs(v - e) for v, e in zip(values, expect))
    if worst > 1e-9 * max(1.0, abs(stop)):
        raise ref.CheckFailed(f"{what}: grid deviates by {worst:.3g}")


def _samples(rng: random.Random, k: int) -> list:
    return sorted(rng.random() for _ in range(k))


# ---------------------------------------------------------------------------
# nearbest-fit: the near-best constant and interpolation-point tables
# ---------------------------------------------------------------------------


def _check_c_constants(text):
    (row,) = csv_rows(text)
    c1_ref, c2_ref = ref.C_TABLE_1
    d = ref.DELTA_INF_1
    return max(
        ref.ratio(float(row["c1"]), c1_ref, ref.C_TABLE_TOL, "c1"),
        ref.ratio(float(row["c2"]), c2_ref, ref.C_TABLE_TOL, "c2"),
        ref.interval_ratio(float(row["minimax"]), d, 1.1 * d, "minimax"),
    )


def _check_interp_points(text):
    xs = [float(row["x_j_star"]) for row in csv_rows(text)]
    if len(xs) != len(ref.X_TABLE_1):
        raise ref.CheckFailed(f"{len(xs)} interpolation points, expected {len(ref.X_TABLE_1)}")
    r = [
        ref.ratio(x, x_ref, ref.X_TABLE_TOL, f"x_{j}*")
        for j, (x, x_ref) in enumerate(zip(xs, ref.X_TABLE_1), start=1)
    ]
    r += [
        ref.interval_ratio(x, (j - 1.5) * PI, (j - 0.5) * PI, f"x_{j}* bracket")
        for j, x in enumerate(xs, start=1)
        if j >= 2
    ]
    return max(r)


def nearbest_fit(rng: random.Random) -> list:
    # Both tables at alpha = 1, where C_TABLE, X_TABLE and DELTA_INF all
    # apply; interp_points repeats the fit, as the CLI does today.  No alpha
    # jitter: Nelder-Mead's evaluation count swings by up to +-20% when alpha
    # moves by as little as 1e-5, so jitter would make the work per run
    # incomparable.  The seed only orders the operations.
    return [
        cli_op(["table", "c_constants", "--alpha", "1.0", "--jobs", "1"], _check_c_constants),
        cli_op(["table", "interp_points", "--alpha", "1.0", "--jmax", "10"], _check_interp_points),
    ]


# ---------------------------------------------------------------------------
# kernel-tables: batched kernel curves, envelope table, root, sup norms, verify
# ---------------------------------------------------------------------------


def _check_curve_H(alpha, start, step, stop, fracs):
    def check(text):
        rows = csv_rows(text)
        xs = [float(r["x"]) for r in rows]
        _expect_grid(xs, start, step, stop, f"curve H alpha={alpha}")
        worst = 0.0
        for f in fracs:
            row = rows[int(f * len(rows))]
            x, h, h1 = float(row["x"]), float(row["H"]), float(row["H1"])
            j = ref.J_mp(alpha, x)
            worst = max(
                worst,
                ref.ratio(h1, j, 1e-9 * j, f"H1({alpha}, {x})"),
                ref.ratio(h, math.sin(x) * j, 1e-9 * j, f"H({alpha}, {x})"),
            )
        return worst

    return check


def _check_R_diag(start, step, stop, fracs):
    def check(text):
        rows = csv_rows(text)
        alphas = [float(r["alpha"]) for r in rows]
        _expect_grid(alphas, start, step, stop, "curve R_diag")
        lo, hi = ref.ALPHA0_INTERVAL
        for a, row in zip(alphas, rows):
            r = float(row["R_diag"])
            if (a < lo and not r < 0.0) or (a > hi and not r > 0.0):
                raise ref.CheckFailed(f"R({a}, {a}) = {r!r} has the wrong sign")
        worst = 0.0
        for f in fracs:
            row = rows[int(f * len(rows))]
            a = float(row["alpha"])
            f_aa = ref.F_mp(a, a)
            worst = max(
                worst,
                ref.ratio(float(row["R_diag"]), ref.F_mp(a + 1.0, a) - f_aa, 1e-9 * f_aa, f"R({a})"),
            )
        return worst

    return check


def _check_envelope(start, step, stop, fracs):
    def check(text):
        rows = csv_rows(text)
        alphas = [float(r["alpha"]) for r in rows]
        _expect_grid(alphas, start, step, stop, "table envelope")
        worst = 0.0
        for a, row in zip(alphas, rows):
            lower, point = float(row["lower"]), float(row["H1_at_alpha"])
            norm, upper = float(row["norm"]), float(row["upper"])
            if not lower <= point <= norm <= upper:
                raise ref.CheckFailed(f"envelope chain fails at alpha={a}")
            base = ref.C_closed(a) / (1.0 + 2.0 * a)
            lo_ref, up_ref = base * (1.0 - 1.0 / math.sqrt(a)), base * (1.0 + 2.0 / math.sqrt(a))
            sup = ref.sup_H1_gl(a)
            worst = max(
                worst,
                ref.ratio(lower, lo_ref, 1e-10 * lo_ref, f"lower({a})"),
                ref.ratio(upper, up_ref, 1e-10 * up_ref, f"upper({a})"),
                ref.ratio(norm, sup, 1e-8 * sup, f"||H1({a}, .)||"),
            )
        for f in fracs:
            row = rows[int(f * len(rows))]
            a = float(row["alpha"])
            j = ref.J_mp(a, a)
            worst = max(worst, ref.ratio(float(row["H1_at_alpha"]), j, 1e-9 * j, f"H1({a}, {a})"))
        return worst

    return check


def _check_alpha0(text):
    root = json.loads(text)["alpha0"]
    return ref.interval_ratio(root, *ref.ALPHA0_INTERVAL, "alpha0")


def _sup_norm_H(alpha):
    rep = bl.kernels.sup_norm_H(alpha)
    return {"alpha": alpha, "norm": rep.norm, "argmax": rep.argmax, "truncation_X": rep.truncation_X}


def _check_sup_norm_H(text):
    out = json.loads(text)
    a, norm, x = out["alpha"], out["norm"], out["argmax"]
    at_argmax = abs(math.sin(x)) * ref.J_mp(a, x)
    sup = ref.sup_absH_gl(a, out["truncation_X"])
    window = norm * (1.0 + 2.0 * a) / ref.C_closed(a)
    return max(
        ref.ratio(norm, at_argmax, 1e-9 * norm, f"|H({a}, argmax)|"),
        ref.ratio(norm, sup, 1e-7 * sup, f"||H({a}, .)||"),
        ref.interval_ratio(
            window, 1.0 - 1.0 / math.sqrt(a) - 0.02, 1.0 + 2.0 / math.sqrt(a) + 0.02, "norm ratio"
        ),
    )


def _check_verify(text):
    lines = text.splitlines()
    failed = [ln for ln in lines if ": FAIL" in ln]
    if failed:
        raise ref.CheckFailed(f"verify: {failed[0]}")
    m = re.fullmatch(r"all: (\d+)/(\d+) checks passed", lines[-1])
    if not m or m[1] != m[2] or int(m[2]) != len(lines) - 1:
        raise ref.CheckFailed(f"verify summary: {lines[-1]}")
    return 0.0


def kernel_tables(rng: random.Random) -> list:
    ops = []
    step, stop = round(PI / 400.0, 10), round(40.0 * PI, 10)
    for a in (0.5, 2.5, 10.0, 40.0, 80.0):
        a = _jitter(rng, a, 0.01)
        start = round(0.1 + rng.uniform(0.0, step), 10)
        ops.append(
            cli_op(
                ["curve", "H", "--alpha", str(a), "--x", f"{start}:{stop}:{step}"],
                _check_curve_H(a, start, step, stop, _samples(rng, 4)),
            )
        )
    start = round(2.4 + rng.uniform(0.0, 0.05), 6)
    ops.append(
        cli_op(
            ["curve", "R_diag", "--alpha", f"{start}:20:0.05"],
            _check_R_diag(start, 0.05, 20.0, _samples(rng, 4)),
        )
    )
    start = round(2.0 + rng.uniform(0.0, 0.25), 6)
    ops.append(
        cli_op(
            ["table", "envelope", "--alpha", f"{start}:32.5:2"],
            _check_envelope(start, 2.0, 32.5, _samples(rng, 4)),
        )
    )
    ops.append(
        api_op("find_alpha0(1e-6)", lambda: {"alpha0": bl.asymptotics.find_alpha0(1e-6)}, _check_alpha0)
    )
    for a in (10.0, 20.0, 40.0, 80.0):
        a = _jitter(rng, a, 0.05)
        ops.append(api_op(f"sup_norm_H({a})", lambda a=a: _sup_norm_H(a), _check_sup_norm_H))
    ops.append(cli_op(["verify", "all"], _check_verify))
    return ops


# ---------------------------------------------------------------------------
# finite-n: Remez best approximation, extrapolation, interpolation errors
# ---------------------------------------------------------------------------


def _best_poly(alpha, n):
    b = bl.remez.best_poly(alpha, n)
    return {
        "alpha": alpha,
        "E_n": b.E_n,
        "y_hi": b.y_hi,
        "coeffs": b.coeffs.tolist(),
        "reference": b.reference.points.tolist(),
        "signs": b.reference.signs.tolist(),
    }


def _check_best_poly(text):
    out = json.loads(text)
    gap = ref.best_poly_gap(
        out["alpha"], out["y_hi"], out["coeffs"], out["reference"], out["signs"], out["E_n"]
    )
    return ref.ratio(gap, 0.0, 1e-8, "de la Vallee Poussin gap")


def _check_extrapolate(text):
    out = json.loads(text)
    return ref.ratio(out["limit"], ref.BETA[out["alpha"]], ref.BETA_TOL, f"beta({out['alpha']})")


CONVERGENCE_N = (8, 16, 32, 64, 128, 256, 512)


def _check_convergence(scheme):
    def check(text):
        rows = csv_rows(text)
        if [(r["alpha"], r["scheme"], int(r["n"])) for r in rows] != [
            ("1", scheme, n) for n in CONVERGENCE_N
        ]:
            raise ref.CheckFailed(f"unexpected rows in the {scheme} convergence table")
        err = {int(r["n"]): float(r["scaled_error"]) for r in rows}
        # sup_error's golden polish never evaluates the end x = 1, where the
        # P1 error peaks, and reads up to ~1.3e-7 low there (n = 32)
        worst = 0.0
        for n, s in err.items():
            s_ref = ref.scaled_interp_sup(scheme, 1.0, n)
            worst = max(worst, ref.ratio(s, s_ref, 1e-6 * s_ref, f"{scheme} n={n}"))
        if scheme == "P1":
            limit = 2.0 / PI * ref.D_closed(1.0)
            return max(worst, ref.ratio(err[256], limit, 0.02, "P1 limit at n=256"))
        limit = 2.0 / PI * ref.sup_absH_gl(1.0, 40.0 * PI)
        gaps = [abs(err[n] - limit) for n in (16, 32, 64, 128, 256)]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            raise ref.CheckFailed(f"P2 gaps to the limit do not decrease: {gaps}")
        if not err[256] <= 1.01 * 2.0 / PI * ref.C_closed(1.0):
            raise ref.CheckFailed("P2 error above the integral upper estimate")
        return max(worst, ref.ratio(err[256], limit, 0.02 * limit, "P2 limit at n=256"))

    return check


def finite_n(rng: random.Random) -> list:
    ops = []
    for n in (16, 64, 256):
        a = _jitter(rng, 1.0, 0.05)
        ops.append(api_op(f"best_poly({a}, {n})", lambda a=a, n=n: _best_poly(a, n), _check_best_poly))
    for a in (1.0, 0.5):
        ops.append(
            api_op(
                f"bernstein_extrapolate({a}, [8, 16, 32, 64])",
                lambda a=a: {"alpha": a, "limit": bl.remez.bernstein_extrapolate(a, [8, 16, 32, 64])},
                _check_extrapolate,
            )
        )
    for scheme in ("P1", "P2"):
        ops.append(
            cli_op(
                ["table", "convergence", "--alpha", "1", "--scheme", scheme,
                 "--n", ",".join(map(str, CONVERGENCE_N)), "--jobs", "1"],
                _check_convergence(scheme),
            )
        )
    return ops


_WORKLOAD_OPS = {"nearbest-fit": nearbest_fit, "kernel-tables": kernel_tables, "finite-n": finite_n}


def build(workload: str, seed: int) -> list:
    """The workload's operations for this seed, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = _WORKLOAD_OPS[workload](rng)
    rng.shuffle(ops)
    return ops
