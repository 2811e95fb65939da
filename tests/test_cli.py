import io
import json
import math
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from bernsteinlab import cli


def run_main(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.mark.parametrize("check", cli.CHECKS, ids=[name for _, name, _, _ in cli.CHECKS])
def test_registered_check_passes(check):
    measured, bound, ok = cli.evaluate(check)
    assert ok, f"measured={measured}, bound={bound}"


def test_check_registry_shape():
    names = [name for _, name, _, _ in cli.CHECKS]
    assert len(set(names)) == len(names)  # names are the verify lines and the test ids
    assert {suite for suite, _, _, _ in cli.CHECKS} == {"identities", "limits", "asymptotics"}


@pytest.mark.parametrize("suite,count", [("identities", 55), ("limits", 24), ("asymptotics", 23)])
def test_verify_reports_every_registered_check(suite, count):
    assert sum(check[0] == suite for check in cli.CHECKS) == count
    code, out = run_main(["verify", suite])
    assert code == 0
    assert out.splitlines()[-1] == f"{suite}: {count}/{count} checks passed"
    assert len(out.splitlines()) == count + 1


def test_verify_zero_tolerance_fails():
    code, out = run_main(["verify", "identities", "--tol", "0"])
    assert code == 1
    assert ": FAIL" in out
    # --tol replaces every residual tolerance, so a residual that is not exactly 0 fails
    assert "odd_zeta(30)->2: FAIL" in out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "doesnotexist"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "identities", "--bogus", "1"])
    assert exc.value.code == 2


def _exits_2_with_one_error_line(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    return code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1


def test_missing_required_params_exit_2(capsys):
    for argv in (
        ["table", "convergence"],  # needs --alpha and --n
        ["table", "c_constants", "--alpha", "2.5"],  # optimize_c needs alpha < 2
        ["table", "interp_points", "--alpha", "1", "--jmax", "0"],
        ["curve", "H", "--alpha", "-1"],
        # c1 and c2 must be finite: a NaN once printed nan rows and exit 0
        ["curve", "limit_error", "--alpha", "1", "--c1", "nan", "--c2", "0.45", "--x", "0:2:1"],
        ["curve", "limit_error", "--alpha", "1", "--c1", "0.26", "--c2", "inf", "--x", "0:2:1"],
        # a list that holds no integer once printed an empty table and exit 0
        ["table", "convergence", "--alpha", "1", "--n", ","],
        ["table", "interp_points"],
        ["table", "envelope"],
    ):
        assert _exits_2_with_one_error_line(argv, capsys), argv


def test_bad_jmax_exits_2_before_any_fit(capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit or a cache ran before --jmax was checked")

    monkeypatch.setattr(cli.nearbest, "optimize_c", no_fit)
    monkeypatch.setattr(cli.nearbest, "build_cache", no_fit)
    # 9999 roots would need a cache past build_cache's bound, (9999 + 2) pi > 10^4 pi
    for jmax in ("0", "-3", "9999", "100000000"):
        argv = ["table", "interp_points", "--alpha", "1", "--jmax", jmax]
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: --jmax must be in [1, 9998], got {jmax}\n"


def test_bad_range_exit_2(capsys):
    for argv in (
        ["table", "envelope", "--alpha", "4:2:0.5"],
        ["table", "envelope", "--alpha", "nan"],
        ["curve", "H1", "--alpha", "1", "--x", "0:inf:1"],
        ["curve", "R_diag", "--alpha", "inf"],
        ["table", "envelope", "--alpha", "1:2"],
        ["table", "envelope", "--alpha", "abc"],
        ["table", "envelope", "--alpha", "0:1:1e-7"],  # more than 10^6 points
        ["table", "convergence", "--alpha", "1", "--n", "8,x"],
        ["curve", "H", "--alpha", "1:2:0.5"],  # a curve takes one alpha
        # --jobs below 1 once ran the fits serially and exited 0
        ["table", "c_constants", "--alpha", "1", "--jobs", "0"],
        ["table", "c_constants", "--alpha", "1", "--jobs", "-3"],
    ):
        assert _exits_2_with_one_error_line(argv, capsys), argv


def _capped_main(argv):
    """cli.main(argv) in a subprocess capped at 1 GiB of address space; it
    prints the seconds main took."""
    code = (
        "import sys, time; from bernsteinlab import cli; start = time.perf_counter(); "
        "code = cli.main(sys.argv[1:]); print(time.perf_counter() - start); sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "H", "--alpha", "1", "--x", "1:2:1e-300"],  # about 1e300 points
        ["table", "envelope", "--alpha", "0:1e308:1e-308"],  # an infinite count
    ],
    ids=["curve-H-1e300-points", "envelope-infinite-count"],
)
def test_unbounded_range_exits_2_before_building_it(argv):
    # refused by the point count, before a list is built: one error line, in
    # well under a second.  The CLI runs in a subprocess capped at 1 GiB, so
    # a range that is built anyway ends in a MemoryError, not a full machine
    proc = _capped_main(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: bad range") and len(proc.stderr.splitlines()) == 1
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize(
    "argv,error",
    [
        # 10^5 x values, whose cache would span 3.2M interpolant pieces
        (
            ["curve", "limit_error", "--alpha", "1", "--c1", "0.26", "--c2", "0.45", "--x", "0:1e7:100"],
            f"error: --x must be <= {1e4 * math.pi - 1.0!r}, got up to 10000000.0\n",
        ),
        # a root search past the fit's cache, on a grid of 1e10 points
        (
            ["table", "interp_points", "--alpha", "1", "--jmax", "100000000"],
            "error: --jmax must be in [1, 9998], got 100000000\n",
        ),
    ],
    ids=["limit-error-1e7-span", "interp-points-1e8-roots"],
)
def test_unbounded_cache_exits_2_before_building_it(argv, error):
    # a cache past 10^6 grid points is refused by the option that asks for
    # it, in the user's own numbers, before any fit or cache: well under a second
    proc = _capped_main(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == error
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize(
    "kind,options",
    [
        ("H_alpha", ["--x", "-1:1:0.5"]),
        ("G_alpha", ["--x", "-1:1:0.5"]),
        ("limit_error", ["--x", "0:2:1", "--c1", "-1e-1", "--c2", "-5e-1"]),
    ],
    ids=["H_alpha", "G_alpha", "limit_error"],
)
def test_negative_value_needs_no_equals_sign(kind, options):
    # argparse reads -1:1:0.5 or -1e-1 as an option unless main joins it to
    # its option: both forms print the same bytes
    head = ["curve", kind, "--alpha", "1"]
    joined = [f"{opt}={value}" for opt, value in zip(options[::2], options[1::2])]
    out = run_main(head + options)
    assert out == run_main(head + joined) and out[0] == 0


def test_quadrature_failure_exits_2(capsys):
    # C(170) and C(172) are past what the half-line quadrature can sum in
    # double precision: one error line each, not a traceback
    for alpha in ("170", "172"):
        argv = ["table", "envelope", "--alpha", alpha]
        assert _exits_2_with_one_error_line(argv, capsys), argv


def test_parse_range():
    assert cli.parse_range("1.5") == [1.5]
    grid = cli.parse_range("0.1:0.5:0.1")
    assert len(grid) == 5
    assert abs(grid[-1] - 0.5) <= 1e-12
    assert cli.parse_int_list("8,16,") == [8, 16]
    with pytest.raises(cli.ConfigError, match="^integer list ',' holds no integer$"):
        cli.parse_int_list(",")


def test_table_envelope_csv_shape():
    code, out = run_main(["table", "envelope", "--alpha", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("bernsteinlab" in l for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "alpha,lower,H1_at_alpha,norm,upper"
    row = [float(v) for v in lines[-1].split(",")]
    assert row[1] <= row[2] <= row[3] <= row[4]


def test_table_convergence_approaches_one():
    code, out = run_main(
        ["table", "convergence", "--alpha", "1", "--scheme", "P1", "--n", "8,16,32,64"]
    )
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    last = float(rows[-1].split(",")[-1])
    assert abs(last - 1.0) <= 0.02


def test_table_interp_points_row_j5(nb_solution):
    # warm the cache through the fixture; CLI recomputes deterministically
    code, out = run_main(["table", "interp_points", "--alpha", "0.5", "--jmax", "10"])
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 10
    j5 = [r for r in rows if r.split(",")[1] == "5"][0]
    assert abs(float(j5.split(",")[2]) - 11.13) <= 0.05


def test_table_interp_points_builds_one_cache_per_alpha(monkeypatch):
    # deterministic work gate: the roots are taken on the fit's own cache
    builds = []
    build_cache = cli.nearbest.build_cache

    def counting_build_cache(*args, **kwargs):
        builds.append(args)
        return build_cache(*args, **kwargs)

    monkeypatch.setattr(cli.nearbest, "build_cache", counting_build_cache)
    code, _ = run_main(["table", "interp_points", "--alpha", "1", "--jmax", "10"])
    assert code == 0
    assert builds == [(1.0,)]


def test_table_interp_points_past_the_fits_roots(monkeypatch):
    # past the fit's 11 roots the search runs on the fit's cache while that
    # reaches (jmax + 2) pi, its 40 pi at jmax 38, and on one more cache past
    # it; either way the first 10 rows are the --jmax 10 rows
    builds = []
    build_cache = cli.nearbest.build_cache

    def counting_build_cache(*args, **kwargs):
        builds.append(args)
        return build_cache(*args, **kwargs)

    monkeypatch.setattr(cli.nearbest, "build_cache", counting_build_cache)
    first = None
    for jmax, caches in ((10, 1), (38, 1), (39, 2)):
        builds.clear()
        code, out = run_main(["table", "interp_points", "--alpha", "1", "--jmax", str(jmax)])
        assert code == 0 and len(builds) == caches, jmax
        rows = out.splitlines()[4:]  # after 3 comment lines and the header
        assert len(rows) == jmax
        first = first or rows[:10]
        assert rows[:10] == first


def test_table_interp_points_takes_the_fits_roots(monkeypatch):
    # the fit finds 10 roots once, inside optimize_c; jmax 10 bisects none again
    j_maxes = []
    interp_points = cli.nearbest.interp_points

    def counting_interp_points(alpha, c1, c2, j_max, **kwargs):
        j_maxes.append(j_max)
        return interp_points(alpha, c1, c2, j_max, **kwargs)

    monkeypatch.setattr(cli.nearbest, "interp_points", counting_interp_points)
    code, out = run_main(["table", "interp_points", "--alpha", "1", "--jmax", "10"])
    assert code == 0
    assert j_maxes == [10]
    assert len(out.strip().splitlines()) == 4 + 10  # 3 comment lines, the header, 10 rows


def test_verify_identities_evaluates_each_kernel_value_once(monkeypatch):
    # entries share values within a run, and no value outlives its run
    calls = []
    kernel_eval = cli.kernels.kernel_eval

    def recording_kernel_eval(kind, alpha, x):
        calls.append((kind, alpha, x))
        return kernel_eval(kind, alpha, x)

    monkeypatch.setattr(cli.kernels, "kernel_eval", recording_kernel_eval)
    for _ in range(2):
        assert cli.run_verify("identities", out=io.StringIO()) == 0
    first = calls[: len(calls) // 2]
    assert calls == first + first
    assert first and len(set(first)) == len(first)


def test_prop1c_prop1d_share_one_H2_grid(monkeypatch):
    # both entries read H2 on the same four x; a fresh suite evaluates it once
    h2_calls = []
    kernel_eval = cli.kernels.kernel_eval

    def counting_kernel_eval(kind, alpha, x):
        h2_calls.extend([x] if kind == "H2" else [])
        return kernel_eval(kind, alpha, x)

    monkeypatch.setattr(cli.kernels, "kernel_eval", counting_kernel_eval)
    entries = {name: fn for name, fn, _ in cli._identities()}
    for name in ("prop1c[alpha=1.0] 0<=H2<=C", "prop1d[alpha=1.0] |H|<=H2"):
        assert entries[name]()[2]
    assert h2_calls == [0.1, 1.0, 5.0, 20.0]


def test_curve_r_diag_sign_change():
    code, out = run_main(["curve", "R_diag", "--alpha", "2.4:2.7:0.05"])
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals[0] < 0.0 and vals[-1] > 0.0


def _count_half_line_integrals(monkeypatch):
    """Count the calls of quadrature.integrate_zero_to_inf made by kernels,
    where every kernel value is integrated."""
    calls = []
    integrate = cli.kernels.integrate_zero_to_inf

    def counting(f):
        calls.append(f)
        return integrate(f)

    monkeypatch.setattr(cli.kernels, "integrate_zero_to_inf", counting)
    return calls


@pytest.mark.parametrize(
    "argv,most",
    [
        # deterministic work gates: one batch per 512 rows, not one integral per row
        (["curve", "R_diag", "--alpha", "2.4:20:0.05"], 2),  # was 706
        (["curve", "H_alpha", "--alpha", "1.5"], 4),  # was 1,999
        (["curve", "G_alpha", "--alpha", "1.5"], 4),  # was 1,999
    ],
)
def test_curves_integrate_in_batches(argv, most, monkeypatch):
    calls = _count_half_line_integrals(monkeypatch)
    code, _ = run_main(argv)
    assert code == 0
    assert 0 < len(calls) <= most


def test_growth_proxy_integrates_in_one_batch(monkeypatch):
    (check,) = [c for c in cli.CHECKS if c[1].startswith("growth proxy")]
    calls = _count_half_line_integrals(monkeypatch)
    assert cli.evaluate(check)[2]
    assert 0 < len(calls) <= 2  # C(1.5) and one batch of 401 x; was 401


def test_emit_bytes_match_per_value_formatting(tmp_path):
    # the emitter's % strings against the per-value formatting they replaced:
    # format(v, ".17g") for a float (numpy float64 included), str() for
    # anything else
    def per_value(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    # runs of one type signature, formatted together, and changes between them
    rows = [
        (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308),
        (0.1, 2.0, 1e-7, 123456789.0, -2.5e-310, math.pi),
        (np.float64(0.1), 3, True, "P1", 2**70, np.float64(-1e-300)),
        [0.1, "P2", 7, False, -12, 1.0 / 3.0],
        (0.2, "P1", 8, True, 0, -1.0 / 3.0),
        (1, 2.5),
    ]
    columns, meta = ("a", "b", "c", "d", "e", "f"), {"command": "test", "rel_tol": 1e-12}
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        cli.emit(columns, rows, meta, fmt, str(path))
        if fmt == "csv":
            lines = [f"# bernsteinlab {cli.__version__}", "# command: test", "# rel_tol: 1e-12"]
            lines += [",".join(columns)] + [",".join(per_value(v) for v in row) for row in rows]
            expected = "\n".join(lines) + "\n"
        else:
            payload = {
                "tool": f"bernsteinlab {cli.__version__}",
                "meta": meta,
                "columns": list(columns),
                "rows": [list(row) for row in rows],
            }
            expected = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert path.read_text() == expected


def test_emit_writes_numpy_scalars_as_python_values(tmp_path):
    # json.dumps refuses np.int64 and np.bool_ on its own; the CSV path
    # formats them with str(), and neither output may depend on the types
    numpy_row = (np.int64(7), np.float64(0.1), np.bool_(True), np.int64(-2**40), np.bool_(False))
    python_row = (7, 0.1, True, -2**40, False)
    columns, meta = ("a", "b", "c", "d", "e"), {"command": "test", "rel_tol": 1e-12}
    for fmt in ("csv", "json"):
        got, want = tmp_path / f"numpy.{fmt}", tmp_path / f"python.{fmt}"
        cli.emit(columns, [numpy_row], meta, fmt, str(got))
        cli.emit(columns, [python_row], meta, fmt, str(want))
        assert got.read_bytes() == want.read_bytes()
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli.emit(columns, [(object(),) * 5], meta, "json", str(tmp_path / "bad.json"))


def test_curve_H_envelope_dominates():
    code, out = run_main(["curve", "H", "--alpha", "1.8", "--x", "0:40:0.25"])
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    for r in rows:
        _, h, h1 = (float(v) for v in r.split(","))
        assert abs(h) <= h1 * (1.0 + 1e-12)


def test_curve_H1_rows_are_kernel_values():
    code, out = run_main(["curve", "H1", "--alpha", "1.8", "--x", "0:2:0.5"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "x,H1"
    grid = np.array([0.5, 1.0, 1.5, 2.0])  # x = 0 is left out, as in curve H
    rows = [tuple(float(v) for v in l.split(",")) for l in lines[1:]]
    assert rows == list(zip(grid.tolist(), cli.kernels.kernel_values("H1", 1.8, grid).tolist()))


def test_curve_limit_error_near_best_level():
    code, out = run_main(
        ["curve", "limit_error", "--alpha", "1", "--c1", "0.26", "--c2", "0.45", "--x", "0:40:0.02"]
    )
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    peak = max(abs(float(r.split(",")[1])) for r in rows)
    assert 0.280169 <= peak <= 1.1 * 0.280169


def test_curve_limit_error_requires_constants():
    code = cli.main(["curve", "limit_error", "--alpha", "1"])
    assert code == 2


def test_json_format_round_trips(tmp_path):
    out_path = tmp_path / "env.json"
    code = cli.main(["table", "envelope", "--alpha", "4", "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["columns"] == ["alpha", "lower", "H1_at_alpha", "norm", "upper"]
    assert len(payload["rows"]) == 1


def test_output_file_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = cli.main(
            ["table", "convergence", "--alpha", "0.5", "--scheme", "P2", "--n", "8,16", "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_uses_17_significant_digits():
    code, out = run_main(["table", "envelope", "--alpha", "4"])
    value = out.strip().splitlines()[-1].split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_table_c_constants_row():
    code, out = run_main(["table", "c_constants", "--alpha", "0.5"])
    assert code == 0
    row = [float(v) for v in out.strip().splitlines()[-1].split(",")]
    assert abs(row[1] - 0.33) <= 0.03
    assert abs(row[2] - 0.78) <= 0.03


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in
    this process, starting none."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs,items,workers",
    [(3, 1, []), (3, 2, [2]), (2, 5, [2]), (1, 4, [])],
    ids=["jobs3-items1", "jobs3-items2", "jobs2-items5", "jobs1-items4"],
)
def test_jobs_pool_starts_no_more_workers_than_items(jobs, items, workers, monkeypatch):
    # the pool starts all of its workers at the first submit, so --jobs 3
    # over one alpha must not start 3 processes
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    assert cli._pool_map(abs, [-k for k in range(items)], jobs) == list(range(items))
    assert _RecordingPool.started == workers


def test_jobs_pool_is_deterministic(tmp_path):
    args = ["table", "convergence", "--alpha", "1", "--scheme", "P2", "--n", "4,8,12"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert cli.main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "bernsteinlab.cli", "verify", "limits"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def test_s_increasing_integrates_in_batches(monkeypatch):
    # deterministic work gate: S on 100 x is one batch for each of the two F
    # integrals of R, not one integral per x (200 per entry before)
    calls = _count_half_line_integrals(monkeypatch)
    checks = [c for c in cli.CHECKS if c[1].startswith("S increasing")]
    assert len(checks) == 2
    for check in checks:
        calls.clear()
        assert cli.evaluate(check)[2]
        assert 0 < len(calls) <= 2
