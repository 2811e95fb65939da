import io
import json
import math
import subprocess
import sys

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
    ):
        assert _exits_2_with_one_error_line(argv, capsys), argv


def test_bad_jmax_exits_2_before_any_fit(capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("optimize_c ran before --jmax was checked")

    monkeypatch.setattr(cli.nearbest, "optimize_c", no_fit)
    for jmax in ("0", "-3"):
        argv = ["table", "interp_points", "--alpha", "1", "--jmax", jmax]
        assert _exits_2_with_one_error_line(argv, capsys), argv


def test_bad_range_exit_2(capsys):
    for argv in (
        ["table", "envelope", "--alpha", "4:2:0.5"],
        ["table", "envelope", "--alpha", "nan"],
        ["curve", "H1", "--alpha", "1", "--x", "0:inf:1"],
        ["curve", "R_diag", "--alpha", "inf"],
    ):
        assert _exits_2_with_one_error_line(argv, capsys), argv


def test_parse_range():
    assert cli.parse_range("1.5") == [1.5]
    grid = cli.parse_range("0.1:0.5:0.1")
    assert len(grid) == 5
    assert abs(grid[-1] - 0.5) <= 1e-12


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


def test_curve_H_envelope_dominates():
    code, out = run_main(["curve", "H", "--alpha", "1.8", "--x", "0:40:0.25"])
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    for r in rows:
        _, h, h1 = (float(v) for v in r.split(","))
        assert abs(h) <= h1 * (1.0 + 1e-12)


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
