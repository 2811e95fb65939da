"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name.  A refactor that removes or renames one of them makes the traced
benchmark run (`perfbench/run.py --trace 1`) fail, so the names are checked
here, with the rest of the suite."""

import importlib.util
import json
import math
from pathlib import Path

import bernsteinlab
import bernsteinlab.cli  # the tracer also wraps the CLI entry points
from bernsteinlab import asymptotics, kernels, quadrature, remez

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists_and_unwraps():
    tracer = _tracer_module().Tracer()
    tracer.install()  # raises RuntimeError naming every missing target
    try:
        assert hasattr(bernsteinlab.kernels.kernel_eval, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(bernsteinlab.kernels.kernel_eval, "__wrapped__")
    assert not hasattr(bernsteinlab.asymptotics.kernel_eval, "__wrapped__")


def test_benchmark_values_serialize_as_floats():
    # the benchmark's library ops json.dumps these values (perfbench/workloads.py);
    # a changed return type would break an op that no other test runs
    rep = kernels.sup_norm_H(4.0)
    best = remez.best_poly(1.0, 8)
    scalars = [
        remez.bernstein_extrapolate(1.0, [4, 8, 16]),
        asymptotics.find_alpha0(1e-6),
        rep.norm,
        rep.argmax,
        rep.truncation_X,
        best.E_n,
        best.y_hi,
    ]
    for value in scalars:
        back = json.loads(json.dumps(value))
        assert type(back) is float and back == value
    for array in (best.coeffs, best.reference.points, best.reference.signs):
        values = json.loads(json.dumps(array.tolist()))
        assert values == array.tolist() and all(type(v) is float for v in values)


def test_half_line_integral_is_counted_once(monkeypatch):
    # one half-line integral is one call of each rule, on either side of the
    # split, and the tracer counts every node the integrand sees exactly once
    seen = {"nodes": 0}
    run_levels = quadrature._run_levels

    def counting_run_levels(a, b, f):
        def counted(t):
            seen["nodes"] += len(t)
            return f(t)

        return run_levels(a, b, counted)

    monkeypatch.setattr(quadrature, "_run_levels", counting_run_levels)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        for call in (lambda: kernels.kernel_eval("F", 2.5, 1.0), lambda: kernels.C_const(1.0)):
            before = tracer.counts.copy()
            seen["nodes"] = 0
            call()
            added = tracer.counts - before
            assert added["quadrature.calls"] == 2
            assert added["quadrature.rows"] == 2
            assert added["quadrature.nodes"] == seen["nodes"] > 0
        # kernel_eval is one point of kernel_values' body, not a traced call of
        # it, and its limits at x = 0 need no quadrature
        before = tracer.counts.copy()
        assert kernels.kernel_eval("H1", 1.0, 0.0) == math.pi / 2.0
        assert (tracer.counts - before)["quadrature.calls"] == 0
        kernels.kernel_eval("H", 2.5, 1.0)
        added = tracer.counts - before
        assert added["kernels.kernel_eval.calls"] == 2
        assert added["kernels.kernel_values.points"] == 0
    finally:
        tracer.uninstall()
