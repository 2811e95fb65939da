"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name.  A refactor that removes or renames one of them makes the traced
benchmark run (`perfbench/run.py --trace 1`) fail, so the names are checked
here, with the rest of the suite."""

import importlib.util
from pathlib import Path

import bernsteinlab
import bernsteinlab.cli  # the tracer also wraps the CLI entry points

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
    assert not hasattr(bernsteinlab.nearbest.kernel_eval, "__wrapped__")
