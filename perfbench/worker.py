"""Workload process: runs one workload, checks its outputs, reports JSON.

run.py starts this in a fresh interpreter with the library's source on
PYTHONPATH and the BLAS thread count fixed, so the process's CPU time and
peak RSS belong to the workload alone.

Untraced (--trace 0), the workload's operations run in passes, one after
another, until the next pass would overrun --seconds (at least one pass);
each pass is timed on the wall clock and on the process's CPU clock.  Peak
RSS is read after the last pass, before any check runs.

Traced (--trace 1), a pass with the tracer installed runs between two
untraced passes; its wall time minus their mean is the tracing overhead.

The outputs of the first pass are checked against the references; every
other pass, traced or not, must reproduce them byte for byte.  The last
line of stdout is one JSON object.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import numpy
import scipy

import tracer
import workloads


def run_pass(ops, keep_outputs: bool) -> dict:
    """Run every operation once.  Later passes keep only output digests, so
    that memory does not grow with the number of passes."""
    outputs, digests, sizes, errors, seconds = [], [], [], [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation that raises is a failed operation
            out, err = "", f"{type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - s)
        data = out.encode()
        digests.append(hashlib.sha256(data).hexdigest())
        sizes.append(len(data))
        outputs.append(out if keep_outputs else None)
        errors.append(err)
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - cpu0,
        "outputs": outputs,
        "digests": digests,
        "sizes": sizes,
        "errors": errors,
        "seconds": seconds,
    }


def check(ops, passes) -> tuple:
    """Check the first pass against the references and the others against it."""
    first = passes[0]
    report, failed, worst = [], 0, 0.0
    for k, op in enumerate(ops):
        err = first["errors"][k]
        ratio = None
        t0 = time.perf_counter()
        if err is None:
            try:
                ratio = float(op.check(first["outputs"][k]))
                worst = max(worst, ratio)
            except Exception as exc:  # a check that cannot parse the output fails the op
                err = f"{type(exc).__name__}: {exc}"
        check_s = time.perf_counter() - t0
        bad = 0 if err is None else 1
        for p in passes[1:]:
            if p["errors"][k] is not None or p["digests"][k] != first["digests"][k]:
                bad += 1
                err = err or p["errors"][k] or "output differs from the first pass"
        failed += bad
        report.append(
            {
                "op": op.name,
                "ok": bad == 0,
                "err_ratio": ratio,
                "error": err,
                "seconds": [p["seconds"][k] for p in passes],
                "check_s": check_s,
                "sha256": first["digests"][k],
            }
        )
    return report, failed, worst


def bytes_out(ops, p) -> int:
    return sum(size for op, size in zip(ops, p["sizes"]) if op.cli)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    result = {"ops_per_pass": len(ops)}
    if args.trace:
        passes = [run_pass(ops, True)]
        tr = tracer.Tracer()
        tr.install()
        try:
            passes.append(run_pass(ops, False))
        finally:
            tr.uninstall()
        passes.append(run_pass(ops, False))
        layer = tr.layer_metrics()
        layer["cli.bytes_out"] = bytes_out(ops, passes[1])
        untraced = 0.5 * (passes[0]["wall_s"] + passes[2]["wall_s"])
        layer["trace.overhead_s"] = passes[1]["wall_s"] - untraced
        tr.write(args.trace_out)
        result["layer"] = layer
    else:
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(ops, not passes))
            if time.perf_counter() - t0 + passes[-1]["wall_s"] > args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report, failed, worst = check(ops, passes)
    result.update(
        passes=len(passes),
        wall_s=[p["wall_s"] for p in passes],
        cpu_s=[p["cpu_s"] for p in passes],
        bytes_out=bytes_out(ops, passes[0]),
        attempted=len(ops) * len(passes),
        failed=failed,
        err_ratio_max=worst,
        ops=report,
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
