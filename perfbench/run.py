"""Benchmark of bernsteinlab on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload nearbest-fit --seed 1 --seconds 24 --trace 0

Workloads are nearbest-fit, kernel-tables and finite-n (see
perfbench/README.md).  With --trace 0 the run reports the end-to-end
metrics, with --trace 1 the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with provenance and every
operation's check, goes to .perfbench_out/ under the current directory,
as does the traced run's span dump.

The library is imported from ./src, never from an installed copy.  Exit
code 0 means a result was printed (`correct` says whether every operation
passed its check); any other exit code means there is no result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nearbest-fit", "kernel-tables", "finite-n")
# set-up is sampled half before and half after the workload, so that its
# median spans the whole run rather than one moment of it
SETUP_REPEATS = 16
SETUP_CMD = [sys.executable, "-c", "import bernsteinlab, bernsteinlab.cli"]
# the workload process must end by then, leaving time for the later set-up samples
DEADLINE_S = 160.0


def measure_setup(env, repeats: int) -> list:
    """Wall times of fresh interpreters importing the package and its CLI."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds times up to 50 ms steps
        subprocess.run(SETUP_CMD, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def provenance(root: str, blas_threads: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bernsteinlab", "__init__.py")):
        print("perfbench: no library source at ./src/bernsteinlab; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    blas_threads = min(2, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)

    setup = []
    if args.trace == 0:
        subprocess.run(SETUP_CMD, env=env, check=True, timeout=60)  # writes bytecode caches
        setup = measure_setup(env, SETUP_REPEATS // 2)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}.json.gz")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", trace_path,
    ]
    remaining = DEADLINE_S - (time.perf_counter() - t_begin)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: workload process failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    if args.trace == 0:
        setup += measure_setup(env, SETUP_REPEATS - len(setup))

    if args.trace:
        values = dict(res["layer"])
    else:
        values = {
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "err_ratio_max": res["err_ratio_max"],
        }
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in spec):
        print("perfbench: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": dict(provenance(root, blas_threads), **res["versions"]),
        "passes": res["passes"],
        "wall_s_per_pass": res["wall_s"],
        "cpu_s_per_pass": res["cpu_s"],
        "setup_s_samples": setup,
        "ops": res["attempted"],
        "ops_failed": res["failed"],
        "metrics": metrics,
        "operations": res["ops"],
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={res['passes']}")
    for op in res["ops"]:
        status = "ok" if op["ok"] else f"FAILED: {op['error']}"
        print(f"  op {op['op']}: {min(op['seconds']):.3f} s (check {op['check_s']:.2f} s), "
              f"err_ratio={op['err_ratio']}, {status}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  ops = {res['attempted']} count")
    print(f"  ops_failed = {res['failed']} count")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
