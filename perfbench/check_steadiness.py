"""Steadiness test of the benchmark itself.

Run from the repository root:

    python3 perfbench/check_steadiness.py

For each workload it makes two traced and two untraced runs of one pass
each, all with seed 1, and checks that

  * the two traced runs report identical counts (every per-layer metric
    that is not a time);
  * the two untraced runs produce byte-identical output for every
    operation, CLI output included (compared by SHA-256);
  * every run passes its reference checks;
  * finite-n makes no quadrature call.

Exits 0 when all of this holds and 1, listing what failed, otherwise.
Takes about six minutes for all three workloads on two CPUs.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("nearbest-fit", "kernel-tables", "finite-n")
SEED = 1
TIME_UNITS = ("s", "us/")


def run(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".perfbench_out", f"result-{workload}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return result, record


def counts(result: dict) -> dict:
    return {
        k: m["value"]
        for k, m in result["metrics"].items()
        if not m["unit"].startswith(TIME_UNITS)
    }


def main() -> int:
    problems = []
    for wl in WORKLOADS:
        traced = [run(wl, SEED, 1)[0] for _ in range(2)]
        untraced = [run(wl, SEED, 0)[1] for _ in range(2)]
        for r in traced:
            if not r["correct"]:
                problems.append(f"{wl}: traced run failed {r['failed']} of {r['attempted']} checks")
        for rec in untraced:
            if rec["ops_failed"]:
                problems.append(f"{wl}: untraced run failed {rec['ops_failed']} of {rec['ops']} checks")
        a, b = counts(traced[0]), counts(traced[1])
        for k in sorted(a):
            if a[k] != b[k]:
                problems.append(f"{wl}: count {k} differs between traced runs: {a[k]} vs {b[k]}")
        digests = [[(op["op"], op["sha256"]) for op in rec["operations"]] for rec in untraced]
        for (name, d0), (_, d1) in zip(*digests):
            if d0 != d1:
                problems.append(f"{wl}: output of '{name}' differs between untraced runs")
        if wl == "finite-n" and a["quadrature.calls"] != 0:
            problems.append(f"finite-n: {a['quadrature.calls']} quadrature calls, expected 0")
        print(f"{wl}: {len(a)} counts compared, {len(digests[0])} outputs compared", flush=True)

    for p in problems:
        print("FAIL", p)
    print("steadiness:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
