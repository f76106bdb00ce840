"""Benchmark of the lsurf library: one workload per invocation.

    python3 perfbench/run.py --workload reduce --seed 0 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
output check passed.

Each measurement runs in a child process (``worker.py``) with one BLAS/OpenMP
thread, so ``peak_rss_mb`` is that process's own peak.  Set-up is timed in
SETUP_RUNS processes and ``setup_s`` is their median: the measuring child is
one of them, the others stop after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reduce", "orbit-ball", "residue-table", "lemma-suites")
SETUP_RUNS = 7
DEADLINE_S = 170  # every child ends within this many seconds of our start


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def run_child(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run worker.py to completion and return the JSON object it printed last."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *(["--quick"] if args.quick else []),
        *extra,
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the lsurf library.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lsurf" / "__init__.py").is_file():
        print(f"perfbench: no lsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = run_child(args, deadline)
        else:
            setups = [
                run_child(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)
            ]
            result = run_child(args, deadline)
            setup = result["metrics"]["setup_s"]
            setup["value"] = statistics.median(setups + [setup["value"]])
    except (ChildError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
