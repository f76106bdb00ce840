"""One benchmark process: set up one workload, then measure it or trace it.

``run.py`` starts this script as a child.  Set-up runs from process start to
the first timed op: imports, prototypes, input generation and one untimed
warm-up batch.  Then, untraced, whole batches run back to back, one op after
the other, until ``--seconds`` of batch time have passed; set-up and op
times are scaled to the reference host speed of ``hostspeed``.  Traced, a fixed
number of batches runs once untraced and once traced, so that counts repeat
exactly and the difference of the two times is the tracing overhead.  Every
op's output is checked outside the timed region.  The last line printed is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench_out"


class Outcome:
    """Op times and check results of one run.  With ``host`` the op and
    batch times are at reference host speed, scaled by the mean of the speed
    samples from the one before an op to the one after it, and without the
    time the samples took; ``raw_s`` holds the batch times as measured."""

    def __init__(self, wl, host: HostSpeed | None = None) -> None:
        self.wl = wl
        self.host = host
        self.op_s: list[float] = []
        self.batch_s: list[float] = []
        self.raw_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.records: list[str] = []

    def run_batch(self, batch: list, tracer=None, keep_records: bool = False) -> None:
        host = self.host
        outputs, raw, times = [], [], []
        if host:
            host.sample()
        for item in batch:
            if host:
                mark = host.mark()
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = self.wl.run(item)
                else:
                    with tracer.span("op", op=self.attempted + len(outputs)):
                        out = self.wl.run(item)
            except Exception as exc:  # an op that raises counts as failed; keep measuring
                out = exc
            raw.append(perf_counter() - t0)
            outputs.append(out)
            if host:
                raw[-1] -= host.spent - mark[2]
                host.sample()
                times.append(raw[-1] * host.mean_since(mark))
            else:
                times.append(raw[-1])
        self.op_s.extend(times)
        self.raw_s.append(sum(raw))
        self.batch_s.append(sum(times))
        if tracer is None:
            self.check_all(batch, outputs, keep_records)
        else:
            with tracer.paused():
                self.check_all(batch, outputs, keep_records)

    def check_all(self, batch: list, outputs: list, keep_records: bool) -> None:
        for item, out in zip(batch, outputs):
            self.check(item, out, keep_records)

    def check(self, item, out, keep_record: bool) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            problem = self.wl.check(item, out)
            if keep_record:
                self.records.append(self.wl.record(item, out))
        if problem is not None:
            self.failed += 1
            print(f"perfbench: {self.wl.name}: op {self.attempted} failed: {problem}", file=sys.stderr)


def set_up(workload: str, seed: int, quick: bool):
    """Everything before the first timed op; returns (workload, input pool)."""
    import workloads

    wl = workloads.WORKLOADS[workload](quick)
    pool = wl.pool(seed, wl.pool_batches)
    warm = Outcome(wl)
    warm.run_batch(wl.warmup())
    if warm.failed:
        raise RuntimeError(f"{workload}: warm-up batch failed")
    return wl, pool


def measure(wl, pool: list, seed: int, seconds: float, quick: bool) -> tuple[dict, bool, Outcome]:
    """Untraced closed loop over whole batches; returns (metrics, pins ok, outcome)."""
    import workloads

    out = Outcome(wl, HostSpeed(wl.speed_kernel))
    i = 0
    with out.host:
        while i == 0 or sum(out.raw_s) < seconds:
            out.run_batch(pool[i % len(pool)], keep_records=i < wl.pin_batches)
            i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pins_ok = True
    if seed == workloads.PIN_SEED and wl.pin_batches:
        for batch in pool[i:wl.pin_batches]:  # the budget ended before the pinned batches
            out.run_batch(batch, keep_records=True)
        expected = workloads.PINS.get((wl.name, quick))
        got = workloads.digest(out.records)
        pins_ok = got == expected
        if not pins_ok:
            print(f"perfbench: {wl.name}: pinned digest {expected}, got {got}", file=sys.stderr)
    ops = len(out.op_s)
    p10_to_p90 = statistics.quantiles(out.op_s, n=10, method="inclusive")
    metrics = {
        "wall_s": (statistics.median(out.batch_s), "s"),
        "ops_per_s": (ops / sum(out.batch_s), "1/s"),
        "op_p50_ms": (statistics.median(out.op_s) * 1e3, "ms"),
        "op_p90_ms": (p10_to_p90[-1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(
        f"perfbench: {wl.name}: {len(out.batch_s)} batches, {ops} ops in "
        f"{sum(out.raw_s):.2f} s of batch time, {sum(out.batch_s):.2f} s at reference "
        f"speed; {out.host.count} speed samples, mean {out.host.total / out.host.count:.3f}",
        file=sys.stderr,
    )
    return metrics, pins_ok, out


def trace(wl, pool: list, seed: int) -> tuple[dict, Outcome]:
    """The first trace_batches batches untraced, then regenerated and traced."""
    from tracer import Tracer

    out = Outcome(wl)
    for i in range(wl.trace_batches):
        out.run_batch(pool[i % len(pool)])
    untraced_s = sum(out.raw_s)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("set-up"):
            traced_pool = wl.pool(seed, wl.trace_batches)
        first = len(out.raw_s)
        for batch in traced_pool:
            out.run_batch(batch, tracer=tracer)
        traced_s = sum(out.raw_s[first:])
    finally:
        tracer.uninstall()
    tracer.write_spans(SPAN_DIR / f"{wl.name}-seed{seed}-spans.jsonl.gz")
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    host = HostSpeed()
    host.sample()
    mark = host.mark()
    with host:
        wl, pool = set_up(args.workload, args.seed, args.quick)
    host.sample()
    setup_s = (time.monotonic() - args.t0 - host.spent) * host.mean_since(mark)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        metrics, out = trace(wl, pool, args.seed)
        pins_ok = True
    else:
        metrics, pins_ok, out = measure(wl, pool, args.seed, args.seconds, args.quick)
        metrics["setup_s"] = (setup_s, "s")
    result = {
        "correct": out.failed == 0 and pins_ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
