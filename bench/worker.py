"""One workload in one fresh process; started by ``run.py``.

The worker imports ``gausspack``, builds the round of operations for the
seed, prints ``ready <monotonic time>`` and then runs whole rounds in a
closed loop until ``--seconds`` have passed.  Each operation's wall time
covers the program call only; its output is checked afterwards.  The last
line of output is a JSON summary.  With ``--trace 1`` it instead measures
per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

import workloads  # noqa: E402  (imports gausspack)
from checks import CheckError, Incomplete  # noqa: E402


class Tally:
    """Outcomes and wall times of the operations run so far."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.passed = 0
        self.failed = 0
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    def execute(self, op: workloads.Op, tracer=None, phase: str | None = None) -> None:
        if tracer is not None:
            tracer.phase = phase
            tracer.begin_op()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a program fault counts as a failed operation
            self.times.append(time.perf_counter() - start)
            self.failed += 1
            self._note_failure(op, f"{type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.end_op()
                tracer.phase = None
        self.times.append(time.perf_counter() - start)
        try:
            op.check(out)
        except Incomplete as exc:
            self.failed += 1
            self._note_failure(op, str(exc))
            return
        except CheckError as exc:
            self.wrong.append(f"{op.name}: {exc}")
            print(f"WRONG {op.name}: {exc}", file=sys.stderr)
            return
        self.passed += 1

    def _note_failure(self, op: workloads.Op, reason: str) -> None:
        if self.failed <= 4:  # name each failing operation, not every repeat
            print(f"failed {op.name}: {reason}", file=sys.stderr)


def run_rounds(ops: list, seconds: float, tally: Tally, rounds: int | None = None,
               tracer=None, phase: str | None = None) -> int:
    """Whole rounds until ``seconds`` pass (at least one), or exactly ``rounds``."""
    start = time.perf_counter()
    done = 0
    while done < 1 or (time.perf_counter() - start < seconds if rounds is None else done < rounds):
        for op in ops:
            tally.execute(op, tracer, phase)
        done += 1
    return done


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def import_times(runs: int = 3) -> tuple[float, float]:
    """Median cumulative import time of gausspack and of scipy.optimize within it (ms)."""
    totals, scipy_opt = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gausspack"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing gausspack failed: {proc.stderr.strip()[-200:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
                if cum.isdigit():
                    cumulative[name] = int(cum) / 1e3
        totals.append(cumulative["gausspack"])
        scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(totals), statistics.median(scipy_opt)


def timed(args, ops: list) -> dict:
    tally = Tally()
    run_rounds(ops, args.seconds, tally)
    total = sum(tally.times)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "throughput_per_s": tally.passed / total,
        "latency_p50_ms": 1e3 * statistics.median(tally.times),
        "peak_rss_mb": peak_rss_mb(args.workload),
    }


def traced(args, ops: list, workdir: Path) -> dict:
    """Untraced and traced passes over the same rounds, then one traced round of each other workload."""
    import tracing

    tally = Tally()
    run_rounds(ops, 0.0, tally, rounds=1)  # warm caches before the untraced pass
    mark = len(tally.times)
    rounds = run_rounds(ops, args.seconds / 2.0, tally)
    untraced = sum(tally.times[mark:])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = len(tally.times)
        run_rounds(ops, 0.0, tally, rounds=rounds, tracer=tracer, phase="workload")
        overhead = 100.0 * (sum(tally.times[mark:]) / untraced - 1.0)
        for other in workloads.WORKLOADS:
            if other != args.workload:
                sweep = workloads.build(other, args.seed, workdir, cli_runner=workloads.run_cli_in_process)
                run_rounds(sweep, 0.0, tally, rounds=1, tracer=tracer, phase="sweep")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics("workload", "sweep")
    metrics["import.gausspack_ms"], metrics["import.scipy_optimize_ms"] = import_times()
    metrics["trace.overhead_pct"] = overhead
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "rounds": rounds, "metrics": metrics})
    return {"correct": not tally.wrong, "attempted": tally.attempted, "failed": tally.failed,
            "layer_metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are built (a set-up time probe)")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        in_process = args.trace == 1
        runner = workloads.run_cli_in_process if in_process else workloads.run_cli_subprocess
        ops = workloads.build(args.workload, args.seed, workdir, cli_runner=runner)
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        result = traced(args, ops, workdir) if args.trace else timed(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
