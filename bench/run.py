#!/usr/bin/env python3
"""Benchmark of gausspack: one workload, one seed, one result line.

    python3 bench/run.py --workload oracle-moments --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics (throughput, median latency, set-up time, peak RSS);
with ``--trace 1`` it holds the per-layer metrics instead.  See README.md.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: set-up probes per run, on top of the measured worker's own set-up
SETUP_PROBES = 4
#: a run must end within this many seconds
DEADLINE = 170.0

#: metric name -> unit, as declared in BENCHMARK.json
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # Keep native thread pools at one thread; the Nelder-Mead pool in
    # `minimize --check` stays at its own default (at most nproc).
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(args: argparse.Namespace, setup_only: bool, timeout: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and, unless a probe, its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker for {args.workload} did not finish within {timeout:.0f} s")
    sys.stderr.write(err)
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    setup = float(ready[0].split()[1]) - started
    if setup_only:
        return setup, None
    return setup, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round and one set-up sample: a quick end-to-end test")
    args = parser.parse_args(argv)

    if not (SRC / "gausspack" / "__init__.py").is_file():
        print(f"error: no gausspack sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
    begin = time.monotonic()
    remaining = lambda: DEADLINE - (time.monotonic() - begin)  # noqa: E731

    setups = []
    if args.trace == 0 and not args.smoke:
        # Compile byte code and warm the file cache before any set-up is timed.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                       check=True, env=child_env(), stdout=subprocess.DEVNULL)
        spawn(args, setup_only=True, timeout=remaining())
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, setup_only=True, timeout=remaining())[0])
    setup, result = spawn(args, setup_only=False, timeout=remaining())
    setups.append(setup)

    if args.trace:
        metrics = {
            name: ({"value": value, "unit": PER_LAYER_UNITS[name]} if value is not None
                   else {"value": None, "unit": PER_LAYER_UNITS[name], "absent": True})
            for name, value in result["layer_metrics"].items()
        }
    else:
        values = {
            "throughput_per_s": result["throughput_per_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
