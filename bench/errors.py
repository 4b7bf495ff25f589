#!/usr/bin/env python3
"""Worst oracle-versus-closed-form errors over one round of the oracle workloads.

    PYTHONPATH=src python3 bench/errors.py --seeds 1,2,3

Prints, for each quantity the workload checks, the largest scaled error
seen and the tolerance it is checked against.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gausspack as gp  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def scaled(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def moment_errors(seed: int, worst: dict) -> None:
    rng = np.random.default_rng(seed)
    for stratum in workloads.MOMENT_STRATA:
        params = workloads.moment_packet(rng, *stratum)
        out = workloads.moments_of(params)
        first = [complex(v).real for v in out["first"]]
        cov = checks.covariance_from_moments(first, {k: complex(v).real for k, v in out["second"].items()})
        closed_cov = gp.covariances(params)
        d0, d2 = checks.pure_state_invariants(cov, gp.HBAR)
        hadamard = max(1.0, float(np.prod(np.diag(cov))))
        errors = {
            "moments: norm": abs(out["norm"] - 1.0),
            "moments: first moments": max(scaled(g, w) for g, w in zip(first, gp.first_moments(params))),
            "moments: covariances": max(scaled(cov[i, j], closed_cov[i, j]) for i in range(4) for j in range(4)),
            "moments: D0 = hbar^4/16": abs(d0 - gp.HBAR**4 / 16) / hadamard,
            "moments: D2 = -hbar^4/2": abs(d2 + gp.HBAR**4 / 2) / hadamard,
        }
        for key, value in errors.items():
            worst[key] = max(worst.get(key, 0.0), value)


def propagation_errors(seed: int, worst: dict) -> None:
    for job in workloads.propagation_jobs(seed):
        values = workloads.propagate(job)
        ratio = values / gp.wavefunction(job.evolved, *np.array(job.targets).T)
        a = checks.hamilton_matrix(job.law, gp.MASS, omega=job.frequency, omega_larmor=job.frequency)
        expected = checks.classical_trajectory(gp.first_moments(job.params), a, job.t, abs(job.frequency))
        errors = {
            f"propagate {job.law}: |ratio| - 1": float(np.max(np.abs(np.abs(ratio) - 1.0))),
            f"propagate {job.law}: phase spread": float(np.max(np.abs(ratio - ratio[0]))),
            f"propagate {job.law}: centre": max(scaled(g, w) for g, w in zip(gp.first_moments(job.evolved), expected)),
        }
        for key, value in errors.items():
            worst[key] = max(worst.get(key, 0.0), value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1,2,3")
    seeds = [int(s) for s in parser.parse_args().seeds.split(",")]
    worst: dict[str, float] = {}
    for seed in seeds:
        moment_errors(seed, worst)
        propagation_errors(seed, worst)
    for key, value in worst.items():
        print(f"{key:36s} {value:9.2e}   tolerance {checks.ORACLE_TOL:.0e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
