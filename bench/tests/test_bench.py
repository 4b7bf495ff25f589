"""Tests of the benchmark: its checkers reject wrong answers, and every workload runs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gausspack as gp  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Incomplete  # noqa: E402

PACKET = gp.RealParams(mu=1.1, alpha=1.3, beta=0.4, gamma=0.9, chi_a=-0.5,
                       chi_c=0.7, rho=0.3, f1=0.6, f2=-0.3, g1=0.2, g2=0.8)
SPEC = gp.MinPacketSpec(l_i_abs=0.5, l_c_abs=1.5, sign_i=1, sign_c=-1, u=0.4, v=1.0)


def exact_moments(params: gp.RealParams) -> dict:
    """A stand-in for the oracle output built from the closed forms."""
    mean = np.array(gp.first_moments(params))
    raw = gp.covariances(params) + np.outer(mean, mean)
    return {"first": list(mean), "second": {(i, j): raw[i, j] for i in range(4) for j in range(i, 4)},
            "norm": 1.0}


class TestMomentChecks:
    def test_exact_moments_pass(self):
        workloads.check_moments_output(PACKET, exact_moments(PACKET))

    def test_perturbed_covariance_is_rejected(self):
        out = exact_moments(PACKET)
        out["second"][(0, 1)] += 1e-6
        with pytest.raises(CheckError, match="cov"):
            workloads.check_moments_output(PACKET, out)

    def test_mixed_state_is_rejected(self):
        cov = 1.01 * gp.covariances(PACKET)
        with pytest.raises(CheckError, match="D0"):
            checks.check_pure_state("scaled", cov, gp.HBAR, 1e-8)

    def test_wrong_norm_is_rejected(self):
        out = exact_moments(PACKET)
        out["norm"] = 1.0 + 1e-7
        with pytest.raises(CheckError, match="norm"):
            workloads.check_moments_output(PACKET, out)

    def test_invariants_match_the_library(self):
        cov = gp.covariances(PACKET)
        d0, d2 = checks.pure_state_invariants(cov, gp.HBAR)
        inv = gp.universal_invariants(cov)
        assert d0 == pytest.approx(inv.d0, rel=1e-12)
        assert d2 == pytest.approx(inv.d2, rel=1e-12)


class TestPropagationChecks:
    def job(self):
        return workloads.propagation_jobs(seed=3)[0]

    def test_closed_form_times_a_phase_passes(self):
        job = self.job()
        xs, ys = np.array(job.targets).T
        workloads.check_propagation(job, cmath.exp(0.3j) * gp.wavefunction(job.evolved, xs, ys))

    def test_wrong_phase_is_rejected(self):
        job = self.job()
        xs, ys = np.array(job.targets).T
        values = gp.wavefunction(job.evolved, xs, ys)
        values[4] *= cmath.exp(1e-6j)
        with pytest.raises(CheckError, match="phase"):
            workloads.check_propagation(job, values)

    def test_wrong_modulus_is_rejected(self):
        job = self.job()
        xs, ys = np.array(job.targets).T
        with pytest.raises(CheckError, match="deviates"):
            workloads.check_propagation(job, (1.0 + 1e-6) * gp.wavefunction(job.evolved, xs, ys))

    @pytest.mark.parametrize("law", ["free", "oscillator", "magnetic"])
    def test_classical_trajectory(self, law):
        z0 = np.array([0.3, -0.2, 0.5, 0.1])
        omega, t = 1.3, 0.9
        a = checks.hamilton_matrix(law, 1.0, omega=omega, omega_larmor=omega)
        z = checks.classical_trajectory(z0, a, t, omega)
        x, y, px, py = z0
        if law == "free":
            want = [x + px * t, y + py * t, px, py]
        elif law == "oscillator":
            c, s = math.cos(omega * t), math.sin(omega * t)
            want = [x * c + px * s / omega, y * c + py * s / omega,
                    px * c - omega * x * s, py * c - omega * y * s]
        else:  # the field's energy is conserved along the path
            energy = lambda v: 0.5 * (v[2] ** 2 + v[3] ** 2) + 0.5 * omega**2 * (v[0] ** 2 + v[1] ** 2) \
                - omega * (v[0] * v[3] - v[1] * v[2])  # noqa: E731
            assert energy(z) == pytest.approx(energy(z0), rel=1e-12)
            return
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-12)

    def test_centre_off_the_trajectory_is_rejected(self):
        job = self.job()
        later = dataclasses.replace(job, t=job.t * (1 + 1e-6))
        with pytest.raises(CheckError, match="centre"):
            workloads.check_propagation(later, gp.wavefunction(job.evolved, *np.array(job.targets).T))


def truncated(ladder: gp.FockCoefficients, missing: float) -> dict:
    """The ladder without its smallest terms, about ``missing`` probability short."""
    ranked = sorted(ladder.coeffs.items(), key=lambda kv: abs(kv[1]))
    dropped = 0.0
    coeffs = dict(ladder.coeffs)
    for key, c in ranked:
        if dropped + abs(c) ** 2 > missing:
            break
        dropped += abs(c) ** 2
        del coeffs[key]
    return coeffs


class TestLadderChecks:
    @pytest.mark.parametrize("sign_c", [1, -1])
    def test_full_ladder_passes(self, sign_c):
        spec = dataclasses.replace(SPEC, sign_c=sign_c)
        total, mean, _ = checks.ladder_stats(gp.fock_coefficients(spec, tail=1e-14).coeffs)
        checks.check_ladder(total, mean, spec.l_total, 1e-14)

    def test_truncated_ladder_is_rejected(self):
        coeffs = truncated(gp.fock_coefficients(SPEC, tail=1e-14), 1e-10)
        total, mean, _ = checks.ladder_stats(coeffs)
        with pytest.raises(Incomplete):
            checks.check_ladder(total, mean, SPEC.l_total, 1e-14)

    def test_mirrored_ladder_is_rejected(self):
        coeffs = {(n, -m): c for (n, m), c in gp.fock_coefficients(SPEC, tail=1e-14).coeffs.items()}
        total, mean, _ = checks.ladder_stats(coeffs)
        with pytest.raises(CheckError, match="mean L"):
            checks.check_ladder(total, mean, SPEC.l_total, 1e-14)


class TestClosedFormChecks:
    def report(self):
        rng = np.random.default_rng(4)
        shrinking = workloads.shrinking_packet(rng, 0.3, 2.0)
        return shrinking, workloads.closed_form_report(SPEC, 0.9, shrinking)

    def test_report_passes(self):
        shrinking, rep = self.report()
        workloads.check_closed_forms(SPEC, 0.9, shrinking, rep)

    @pytest.mark.parametrize("key, scale", [("sigma_l", 1 + 1e-6), ("sigma_e_field", 1 + 1e-6),
                                            ("squeezing_min", 1 + 1e-6)])
    def test_wrong_scalar_is_rejected(self, key, scale):
        shrinking, rep = self.report()
        rep[key] *= scale
        with pytest.raises(CheckError):
            workloads.check_closed_forms(SPEC, 0.9, shrinking, rep)

    def test_perturbed_covariance_is_rejected(self):
        shrinking, rep = self.report()
        rep["cov"] = rep["cov"].copy()
        rep["cov"][0, 0] *= 1 + 1e-6
        with pytest.raises(CheckError):
            workloads.check_closed_forms(SPEC, 0.9, shrinking, rep)

    def test_drifting_trajectory_is_rejected(self):
        shrinking, rep = self.report()
        last = rep["oscillator"][-1]
        rep["oscillator"][-1] = dataclasses.replace(last, f1=last.f1 * (1 + 1e-6))
        with pytest.raises(CheckError, match="oscillator"):
            workloads.check_closed_forms(SPEC, 0.9, shrinking, rep)

    def test_truncated_ladder_is_rejected(self):
        shrinking, rep = self.report()
        ladder = rep["ladder_anti"]
        rep["ladder_anti"] = dataclasses.replace(ladder, coeffs=truncated(ladder, 1e-10))
        with pytest.raises(Incomplete):
            workloads.check_closed_forms(SPEC, 0.9, shrinking, rep)


class TestCliChecks:
    def test_landmarks(self):
        good = {"L_total": 13 / 8, "sigma_L": 33 / 32, "eccentricity": 2 ** -0.5}
        checks.check_landmarks(good)
        with pytest.raises(CheckError):
            checks.check_landmarks({**good, "sigma_L": 33 / 32 + 1e-9})

    def test_nonzero_exit_is_a_failure(self):
        result = workloads.CliResult(1, "", "error: quadratic form is degenerate")
        with pytest.raises(Incomplete, match="exit 1"):
            workloads.check_describe(0.0, result)

    def test_truncated_expansion_is_a_failure(self):
        result = workloads.run_cli_in_process(["expand", "--Li", "0", "--Lc", "2000"])
        assert result.returncode == 0
        with pytest.raises(Incomplete):
            workloads.check_expand(workloads.CLI_TAIL, result)

    def test_evolve_rows_pass_and_tampering_is_rejected(self):
        argv = ["evolve", "--kind", "magnetic", "--Li", "0.3", "--Lc", "1.2", "--anti",
                "--omega", "0", "--omega-L", "0.9"]
        result = workloads.run_cli_in_process(argv)
        workloads.check_evolve(200, "magnetic", 0.0, 0.9, result)
        doc = json.loads(result.stdout)
        doc["rows"][-1]["cov_xx"] *= 1 + 1e-6
        tampered = workloads.CliResult(0, json.dumps(doc), "")
        with pytest.raises(CheckError):
            workloads.check_evolve(200, "magnetic", 0.0, 0.9, tampered)


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, tmp_path):
    proc = bench_run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops = len(workloads.build(workload, 5, tmp_path, cli_runner=lambda argv: None))
    assert result["attempted"] == ops
    assert result["failed"] == (2 if workload == "cli-session" else 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    proc = bench_run("--workload", "closed-forms", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert all(m["value"] is not None for m in result["metrics"].values())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER_UNITS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench_run("--workload", "closed-forms", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
