"""The four benchmark workloads: seeded inputs, operations and their checks.

Every workload is a fixed round of operations.  The structure of a round
(which strata of chirp, anisotropy, law or subcommand it holds, and in what
order) is part of the workload; the seed only jitters the inputs inside
each stratum, so rounds of different seeds cost about the same.  Programs
are reached only through the public names of ``gausspack``,
``gausspack.oracle`` and ``gausspack.cli``, looked up at call time so that
the tracer in :mod:`tracing` can wrap them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import gausspack as gp
from gausspack import oracle

import checks
from checks import CheckError, Incomplete, close, require

HBAR = gp.HBAR
MASS = gp.MASS
TAIL = 1e-14
CLI_TAIL = 1e-12  # the CLI's default --tail
TRAJECTORY_POINTS = 200

WORKLOADS = ("oracle-moments", "oracle-propagate", "closed-forms", "cli-session")


@dataclass
class Op:
    """One timed operation: ``run`` calls the program, ``check`` judges its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _jitter(rng: np.random.Generator, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


# ---------------------------------------------------------------------------
# oracle-moments

_X = oracle.position_monomial(1, 0)
_Y = oracle.position_monomial(0, 1)
_PX = oracle.momentum_monomial(1, 0)
_PY = oracle.momentum_monomial(0, 1)
_COORDS = (_X, _Y, _PX, _PY)
#: (i, j) -> symmetrised product (xi_i xi_j + xi_j xi_i)/2, i <= j
_SECOND = {
    (i, j): 0.5 * (_COORDS[i] * _COORDS[j] + _COORDS[j] * _COORDS[i])
    for i in range(4)
    for j in range(i, 4)
}

#: (anisotropy, chirp, ellipse angle, chirp phases) of each packet in a round.
MOMENT_STRATA = (
    (3.0, 0.3, 1.2, (2.0, 1.0, 0.5)),
    (3.5, 0.6, 0.4, (0.7, 2.4, 1.9)),
    (4.5, 1.0, 2.0, (1.1, 0.3, 2.6)),
    (5.0, 0.8, 1.0, (1.7, 0.9, 2.9)),
    (4.0, 1.5, 0.2, (0.4, 2.2, 1.4)),
    (5.5, 0.5, 0.7, (2.5, 1.6, 0.2)),
    (5.2, 0.6, 0.3, (1.0, 2.6, 1.5)),
    (4.8, 0.9, 1.9, (2.2, 1.2, 0.4)),
    (6.0, 1.2, 2.6, (0.9, 2.8, 1.2)),
)


def moment_packet(rng: np.random.Generator, anisotropy: float, chirp: float, angle: float,
                  phases: tuple[float, float, float]) -> gp.RealParams:
    """A displaced, chirped packet whose density ellipse has the given axis ratio."""
    ratio = _jitter(rng, anisotropy, 0.001)
    angle += rng.uniform(-0.001, 0.001)
    c, s = math.cos(angle), math.sin(angle)
    hi, lo = ratio, 1.0 / ratio
    amp = _jitter(rng, chirp, 0.001)
    f1, f2, g1, g2 = rng.uniform(-0.02, 0.02, size=4)
    return gp.RealParams(
        mu=_jitter(rng, 1.0, 0.001),
        alpha=hi * c * c + lo * s * s,
        beta=(hi - lo) * c * s,
        gamma=hi * s * s + lo * c * c,
        chi_a=amp * math.cos(phases[0]),
        chi_c=amp * math.cos(phases[1]),
        rho=amp * math.cos(phases[2]),
        f1=f1, f2=f2, g1=g1, g2=g2,
    )


def moments_of(params: gp.RealParams) -> dict:
    """The oracle's 4 first moments, 10 symmetrised second moments and norm."""
    return {
        "first": [oracle.expectation(params, o) for o in _COORDS],
        "second": {key: oracle.expectation(params, o) for key, o in _SECOND.items()},
        "norm": oracle.norm_integral(params),
    }


def check_moments_output(params: gp.RealParams, out: dict) -> None:
    values = list(out["first"]) + list(out["second"].values())
    worst_imag = max(abs(complex(v).imag) for v in values)
    require(worst_imag <= checks.ORACLE_TOL, f"Hermitian moment has imaginary part {worst_imag:.3g}")
    first = [complex(v).real for v in out["first"]]
    second = {k: complex(v).real for k, v in out["second"].items()}
    cov = checks.covariance_from_moments(first, second)
    checks.check_moments(out["norm"], first, cov, gp.first_moments(params), gp.covariances(params), HBAR)


def oracle_moments_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for k, stratum in enumerate(MOMENT_STRATA):
        params = moment_packet(rng, *stratum)
        ops.append(Op(
            f"moments-{k}",
            lambda p=params: moments_of(p),
            lambda out, p=params: check_moments_output(p, out),
        ))
    return ops


# ---------------------------------------------------------------------------
# oracle-propagate


def _targets(centre: tuple[float, float], spacing: float, n: int) -> list[tuple[float, float]]:
    return [
        (centre[0] + spacing * i, centre[1] + spacing * j)
        for i in range(-n, n + 1)
        for j in range(-n, n + 1)
    ]


def shrinking_packet(rng: np.random.Generator, beta0: float, chi0: float) -> gp.RealParams:
    """The paper's symmetric-form packet, which focuses under free evolution."""
    chi = _jitter(rng, chi0, 0.002)
    f1, f2, g1, g2 = rng.uniform(-0.05, 0.05, size=4)
    return gp.RealParams(
        mu=1.0, alpha=1.0, beta=beta0 + rng.uniform(-0.001, 0.001), gamma=1.0,
        chi_a=-chi, chi_c=chi, rho=0.0, f1=f1, f2=f2, g1=g1, g2=g2,
    )


def minimal_spec(rng: np.random.Generator, l_i: float, l_c: float, corotating: bool,
                 omega: float, u: float, v: float, sign_i: int) -> gp.MinPacketSpec:
    return gp.MinPacketSpec(
        l_i_abs=_jitter(rng, l_i, 0.01),
        l_c_abs=_jitter(rng, l_c, 0.01),
        sign_i=sign_i,
        sign_c=sign_i if corotating else -sign_i,
        u=u + rng.uniform(-0.02, 0.02),
        v=v + rng.uniform(-0.02, 0.02),
        omega=omega,
    )


@dataclass(frozen=True)
class Propagation:
    """Inputs of one propagator call and the closed-form packet it must reach."""

    law: str
    params: gp.RealParams
    t: float
    targets: list
    evolved: gp.RealParams
    frequency: float = 0.0  # omega for the oscillator, omega_L for the field


def _propagation(law: str, params: gp.RealParams, t: float, evolved: gp.RealParams,
                 frequency: float = 0.0, n: int = 1) -> Propagation:
    centre = gp.first_moments(evolved)
    spacing = 0.5 * gp.ellipse(evolved).a_minus
    return Propagation(law, params, t, _targets((centre.x0, centre.y0), spacing, n), evolved, frequency)


def propagate(job: Propagation) -> np.ndarray:
    if job.law == "free":
        return oracle.propagate_free(job.params, job.t, job.targets)
    if job.law == "oscillator":
        return oracle.propagate_oscillator(job.params, job.t, job.targets, omega=job.frequency)
    return oracle.propagate_magnetic(job.params, job.t, job.targets, omega_larmor=job.frequency)


def check_propagation(job: Propagation, values: np.ndarray) -> None:
    xs, ys = np.array(job.targets).T
    checks.check_phase_ratio(values, gp.wavefunction(job.evolved, xs, ys))
    a = checks.hamilton_matrix(job.law, MASS, omega=job.frequency, omega_larmor=job.frequency)
    expected = checks.classical_trajectory(gp.first_moments(job.params), a, job.t, abs(job.frequency))
    checks.check_centre(gp.first_moments(job.evolved), expected)


#: free packets: (beta0, chi0)
FREE_STRATA = ((0.3, 1.0), (0.0, 1.5), (0.3, 2.0), (0.0, 3.0), (0.3, 3.0))
#: minimal packets: (law, l_i, l_c, corotating, frequency, t, u, v, sign_i)
MINIMAL_STRATA = (
    ("oscillator", 0.5, 1.0, True, 1.3, 0.7, 0.4, 1.0, 1),
    ("oscillator", 1.5, 2.0, False, 1.3, 1.1, 2.0, 0.3, -1),
    ("oscillator", 0.2, 0.5, True, 0.8, 2.0, 1.0, 2.0, 1),
    ("magnetic", 0.5, 1.0, True, 0.9, 0.7, 0.4, 1.0, 1),
    ("magnetic", 1.5, 2.0, False, -1.1, 1.1, 2.0, 0.3, 1),
    ("magnetic", 0.7, 0.5, False, 0.9, 2.0, 5.0, 1.0, -1),
)


def propagation_jobs(seed: int) -> list[Propagation]:
    rng = np.random.default_rng(seed)
    jobs = []
    for beta0, chi0 in FREE_STRATA:
        params = shrinking_packet(rng, beta0, chi0)
        t_min = gp.shrink_analysis(params).tau_min * MASS / (2.0 * HBAR * params.mu)
        jobs.append(_propagation("free", params, t_min, gp.evolve_free(params, t_min).params))
    for law, l_i, l_c, co, freq, t, u, v, sign_i in MINIMAL_STRATA:
        spec = minimal_spec(rng, l_i, l_c, co, abs(freq), u, v, sign_i)
        t = _jitter(rng, t, 0.01)
        if law == "oscillator":
            evolved = gp.evolve_oscillator(spec, t)
        else:
            context = gp.EvolutionContext(kind="magnetic", omega_larmor=freq)
            evolved = gp.evolve_magnetic(spec, context, t)
        jobs.append(_propagation(law, gp.build_min_packet(spec), t, gp.build_min_packet(evolved),
                                 frequency=freq, n=2))
    return jobs


def oracle_propagate_ops(seed: int) -> list[Op]:
    return [
        Op(f"propagate-{job.law}-{k}", lambda j=job: propagate(j),
           lambda out, j=job: check_propagation(j, out))
        for k, job in enumerate(propagation_jobs(seed))
    ]


# ---------------------------------------------------------------------------
# closed-forms

#: (l_i, l_c, corotating, omega, omega_L, u, v, sign_i) of each packet in a round.
CLOSED_STRATA = (
    (1.0, 1.5, True, 1.0, 0.9, 0.3, 1.1, 1),
    (0.125, 1.5, False, 1.3, -1.1, 2.2, 0.4, -1),
    (1.3, 2.0, True, 0.8, 1.2, 4.0, 2.9, -1),
    (0.4, 0.8, False, 1.0, 0.7, 1.5, 5.2, 1),
    (0.9, 0.5, True, 1.1, -0.8, 5.5, 3.3, 1),
)


def closed_form_report(spec: gp.MinPacketSpec, omega_larmor: float, shrinking: gp.RealParams) -> dict:
    """Every closed-form quantity of one minimal packet, as the package computes it."""
    params = gp.build_min_packet(spec)
    cov = gp.covariances(params)
    field = gp.EvolutionContext(kind="magnetic", omega_larmor=omega_larmor)
    spec_field = dataclasses.replace(spec, omega=abs(omega_larmor))
    co = dataclasses.replace(spec, sign_c=spec.sign_i)
    anti = dataclasses.replace(spec, sign_c=-spec.sign_i)
    period = math.pi / spec.omega
    times = np.linspace(0.0, 2.0 * period, TRAJECTORY_POINTS)
    symmetric = gp.build_min_packet(dataclasses.replace(spec, u=0.5 * math.pi))
    return {
        "params": params,
        "cov": cov,
        "first": gp.first_moments(params),
        "split": gp.angular_split(params),
        "invariants": gp.universal_invariants(cov),
        "energy": gp.mean_energy(spec),
        "sigma_l": gp.sigma_l(spec),
        "sigma_e": gp.sigma_e(spec),
        "sigma_e_field": gp.sigma_e(spec_field, field),
        "squeezing": gp.squeezing_factors(cov, spec.omega, spec.mass),
        "squeezing_min": gp.min_packet_squeezing(spec),
        "ladder_co": gp.fock_coefficients(co, tail=TAIL),
        "ladder_anti": gp.fock_coefficients(anti, tail=TAIL),
        "oscillator": [gp.build_min_packet(gp.evolve_oscillator(spec, t)) for t in times],
        "magnetic": [gp.build_min_packet(gp.evolve_magnetic(spec_field, field, t)) for t in times],
        "free": [gp.evolve_free(params, t).params for t in times],
        "shrink_min": gp.shrink_analysis(symmetric),
        "shrink": gp.shrink_analysis(shrinking),
        "shrink_curve": _shrink_curve(shrinking),
    }


def _shrink_curve(params: gp.RealParams) -> dict:
    """Free-evolution records around the closed-form focal time."""
    report = gp.shrink_analysis(params)
    to_t = MASS / (2.0 * HBAR * params.mu)
    taus = {"min": report.tau_min, "early": 0.99 * report.tau_min, "late": 1.01 * report.tau_min,
            "back": math.sqrt(2.0) * report.tau_min}
    return {key: gp.evolve_free(params, tau * to_t) for key, tau in taus.items()}


def check_closed_forms(spec: gp.MinPacketSpec, omega_larmor: float, shrinking: gp.RealParams,
                       rep: dict) -> None:
    """Judge :func:`closed_form_report` by identities the benchmark recomputes."""
    tol = checks.CLOSED_TOL
    omega, mass = spec.omega, spec.mass
    eta = math.sqrt(spec.l_i_abs / (1.0 + spec.l_i_abs))
    l_expected = spec.sign_i * spec.l_i_abs + spec.sign_c * spec.l_c_abs
    cov, first = rep["cov"], tuple(rep["first"])

    checks.check_pure_state("packet", cov, HBAR, tol)
    inv = rep["invariants"]
    close("universal_invariants D0", inv.d0, HBAR**4 / 16.0, tol)
    close("universal_invariants D2", inv.d2, -(HBAR**4) / 2.0, tol)
    _, internal = checks.oscillator_energy(first, cov, omega, mass)
    close("internal energy", internal, HBAR * omega * (1.0 + spec.l_i_abs), tol)
    close("mean_energy internal", rep["energy"].internal, HBAR * omega * (1.0 + spec.l_i_abs), tol)
    close("angular_split total", rep["split"].total, l_expected, tol)
    close("orbital L from moments", checks.orbital_l(first, cov, HBAR), l_expected, tol)
    for axis, value, own in zip("xy", rep["squeezing"], checks.axis_squeezing(cov, omega, mass, HBAR)):
        close(f"squeezing {axis}", value, 1.0 / (1.0 + eta), tol)
        close(f"squeezing {axis} by eigenvalues", own, 1.0 / (1.0 + eta), tol)
    close("min_packet_squeezing", rep["squeezing_min"], 1.0 / (1.0 + eta), tol)
    require(rep["squeezing_min"] > 0.5, "squeezing reached 1/2")

    own = rep["ladder_co"] if spec.sign_c == spec.sign_i else rep["ladder_anti"]
    for ladder, sign_c in ((rep["ladder_co"], spec.sign_i), (rep["ladder_anti"], -spec.sign_i)):
        total, mean, _ = checks.ladder_stats(ladder.coeffs)
        checks.check_ladder(total, mean, spec.sign_i * spec.l_i_abs + sign_c * spec.l_c_abs, TAIL)
    _, _, var_m = checks.ladder_stats(own.coeffs)
    close("sigma_l against the ladder", rep["sigma_l"], HBAR**2 * var_m, 1e-8)
    close("sigma_e against the ladder", rep["sigma_e"], (HBAR * omega) ** 2 * var_m, 1e-8)
    # In the oscillator basis at omega_eff = |omega_L| the field Hamiltonian is
    # diagonal: hbar (|omega_L| (1 + |m| + 2n) - omega_L m).
    w = omega_larmor
    levels = [(HBAR * (abs(w) * (1 + abs(m) + 2 * n) - w * m), abs(c) ** 2)
              for (n, m), c in own.coeffs.items()]
    mean_e = math.fsum(e * p for e, p in levels)
    var_e = math.fsum(e * e * p for e, p in levels) - mean_e**2
    close("field sigma_e against the ladder", rep["sigma_e_field"], var_e, 1e-8, scale=(HBAR * w) ** 2)

    for law in ("oscillator", "magnetic", "free"):
        moments = [(tuple(gp.first_moments(p)), gp.covariances(p)) for p in rep[law]]
        checks.check_trajectory(
            law, moments, lambda f, c: checks.hamiltonian_energy(law, f, c, mass, HBAR, omega, w), HBAR, tol)

    require(not rep["shrink_min"].shrinks, "a minimal packet was reported to shrink")
    shrink, curve = rep["shrink"], rep["shrink_curve"]
    require(shrink.shrinks, "the focusing packet was reported not to shrink")
    focus = curve["min"]
    close("f at tau_min", focus.f_tau, shrink.f_min, tol)
    close("f from the evolved discriminant", shrinking.delta / focus.params.delta, focus.f_tau, tol)
    require(focus.f_tau < 1.0, "no shrinking at tau_min")
    require(focus.f_tau < min(curve["early"].f_tau, curve["late"].f_tau), "tau_min is not a minimum")
    close("f at sqrt(2) tau_min", curve["back"].f_tau, 1.0, tol)


def closed_forms_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for k, (l_i, l_c, co, omega, w, u, v, sign_i) in enumerate(CLOSED_STRATA):
        spec = minimal_spec(rng, l_i, l_c, co, omega, u, v, sign_i)
        shrinking = shrinking_packet(rng, 0.3, 2.0)
        ops.append(Op(
            f"closed-{k}",
            lambda s=spec, w=w, p=shrinking: closed_form_report(s, w, p),
            lambda rep, s=spec, w=w, p=shrinking: check_closed_forms(s, w, p, rep),
        ))
    return ops


# ---------------------------------------------------------------------------
# cli-session


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def run_cli_subprocess(argv: list[str]) -> CliResult:
    """One ``gausspack`` call in a fresh interpreter, as the console script runs it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gausspack.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, timeout=120,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_cli_in_process(argv: list[str]) -> CliResult:
    """One ``gausspack.cli.main(argv)`` call in this interpreter."""
    from gausspack import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _document(result: CliResult) -> dict:
    if result.returncode != 0:
        last = result.stderr.strip().splitlines()[-1:] or [""]
        raise Incomplete(f"exit {result.returncode}: {last[0]}")
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _check_invariants(doc: dict) -> None:
    close("D0", doc["invariants"]["D0"], HBAR**4 / 16.0, checks.CLOSED_TOL)
    close("D2", doc["invariants"]["D2"], -(HBAR**4) / 2.0, checks.CLOSED_TOL)


def _spec_l(doc_spec: dict) -> float:
    return doc_spec["lambda"] * doc_spec["L_i_abs"] + doc_spec["lambda_c"] * doc_spec["L_c_abs"]


def check_describe(expected_l: float, result: CliResult) -> None:
    doc = _document(result)
    _check_invariants(doc)
    close("angular momentum", doc["angular_momentum"]["total"], expected_l, checks.CLOSED_TOL)
    cov = np.array(doc["covariance"])
    c = doc["center"]
    first = (c["x0"], c["y0"], c["px0"], c["py0"])
    checks.check_pure_state("describe covariance", cov, HBAR, checks.CLOSED_TOL)
    close("L from moments", checks.orbital_l(first, cov, HBAR), expected_l, checks.CLOSED_TOL)


def check_minimize(result: CliResult, verified: bool = False) -> None:
    doc = _document(result)
    spec = doc["spec"]
    l_i = spec["L_i_abs"]
    eta = math.sqrt(l_i / (1.0 + l_i))
    _check_invariants(doc)
    close("internal energy", doc["energy"]["internal"], HBAR * spec["omega"] * (1.0 + l_i), checks.CLOSED_TOL)
    close("squeezing", doc["squeezing"]["predicted"], 1.0 / (1.0 + eta), checks.CLOSED_TOL)
    require(doc["squeezing"]["predicted"] > 0.5, "squeezing reached 1/2")
    close("angular momentum", doc["angular_momentum"]["total"], _spec_l(spec), checks.CLOSED_TOL)
    if verified:
        report = doc["verification"]
        require(report["passed"] and report["n_evaluations"] > 0, "energy bound not confirmed")
        close("searched minimum", report["best_value"], HBAR * spec["omega"] * (1.0 + l_i), 1e-6)


def check_expand(tail: float, result: CliResult) -> None:
    doc = _document(result)
    rows = doc["coefficients"]
    coeffs = {(r["n_r"], r["m"]): complex(r["re"], r["im"]) for r in rows}
    total, mean, _ = checks.ladder_stats(coeffs)
    checks.check_ladder(total, mean, _spec_l(doc["spec"]), tail)
    close("reported total_probability", doc["total_probability"], total, 1e-12)


def _row_moments(row: dict) -> tuple[tuple, np.ndarray]:
    names = ("x", "y", "px", "py")
    cov = np.empty((4, 4))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            key = f"cov_{a}{b}" if f"cov_{a}{b}" in row else f"cov_{b}{a}"
            cov[i, j] = row[key]
    return (row["x0"], row["y0"], row["px0"], row["py0"]), cov


def check_evolve(rows_expected: int, law: str, omega: float, omega_larmor: float,
                 result: CliResult) -> None:
    doc = _document(result)
    rows = doc["rows"]
    require(len(rows) == rows_expected, f"{len(rows)} rows, want {rows_expected}")
    moments = [_row_moments(r) for r in rows]
    tol = checks.CLOSED_TOL
    energy = lambda f, c: checks.hamiltonian_energy(law, f, c, MASS, HBAR, omega, omega_larmor)  # noqa: E731
    checks.check_trajectory(law, moments, energy, HBAR, tol)
    checks.check_conserved("L_total column", [r["L_total"] for r in rows], tol)
    checks.check_conserved("D2 column", [r["D2"] for r in rows], tol)
    if law != "free":
        for r, (f, c) in zip(rows, moments):
            close("energy column", r["energy"], energy(f, c), tol)


def write_packet(path: Path, params: gp.RealParams) -> str:
    path.write_text(json.dumps(params.to_dict()))
    return str(path)


def cli_ops(seed: int, workdir: Path, runner: Callable[[list[str]], CliResult]) -> list[Op]:
    """The fixed CLI mix; two calls expose known faults and fail on every run."""
    rng = np.random.default_rng(seed)
    li = lambda v: f"{_jitter(rng, v, 0.01)!r}"  # noqa: E731
    a_i, a_c = li(0.5), li(1.5)
    b_i, b_c = li(0.75), li(2.0)
    c_i, c_c = li(0.3), li(1.2)
    shrinking = write_packet(workdir / "shrinking.json", shrinking_packet(rng, 0.3, 2.0))
    fault = write_packet(workdir / "fault.json", gp.build_min_packet(
        gp.MinPacketSpec(l_i_abs=0.5, l_c_abs=1.0, u=0.5 * math.pi)))
    w_l = _jitter(rng, 0.9, 0.01)
    spec_field = ["--omega", "0", "--omega-L", repr(w_l)]
    expected_a = float(a_i) + float(a_c)

    def op(name: str, argv: list[str], check: Callable[[CliResult], None]) -> Op:
        return Op(name, lambda: runner(argv), check)

    evolve = []
    for rows, span in ((200, None), (2000, "6.0")):
        steps = [] if span is None else ["--t0", "0", "--t1", span, "--steps", str(rows)]
        evolve += [
            op(f"evolve-oscillator-{rows}", ["evolve", "--kind", "oscillator", "--Li", c_i, "--Lc", c_c, "--co", *steps],
               lambda r, n=rows: check_evolve(n, "oscillator", 1.0, 0.0, r)),
            op(f"evolve-magnetic-{rows}", ["evolve", "--kind", "magnetic", "--Li", c_i, "--Lc", c_c, "--anti", *spec_field, *steps],
               lambda r, n=rows: check_evolve(n, "magnetic", 0.0, w_l, r)),
            op(f"evolve-free-{rows}", ["evolve", "--kind", "free", "--params", shrinking, *steps],
               lambda r, n=rows: check_evolve(n, "free", 0.0, 0.0, r)),
        ]
    return [
        op("describe", ["describe", "--Li", a_i, "--Lc", a_c, "--co"],
           lambda r: check_describe(expected_a, r)),
        op("fluct-optimum", ["fluct", "--Li", "0.125", "--optimum"],
           lambda r: checks.check_landmarks(_document(r))),
        op("minimize", ["minimize", "--Li", b_i, "--Lc", b_c, "--anti"], check_minimize),
        op("minimize-check", ["minimize", "--Li", b_i, "--Lc", b_c, "--co", "--check", "--starts", "8",
                              "--seed", str(seed % 100_000)],
           lambda r: check_minimize(r, verified=True)),
        op("expand-co", ["expand", "--Li", a_i, "--Lc", a_c, "--co"], lambda r: check_expand(CLI_TAIL, r)),
        op("expand-anti", ["expand", "--Li", a_i, "--Lc", a_c, "--anti"], lambda r: check_expand(CLI_TAIL, r)),
        *evolve,
        # Known faults: a long free evolution trips the absolute degeneracy
        # floor, and the 1,000-term cap truncates a wide coherent ladder.
        op("fault-evolve-free-t5000", ["evolve", "--kind", "free", "--params", fault, "--t", "5000"],
           lambda r: check_evolve(1, "free", 0.0, 0.0, r)),
        op("fault-expand-Lc2000", ["expand", "--Li", "0", "--Lc", "2000"], lambda r: check_expand(CLI_TAIL, r)),
    ]


def build(workload: str, seed: int, workdir: Path, cli_runner: Optional[Callable] = None) -> list[Op]:
    """The round of operations of ``workload`` for ``seed``."""
    if workload == "oracle-moments":
        return oracle_moments_ops(seed)
    if workload == "oracle-propagate":
        return oracle_propagate_ops(seed)
    if workload == "closed-forms":
        return closed_forms_ops(seed)
    if workload == "cli-session":
        return cli_ops(seed, workdir, cli_runner or run_cli_subprocess)
    raise ValueError(f"unknown workload {workload!r}")
