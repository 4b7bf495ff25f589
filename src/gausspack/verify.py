"""Named end-to-end checks pitting closed forms against independent numerics.

Each ``check_*`` function exercises one guaranteed property of the package
at a stated tolerance and returns a :class:`CheckResult`; the CLI
``verify`` subcommand and the acceptance test suite both run them.  The
checks are deliberately adversarial: quadrature against algebra,
brute-force search against variational minima, propagator integrals
against evolution laws, mode overlaps against coefficient formulas.  The
brute-force confirmations of the minimal-energy bounds,
:func:`verify_minimum` and :func:`verify_center_minimum`, live here too,
so the closed-form modules never import the oracle.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from ._record import real
from .constants import DEFAULT_SEED, HBAR, MASS
from .errors import GausspackError, InvalidParameterError
from .evolution import EvolutionContext, evolve_free, evolve_magnetic, evolve_oscillator, shrink_analysis
from .fluctuations import (
    angular_momentum_stats,
    energy_stats,
    sigma_e,
    sigma_l,
    subpoisson_optimum,
    wick_fourth_moment,
)
from .fock import LGMode, fock_coefficients, generating_derivatives
from .minimal import (
    MinPacketSpec,
    _internal_energy,
    build_min_packet,
    min_packet_covariances,
    min_packet_state,
    min_packet_squeezing,
    squeezing_factors,
    universal_invariants,
)
from .oracle.minimize import MinimizeOutcome, minimize_free
from .oracle.moments import expectation, norm_integral, wigner_fourth_moment
from .oracle.observables import momentum_monomial, position_monomial
from .oracle.overlap import overlap_integrals
from .oracle.propagate import propagate_free, propagate_magnetic, propagate_oscillator
from .packet import (
    RealParams,
    angular_split,
    covariances,
    ellipse,
    first_moments,
    gaussian_state,
    wavefunction,
)
from .special import hermite_scaled, laguerre_assoc_all

__all__ = [
    "CheckResult",
    "CHECKS",
    "MinimumReport",
    "run_checks",
    "random_params",
    "verify_minimum",
    "verify_center_minimum",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    duration: float
    summary: str
    details: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.summary} [{self.duration:.2f}s]"


#: What a check's body returns: ``(passed, summary, details)``.
_Outcome = Tuple[bool, str, dict]

#: Every check takes ``seed``; the ones on fixed grids ignore it.
CHECKS: Dict[str, Callable[..., CheckResult]] = {}


def _check(name: str) -> Callable[[Callable[..., _Outcome]], Callable[..., CheckResult]]:
    """Register a check in :data:`CHECKS` under ``name``, in declaration order.

    The registered function times the body and returns its outcome as a
    :class:`CheckResult` carrying ``name`` and the duration.
    """

    def register(body: Callable[..., _Outcome]) -> Callable[..., CheckResult]:
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            passed, summary, details = body(*args, **kwargs)
            return CheckResult(
                name=name,
                passed=passed,
                duration=time.perf_counter() - start,
                summary=summary,
                details=details,
            )

        CHECKS[name] = check
        return check

    return register


def random_params(rng: np.random.Generator) -> RealParams:
    """A random valid packet with moderate deformation and displacement."""
    alpha = rng.uniform(0.3, 3.0)
    gamma = rng.uniform(0.3, 3.0)
    beta = rng.uniform(-0.9, 0.9) * math.sqrt(alpha * gamma)
    return RealParams(
        mu=rng.uniform(0.5, 2.0),
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        chi_a=rng.uniform(-1.5, 1.5),
        chi_c=rng.uniform(-1.5, 1.5),
        rho=rng.uniform(-1.5, 1.5),
        f1=rng.uniform(-1.0, 1.0),
        f2=rng.uniform(-1.0, 1.0),
        g1=rng.uniform(-1.0, 1.0),
        g2=rng.uniform(-1.0, 1.0),
    )


def _random_min_spec(rng: np.random.Generator, corotating: bool) -> MinPacketSpec:
    sign_i = int(rng.choice([-1, 1]))
    return MinPacketSpec(
        l_i_abs=rng.uniform(0.05, 2.5),
        l_c_abs=rng.uniform(0.1, 3.0),
        sign_i=sign_i,
        sign_c=sign_i if corotating else -sign_i,
        u=rng.uniform(0.0, 2.0 * math.pi),
        v=rng.uniform(0.0, 2.0 * math.pi),
    )


@dataclass(frozen=True)
class MinimumReport:
    """Outcome of a brute-force check of an energy lower bound.

    ``attained`` means some search reached the predicted minimum to within
    the tolerance; ``bounded_below`` means no search undercut it.  The
    check passes only if both hold.
    """

    target: float
    omega: float
    predicted: float
    best_value: float
    attained: bool
    bounded_below: bool
    start_values: tuple[float, ...]
    n_evaluations: int
    tolerance: float

    @property
    def gap(self) -> float:
        return self.best_value - self.predicted

    @property
    def passed(self) -> bool:
        return self.attained and self.bounded_below


def _minimum_report(
    target: float,
    omega: float,
    predicted: float,
    outcomes: list[MinimizeOutcome],
    tolerance: float,
) -> MinimumReport:
    """The searches' best value against ``predicted``, as a :class:`MinimumReport`."""
    best = min(o.best_value for o in outcomes)
    return MinimumReport(
        target=target,
        omega=omega,
        predicted=predicted,
        best_value=best,
        attained=best <= predicted + tolerance,
        bounded_below=best >= predicted - tolerance,
        start_values=tuple(v for o in outcomes for v in o.start_values),
        n_evaluations=sum(o.n_evaluations for o in outcomes),
        tolerance=tolerance,
    )


def _chart_objective(target: float, omega: float, solve_for_rho: bool):
    """Energy objective over shapes with the internal angular momentum pinned.

    The constraint is eliminated rather than penalized: with the symmetric
    and antisymmetric combinations g = (alpha+gamma)/2, xi = (alpha-gamma)/2,
    z = (chi_a+chi_c)/2, chi = (chi_a-chi_c)/2, the prescribed value l obeys
    ``l * delta = rho * xi - 2 * beta * chi``, which is solved for chi on the
    chart beta != 0 and for rho on the chart xi != 0.  The two charts jointly
    cover every shape that can carry the constraint.
    """

    def objective(vec: np.ndarray) -> float:
        g, xi, beta, z, extra = vec.tolist()
        if not (1e-6 < g <= 10.0) or abs(z) > 10.0 or abs(extra) > 10.0:
            return math.inf
        eta2 = xi**2 + beta**2
        if eta2 >= g**2 * (1.0 - 1e-12):
            return math.inf
        delta = g**2 - eta2
        if solve_for_rho:
            if abs(xi) < 1e-6:
                return math.inf
            chi = extra
            rho = (target * delta + 2.0 * beta * chi) / xi
            if abs(rho) > 1e6:
                return math.inf
        else:
            if abs(beta) < 1e-6:
                return math.inf
            rho = extra
            chi = (rho * xi - target * delta) / (2.0 * beta)
            if abs(chi) > 1e6:
                return math.inf
        return _internal_energy(
            alpha=g + xi,
            beta=beta,
            gamma=g - xi,
            chi_a=z + chi,
            chi_c=z - chi,
            rho=rho,
            omega=omega,
        )

    return objective


def _shape_start(rng: np.random.Generator) -> np.ndarray:
    g = rng.uniform(0.5, 2.5)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = g * rng.uniform(0.05, 0.9)
    return np.array(
        [
            g,
            radius * math.cos(angle),
            radius * math.sin(angle),
            rng.uniform(-1.5, 1.5),
            rng.uniform(-2.0, 2.0),
        ]
    )


def verify_minimum(
    l_i_abs: float,
    omega: float = 1.0,
    n_starts: int = 24,
    seed: int = DEFAULT_SEED,
    tolerance: float = 1e-6,
) -> MinimumReport:
    """Numerically confirm the internal-energy bound ``hbar omega (1 + l)``.

    Runs multi-start derivative-free minimization of the exact internal
    energy over all packet shapes carrying internal angular momentum
    ``l_i_abs`` (two constraint charts, ``n_starts`` searches each) and
    compares the best value found against the predicted minimum.
    """
    l_i_abs, omega = real(l_i_abs, "l_i_abs"), real(omega, "omega")
    if l_i_abs < 0:
        raise InvalidParameterError(f"l_i_abs must be >= 0, got {l_i_abs}")
    if omega <= 0:
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    predicted = HBAR * omega * (1.0 + l_i_abs)

    outcomes: list[MinimizeOutcome] = []
    for chart, solve_for_rho in enumerate((False, True)):
        outcomes.append(
            minimize_free(
                _chart_objective(l_i_abs, omega, solve_for_rho),
                _shape_start,
                n_starts=n_starts,
                seed=seed + chart,
            )
        )
    return _minimum_report(l_i_abs, omega, predicted, outcomes, tolerance)


def verify_center_minimum(
    l_c_abs: float,
    omega: float = 1.0,
    mass: float = MASS,
    n_starts: int = 16,
    seed: int = DEFAULT_SEED,
    tolerance: float = 1e-6,
) -> MinimumReport:
    """Numerically confirm the center-energy bound ``hbar omega l_c``.

    The classical center energy is minimized over positions and momenta
    whose orbital angular momentum is pinned to ``hbar * l_c_abs``, again on
    two charts (solving for py where x != 0 and for px where y != 0).
    """
    l_c_abs, omega, mass = real(l_c_abs, "l_c_abs"), real(omega, "omega"), real(mass, "mass")
    if l_c_abs < 0:
        raise InvalidParameterError(f"l_c_abs must be >= 0, got {l_c_abs}")
    if omega <= 0:
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    if mass <= 0:
        raise InvalidParameterError(f"mass must be positive, got {mass}")
    predicted = HBAR * omega * l_c_abs
    scale = math.sqrt(HBAR * max(l_c_abs, 1.0) / (mass * omega))
    p_scale = math.sqrt(HBAR * max(l_c_abs, 1.0) * mass * omega)

    def objective_x(vec: np.ndarray) -> float:
        x, y, px = vec.tolist()
        if abs(x) < 1e-6 or abs(x) > 50 * scale or abs(y) > 50 * scale or abs(px) > 50 * p_scale:
            return math.inf
        py = (HBAR * l_c_abs + y * px) / x
        return (px**2 + py**2) / (2.0 * mass) + 0.5 * mass * omega**2 * (x**2 + y**2)

    def objective_y(vec: np.ndarray) -> float:
        x, y, py = vec.tolist()
        if abs(y) < 1e-6 or abs(x) > 50 * scale or abs(y) > 50 * scale or abs(py) > 50 * p_scale:
            return math.inf
        px = (x * py - HBAR * l_c_abs) / y
        return (px**2 + py**2) / (2.0 * mass) + 0.5 * mass * omega**2 * (x**2 + y**2)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return np.array(
            [
                rng.uniform(-3.0, 3.0) * scale,
                rng.uniform(-3.0, 3.0) * scale,
                rng.uniform(-3.0, 3.0) * p_scale,
            ]
        )

    outcomes = [
        minimize_free(objective_x, sample, n_starts=n_starts, seed=seed),
        minimize_free(objective_y, sample, n_starts=n_starts, seed=seed + 1),
    ]
    return _minimum_report(l_c_abs, omega, predicted, outcomes, tolerance)


@_check("minimum")
def check_internal_minimum(seed: int = DEFAULT_SEED) -> _Outcome:
    """Brute-force search never beats, and does reach, ``hbar w (1 + l)``."""
    tolerance = 1e-6
    rows = {}
    passed = True
    worst = 0.0
    for l_i in (0.0, 0.5, 1.0, 2.7):
        report = verify_minimum(l_i, omega=1.0, n_starts=24, seed=seed, tolerance=tolerance)
        rows[l_i] = {
            "predicted": report.predicted,
            "best": report.best_value,
            "gap": report.gap,
            "attained": report.attained,
            "bounded_below": report.bounded_below,
        }
        passed = passed and report.passed
        worst = max(worst, abs(report.gap))
    summary = f"internal-energy bound at 4 angular momenta, worst |gap| {worst:.2e}"
    return passed, summary, rows


@_check("moments")
def check_moments_vs_quadrature(
    n_packets: int = 100, seed: int = DEFAULT_SEED, tol: float = 1e-8
) -> _Outcome:
    """All first and second moments match adaptive quadrature to ``tol``."""
    rng = np.random.default_rng(seed)
    ops = [
        position_monomial(1, 0),
        position_monomial(0, 1),
        momentum_monomial(1, 0),
        momentum_monomial(0, 1),
    ]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    symmetrised = [0.5 * (ops[i] * ops[j] + ops[j] * ops[i]) for i, j in pairs]
    worst = 0.0
    worst_norm = 0.0
    for _ in range(n_packets):
        params = random_params(rng)
        firsts = np.array(first_moments(params))
        numeric_firsts = np.array([expectation(params, op).real for op in ops])
        worst = max(worst, float(np.max(np.abs(firsts - numeric_firsts))))
        worst_norm = max(worst_norm, abs(norm_integral(params) - 1.0))

        cov = covariances(params)
        for (i, j), sym in zip(pairs, symmetrised):
            raw = expectation(params, sym).real
            central = raw - numeric_firsts[i] * numeric_firsts[j]
            worst = max(worst, abs(central - cov[i, j]))
    summary = (
        f"{n_packets} random packets, worst moment error {worst:.2e}, "
        f"worst norm defect {worst_norm:.2e}"
    )
    details = {"worst_moment_error": worst, "worst_norm_defect": worst_norm, "tol": tol}
    return worst < tol and worst_norm < tol, summary, details


@_check("invariants")
def check_invariants_grid(seed: int = DEFAULT_SEED, tol: float = 1e-12) -> _Outcome:
    """``d0 = hbar^4/16`` and ``d2 = -hbar^4/2`` across the minimal family."""
    worst_d0 = worst_d2 = 0.0
    count = 0
    for i, l_i in enumerate((0.0, 0.3, 1.0, 2.7, 5.0)):
        for j, l_c in enumerate((0.0, 0.5, 1.5, 3.0, 7.0)):
            for k, u in enumerate((0.0, 0.9, 2.2, 4.5)):
                spec = MinPacketSpec(
                    l_i_abs=l_i,
                    l_c_abs=l_c,
                    sign_i=1 if (i + k) % 2 == 0 else -1,
                    sign_c=1 if (j + k) % 2 == 0 else -1,
                    u=u,
                    v=0.7 * (k + 1),
                )
                inv = universal_invariants(min_packet_covariances(spec))
                worst_d0 = max(worst_d0, abs(inv.d0 - HBAR**4 / 16.0))
                worst_d2 = max(worst_d2, abs(inv.d2 + HBAR**4 / 2.0))
                count += 1
    summary = f"{count} grid points, worst |d0 - 1/16| {worst_d0:.2e}, worst |d2 + 1/2| {worst_d2:.2e}"
    details = {"worst_d0": worst_d0, "worst_d2": worst_d2, "tol": tol}
    return worst_d0 < tol and worst_d2 < tol, summary, details


def _drift(values: Iterable[float]) -> float:
    values = list(values)
    ref = values[0]
    scale = max(abs(ref), 1e-3)
    return max(abs(v - ref) for v in values) / scale


@_check("drift")
def check_invariant_drift(seed: int = DEFAULT_SEED, tol: float = 1e-10) -> _Outcome:
    """d0, d2 and the total angular momentum are conserved on trajectories."""
    drifts = {}

    spec = MinPacketSpec(l_i_abs=0.8, l_c_abs=1.3, sign_i=1, sign_c=-1, u=0.4, v=1.1, omega=1.3)
    times = np.linspace(0.0, 4.0 * math.pi / spec.omega, 21)
    rows = [gaussian_state(build_min_packet(evolve_oscillator(spec, t))) for t in times]
    invs = [universal_invariants(s.cov) for s in rows]
    splits = [
        angular_split(build_min_packet(evolve_oscillator(spec, t))) for t in times
    ]
    drifts["oscillator"] = max(
        _drift(i.d0 for i in invs),
        _drift(i.d2 for i in invs),
        _drift(s.total for s in splits),
    )

    context = EvolutionContext(kind="magnetic", omega=0.7, omega_larmor=0.9)
    mag_spec = MinPacketSpec(
        l_i_abs=0.6,
        l_c_abs=2.0,
        sign_i=-1,
        sign_c=1,
        u=1.9,
        v=0.3,
        omega=context.omega_effective,
    )
    times = np.linspace(0.0, 6.0, 19)
    packets = [build_min_packet(evolve_magnetic(mag_spec, context, t)) for t in times]
    invs = [universal_invariants(covariances(p)) for p in packets]
    drifts["magnetic"] = max(
        _drift(i.d0 for i in invs),
        _drift(i.d2 for i in invs),
        _drift(angular_split(p).total for p in packets),
    )

    free_params = RealParams(
        mu=1.2,
        alpha=1.4,
        beta=0.5,
        gamma=0.9,
        chi_a=-0.6,
        chi_c=0.8,
        rho=0.4,
        f1=0.7,
        f2=-0.2,
        g1=-0.4,
        g2=0.9,
    )
    times = np.linspace(0.0, 3.0, 16)
    packets = [evolve_free(free_params, t).params for t in times]
    invs = [universal_invariants(covariances(p)) for p in packets]
    drifts["free"] = max(
        _drift(i.d0 for i in invs),
        _drift(i.d2 for i in invs),
        _drift(angular_split(p).total for p in packets),
    )

    worst = max(drifts.values())
    summary = f"worst relative drift {worst:.2e} across three Hamiltonians"
    return worst < tol, summary, {**drifts, "tol": tol}


@_check("subpoisson")
def check_subpoisson_values(seed: int = DEFAULT_SEED, tol: float = 1e-12) -> _Outcome:
    """The optimum hits its two exact rational/quadratic-surd landmarks."""
    expected = {
        0.125: (13.0 / 8.0, 33.0 / 32.0, 1.0 / math.sqrt(2.0)),
        1.0 / 3.0: (19.0 / 3.0, 26.0 / 9.0, math.sqrt(2.0 / 3.0)),
    }
    worst = 0.0
    rows = {}
    for l_i, (l_tot, sig, ecc) in expected.items():
        opt = subpoisson_optimum(l_i)
        errs = (
            abs(opt.l_total - l_tot),
            abs(opt.sigma_l - HBAR**2 * sig),
            abs(opt.eccentricity - ecc),
        )
        rows[l_i] = {"l_total": opt.l_total, "sigma_l": opt.sigma_l, "eccentricity": opt.eccentricity}
        worst = max(worst, *errs)
    summary = f"two exact operating points, worst error {worst:.2e}"
    return worst < tol, summary, {"worst": worst, **{str(k): v for k, v in rows.items()}}


def _coefficient_checks(spec: MinPacketSpec, n_overlaps: int) -> dict:
    fc = fock_coefficients(spec, tail=1e-14, max_terms=300_000)
    packet = build_min_packet(spec)

    norm_defect = abs(1.0 - fc.total_probability)
    mean_l, var_l = fc.angular_momentum_stats()
    mean_defect = abs(mean_l - HBAR * spec.l_total)

    closed = sigma_l(spec)
    _, matrix_var = angular_momentum_stats(min_packet_state(spec))
    routes = [closed, var_l, matrix_var]
    if spec.l_c_abs == 0 or spec.l_i_abs == 0 or spec.sign_i == spec.sign_c:
        d1, d2 = generating_derivatives(spec)
        routes.append(HBAR**2 * (d2 + d1 - d1 * d1))
    sigma_spread = max(routes) - min(routes)

    ranked = sorted(fc.items(), key=lambda kv: -abs(kv[1]))
    picks = ranked[: n_overlaps - 1] + [ranked[min(len(ranked) // 2, 40)]]
    modes = [LGMode(n_r=n, m=m, mu=spec.mu) for (n, m), _ in picks]
    # One stacked integral in the packet's principal frame.
    numeric = overlap_integrals(packet, modes)
    overlap_err = float(np.max(np.abs(numeric - np.array([c for _, c in picks]))))
    return {
        "kind": fc.kind,
        "n_coeffs": len(fc.coeffs),
        "norm_defect": norm_defect,
        "mean_defect": mean_defect,
        "sigma_spread": sigma_spread,
        "overlap_error": overlap_err,
    }


@_check("fock")
def check_fock_expansions(seed: int = DEFAULT_SEED) -> _Outcome:
    """Coefficient formulas against overlaps, norms, means and variances."""
    rng = np.random.default_rng(seed)
    specs = []
    for corotating in (True, False):
        specs.extend(_random_min_spec(rng, corotating) for _ in range(8))
        sign = int(rng.choice([-1, 1]))
        specs.append(
            MinPacketSpec(l_i_abs=0.0, l_c_abs=rng.uniform(0.5, 2.5), sign_i=sign,
                          sign_c=sign if corotating else -sign, v=rng.uniform(0, 6))
        )
        specs.append(
            MinPacketSpec(l_i_abs=rng.uniform(0.2, 2.0), l_c_abs=0.0, sign_i=sign,
                          sign_c=sign if corotating else -sign, u=rng.uniform(0, 6))
        )
    worst = {"norm_defect": 0.0, "mean_defect": 0.0, "sigma_spread": 0.0, "overlap_error": 0.0}
    for spec in specs:
        row = _coefficient_checks(spec, n_overlaps=5)
        for key in worst:
            worst[key] = max(worst[key], row[key])
    passed = (
        worst["norm_defect"] < 1e-8
        and worst["mean_defect"] < 1e-8
        and worst["sigma_spread"] < 1e-9
        and worst["overlap_error"] < 1e-7
    )
    summary = (
        f"{len(specs)} expansions: norm defect {worst['norm_defect']:.1e}, "
        f"mean defect {worst['mean_defect']:.1e}, variance-route spread "
        f"{worst['sigma_spread']:.1e}, overlap error {worst['overlap_error']:.1e}"
    )
    return passed, summary, worst


@_check("magnetic")
def check_magnetic_degeneracy(seed: int = DEFAULT_SEED, tol: float = 1e-12) -> _Outcome:
    """Doubly co-rotating packets have zero energy variance in a pure field."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        omega_l = rng.uniform(0.4, 1.6)
        context = EvolutionContext(kind="magnetic", omega=0.0, omega_larmor=omega_l)
        spec = MinPacketSpec(
            l_i_abs=rng.uniform(0.0, 2.5),
            l_c_abs=rng.uniform(0.0, 3.0),
            sign_i=1,
            sign_c=1,
            u=rng.uniform(0, 2 * math.pi),
            v=rng.uniform(0, 2 * math.pi),
            omega=omega_l,
        )
        _, direct = energy_stats(min_packet_state(spec), context)
        worst = max(worst, abs(direct), abs(sigma_e(spec, context)))
    summary = f"5 random doubly co-rotating packets, worst energy variance {worst:.2e}"
    return worst < tol, summary, {"worst": worst, "tol": tol}


def _phase_error(
    propagate: Callable[[np.ndarray], np.ndarray], evolved: RealParams
) -> float:
    """Worst deviation of propagated samples from ``evolved`` up to one phase.

    The targets are a 5 x 5 grid about the evolved centre, spaced half the
    density ellipse's short semi-axis, so each lies where ``|psi|`` is at
    least ``1/e`` of its peak; 25 points fix the whole quadratic exponent
    and the norm.  The ratio ``r`` of propagated to closed-form values must
    have ``|r| = 1`` and one phase; the error is the larger defect.
    """
    x0, y0, _, _ = first_moments(evolved)
    offsets = 0.5 * ellipse(evolved).a_minus * np.arange(-2.0, 3.0)
    xs, ys = (axis.ravel() for axis in np.meshgrid(x0 + offsets, y0 + offsets))
    ratio = propagate(np.column_stack([xs, ys])) / wavefunction(evolved, xs, ys)
    return max(float(np.max(np.abs(np.abs(ratio) - 1.0))), float(np.max(np.abs(ratio - ratio[0]))))


@_check("free")
def check_free_shrinking(
    seed: int = DEFAULT_SEED, tol: float = 1e-10, phase_tol: float = 1e-10
) -> _Outcome:
    """Closed-form shrink landmarks, and the free propagator at ``t_min`` up to one phase."""
    worst_closed = 0.0
    worst_phase = 0.0
    for beta0 in (0.0, 0.3):
        for chi0 in (1.0, 3.0):
            params = RealParams(
                mu=1.0, alpha=1.0, beta=beta0, gamma=1.0,
                chi_a=-chi0, chi_c=chi0, rho=0.0,
            )
            report = shrink_analysis(params)
            assert report.shrinks
            # tau = 2 hbar mu t / mass = 2 t in these units.
            t_min = report.tau_min / 2.0
            focused = evolve_free(params, t_min)
            worst_closed = max(
                worst_closed,
                abs(focused.f_tau - report.f_min),
                abs(evolve_free(params, math.sqrt(2.0) * t_min).f_tau - 1.0),
            )
            t_axis = report.tau_axis / 2.0
            aligned = evolve_free(params, t_axis).params
            geom = ellipse(aligned)
            worst_closed = max(
                worst_closed,
                abs(geom.eccentricity - report.eps_at_alignment),
                abs(aligned.beta),
            )
            worst_phase = max(worst_phase, _phase_error(
                lambda pts: propagate_free(params, t_min, pts), focused.params
            ))
    summary = (
        f"4 shrinking packets: closed-form landmark error {worst_closed:.2e}, "
        f"propagator phase error {worst_phase:.2e}"
    )
    details = {"worst_closed": worst_closed, "worst_phase": worst_phase}
    return worst_closed < tol and worst_phase < phase_tol, summary, details


@_check("propagators")
def check_propagators(seed: int = DEFAULT_SEED, phase_tol: float = 1e-10) -> _Outcome:
    """Oscillator and magnetic evolution of minimal packets, by propagator.

    A co- and an anti-rotating packet each go through the oscillator kernel
    and the field kernel (with a random field direction); the propagated
    samples must equal the evolution law's wavefunction up to one phase.
    """
    rng = np.random.default_rng(seed)
    worst = {"oscillator": 0.0, "magnetic": 0.0}
    for corotating in (True, False):
        for law in ("oscillator", "magnetic"):
            spec = replace(_random_min_spec(rng, corotating), omega=rng.uniform(0.7, 1.4))
            params = build_min_packet(spec)
            # sin(omega t) >= sin(0.3) keeps the kernel away from its foci.
            t = rng.uniform(0.3, 1.2) / spec.omega
            if law == "oscillator":
                evolved = evolve_oscillator(spec, t)
                propagate = lambda pts: propagate_oscillator(params, t, pts, omega=spec.omega)
            else:
                omega_l = float(rng.choice([-1.0, 1.0])) * spec.omega
                context = EvolutionContext(kind="magnetic", omega_larmor=omega_l)
                evolved = evolve_magnetic(spec, context, t)
                propagate = lambda pts: propagate_magnetic(params, t, pts, omega_larmor=omega_l)
            worst[law] = max(worst[law], _phase_error(propagate, build_min_packet(evolved)))
    summary = (
        f"co- and anti-rotating packets, propagator phase error {worst['oscillator']:.2e} "
        f"(oscillator), {worst['magnetic']:.2e} (field)"
    )
    return max(worst.values()) < phase_tol, summary, {**worst, "phase_tol": phase_tol}


@_check("squeezing")
def check_squeezing_grid(seed: int = DEFAULT_SEED, tol: float = 1e-9) -> _Outcome:
    """Both axes squeeze to ``1/(1+eta)``, never reaching 1/2."""
    worst = 0.0
    min_factor = math.inf
    for l_i in (0.0, 0.2, 1.0, 3.0, 10.0, 100.0):
        for u in (0.0, 0.8, 2.4, 4.0):
            for sign in (-1, 1):
                spec = MinPacketSpec(l_i_abs=l_i, l_c_abs=0.7, sign_i=sign, sign_c=sign, u=u)
                s_x, s_y = squeezing_factors(
                    min_packet_covariances(spec), spec.omega, spec.mass
                )
                target = min_packet_squeezing(spec)
                worst = max(worst, abs(s_x - target), abs(s_y - target))
                min_factor = min(min_factor, s_x, s_y)
    summary = (
        f"48 grid points, worst |S - 1/(1+eta)| {worst:.2e}, "
        f"smallest factor {min_factor:.6f} > 1/2"
    )
    details = {"worst": worst, "min_factor": min_factor, "tol": tol}
    return worst < tol and min_factor > 0.5, summary, details


@_check("identities")
def check_identities(seed: int = DEFAULT_SEED, tol: float = 1e-9) -> _Outcome:
    """Randomized classical identities used throughout the derivations."""
    rng = np.random.default_rng(seed)
    worst = {"mehler": 0.0, "hermite_shift": 0.0, "laguerre_inversion": 0.0, "wick": 0.0}

    # Mehler kernel: sum_k h_k(x) h_k(y) t^k over the scaled polynomials.
    for _ in range(20):
        x, y = rng.uniform(-2.0, 2.0, 2)
        t = rng.uniform(-0.6, 0.6)
        hx = hermite_scaled(120, x)
        hy = hermite_scaled(120, y)
        powers = t ** np.arange(121)
        lhs = float(np.real(np.sum(hx * hy * powers)))
        rhs = math.exp((2.0 * x * y * t - (x * x + y * y) * t * t) / (1.0 - t * t)) / math.sqrt(
            1.0 - t * t
        )
        worst["mehler"] = max(worst["mehler"], abs(lhs - rhs) / abs(rhs))

    # Index-shift generating identity:
    # sum_k H_(n+k)(x) t^k / k! = exp(2xt - t^2) H_n(x - t).
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5)
        t = rng.uniform(-0.8, 0.8)
        n = int(rng.integers(0, 6))
        kmax = 70
        scaled = hermite_scaled(n + kmax, x)
        # Recover the raw polynomials H_j = h_j * sqrt(2^j j!).
        raw = [
            complex(scaled[j]) * math.exp(0.5 * (j * math.log(2.0) + math.lgamma(j + 1)))
            for j in range(n + kmax + 1)
        ]
        lhs = sum(raw[n + k].real * t**k / math.factorial(k) for k in range(kmax + 1))
        h_shift = hermite_scaled(n, x - t)[n] * math.exp(
            0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
        )
        rhs = math.exp(2.0 * x * t - t * t) * h_shift.real
        scale = max(abs(rhs), 1.0)
        worst["hermite_shift"] = max(worst["hermite_shift"], abs(lhs - rhs) / scale)

    # Monomials as alternating Laguerre sums:
    # x^k = sum_n (-1)^n k! (k+m)! / ((n+m)! (k-n)!) L_n^(m)(x).
    for _ in range(20):
        x = rng.uniform(0.0, 6.0)
        k = int(rng.integers(1, 7))
        m = int(rng.integers(0, 5))
        lag = laguerre_assoc_all(k, m, x)
        total = 0.0
        for n in range(k + 1):
            coeff = (
                (-1) ** n
                * math.factorial(k)
                * math.factorial(k + m)
                / (math.factorial(n + m) * math.factorial(k - n))
            )
            total += coeff * float(lag[n])
        scale = max(x**k, 1.0)
        worst["laguerre_inversion"] = max(worst["laguerre_inversion"], abs(total - x**k) / scale)

    # Gaussian pairing rule against raw Gauss-Hermite integration.
    for _ in range(6):
        cov = covariances(random_params(rng))
        indices = tuple(int(i) for i in rng.integers(0, 4, 4))
        algebraic = wick_fourth_moment(cov, indices)
        numeric = wigner_fourth_moment(cov, indices)
        scale = max(abs(algebraic), 1e-2)
        worst["wick"] = max(worst["wick"], abs(algebraic - numeric) / scale)

    worst_overall = max(worst.values())
    summary = f"randomized identity checks, worst relative error {worst_overall:.2e}"
    return worst_overall < tol, summary, {**worst, "tol": tol}


def run_checks(
    names: Optional[Iterable[str]] = None,
    seed: int = DEFAULT_SEED,
    report: Optional[Callable[[CheckResult], None]] = None,
) -> list[CheckResult]:
    """Run the named checks (all by default), in declaration order.

    A :class:`GausspackError` raised inside a check becomes a failing result
    whose summary is ``error: <message>``; the remaining checks still run.
    """
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise InvalidParameterError(
            f"unknown checks: {', '.join(unknown)}; available: {', '.join(CHECKS)}"
        )
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            result = CHECKS[name](seed=seed)
        except GausspackError as exc:
            result = CheckResult(
                name=name,
                passed=False,
                duration=time.perf_counter() - start,
                summary=f"error: {exc}",
            )
        results.append(result)
        if report is not None:
            report(result)
    return results
