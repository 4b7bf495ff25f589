"""Quantum fluctuations of angular momentum and energy.

For any Gaussian state, observables quadratic in phase space have means and
variances that reduce to matrix algebra: writing the observable's Weyl
symbol as ``xi^T B xi``, the mean is ``tr(B V) + m^T B m`` and the variance

    sigma^2 = l^T V l + 2 tr(B V B V) + (hbar^2 / 2) tr(B J B J),

with ``l = 2 B m`` the local linearization, V the covariance matrix, and J
the symplectic form; the last term is the operator-ordering correction that
distinguishes the quantum variance from the phase-space one.  On top of
this general machinery the module carries the closed-form fluctuation
formulas of the minimal rotating family - every call cross-checks the two
routes against each other - together with the sub-Poissonian optimum of the
angular-momentum statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._record import real
from .constants import HBAR, MASS
from .errors import ConsistencyError, InvalidParameterError
from .evolution import EvolutionContext, _matched_frequency, magnetic_energy
from .minimal import _J, MinPacketSpec, mean_energy, min_packet_state
from .packet import GaussianState

__all__ = [
    "VarianceReport",
    "SubPoissonOptimum",
    "angular_momentum_matrix",
    "oscillator_matrix",
    "quadratic_stats",
    "angular_momentum_stats",
    "energy_stats",
    "wick_fourth_moment",
    "mean_l_squared",
    "sigma_l",
    "sigma_e",
    "subpoisson_optimum",
    "variance_report",
]

#: Relative tolerance for the internal closed-form vs. matrix-route checks.
_CROSSCHECK_RTOL = 1e-10

#: ``np.allclose``'s default tolerances, for the symmetry of an observable's matrix.
_SYMMETRY_RTOL, _SYMMETRY_ATOL = 1e-5, 1e-8


def angular_momentum_matrix() -> np.ndarray:
    """Symmetric matrix B with ``x py - y px = xi^T B xi``."""
    b = np.zeros((4, 4))
    b[0, 3] = b[3, 0] = 0.5
    b[1, 2] = b[2, 1] = -0.5
    return b


def oscillator_matrix(omega: float, mass: float = MASS) -> np.ndarray:
    """Symmetric matrix B of the isotropic oscillator Hamiltonian."""
    omega, mass = real(omega, "omega"), real(mass, "mass")
    if omega <= 0 or mass <= 0:
        raise InvalidParameterError("omega and mass must be positive")
    return np.diag(
        [0.5 * mass * omega**2, 0.5 * mass * omega**2, 0.5 / mass, 0.5 / mass]
    )


def quadratic_stats(b: np.ndarray, state: GaussianState) -> tuple[float, float]:
    """Mean and variance of the observable ``xi^T B xi`` in a Gaussian state."""
    b = np.asarray(b, dtype=float)
    if b.shape != (4, 4):
        raise InvalidParameterError(f"observable matrix must be 4x4, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise InvalidParameterError("observable matrix must be finite")
    # ``np.allclose(b, b.T)`` in one comparison.
    if not (abs(b - b.T) <= _SYMMETRY_ATOL + _SYMMETRY_RTOL * abs(b.T)).all():
        raise InvalidParameterError("observable matrix must be symmetric")
    v = state.cov
    m = state.mean
    mean = float(np.trace(b @ v) + m @ b @ m)
    lin = 2.0 * b @ m
    bv = b @ v
    bj = b @ _J
    variance = float(
        lin @ v @ lin + 2.0 * np.trace(bv @ bv) + 0.5 * HBAR**2 * np.trace(bj @ bj)
    )
    return mean, variance


def angular_momentum_stats(state: GaussianState) -> tuple[float, float]:
    """Mean and variance of orbital angular momentum for any Gaussian state."""
    return quadratic_stats(angular_momentum_matrix(), state)


def energy_stats(state: GaussianState, context: EvolutionContext) -> tuple[float, float]:
    """Mean and variance of the context's Hamiltonian for any Gaussian state."""
    if context.kind == "free":
        b = np.diag([0.0, 0.0, 0.5 / context.mass, 0.5 / context.mass])
    elif context.kind == "oscillator":
        b = oscillator_matrix(context.omega, context.mass)
    else:
        b = oscillator_matrix(
            context.omega_effective, context.mass
        ) - context.omega_larmor * angular_momentum_matrix()
    return quadratic_stats(b, state)


def wick_fourth_moment(cov: np.ndarray, indices: tuple[int, int, int, int]) -> float:
    """Fourth central moment of a Gaussian by the pairing rule.

    ``E[abcd] = V_ab V_cd + V_ac V_bd + V_ad V_bc`` - the algebraic
    counterpart of the Gauss-Hermite oracle in :mod:`gausspack.oracle`.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise InvalidParameterError(f"covariance must be 4x4, got {cov.shape}")
    a, b, c, d = indices
    return float(
        cov[a, b] * cov[c, d] + cov[a, c] * cov[b, d] + cov[a, d] * cov[b, c]
    )


def mean_l_squared(spec: MinPacketSpec) -> float:
    """Exact ``<L^2>`` of a minimal packet (matrix route)."""
    mean, var = angular_momentum_stats(min_packet_state(spec))
    return var + mean**2


def _sigma_l_closed(spec: MinPacketSpec) -> float:
    l_i, l_c = spec.l_i_abs, spec.l_c_abs
    cross = 1.0 + spec.sign_i * spec.sign_c
    s = math.sqrt(l_i * (1.0 + l_i))
    value = (
        l_c
        + 2.0 * l_i * (1.0 + l_i)
        + cross * l_c * (l_i - s * math.cos(2.0 * spec.w))
    )
    return HBAR**2 * value


def sigma_l(spec: MinPacketSpec) -> float:
    """Variance of angular momentum of a minimal packet.

    Closed form: in units of hbar^2,

        sigma_L = l_c + 2 l_i (1 + l_i)
                  + (1 + s_i s_c) l_c [ l_i - sqrt(l_i (1+l_i)) cos 2w ]

    with ``w = s_i (v - u/2)``.  Counter-rotating packets (s_i s_c = -1)
    lose the interference term entirely.  The value is cross-checked
    against the matrix route on every call.
    """
    closed = _sigma_l_closed(spec)
    _, direct = angular_momentum_stats(min_packet_state(spec))
    scale = max(abs(closed), HBAR**2)
    if abs(closed - direct) > _CROSSCHECK_RTOL * scale:
        raise ConsistencyError(
            f"angular-momentum variance mismatch: closed form {closed!r} "
            f"vs matrix route {direct!r}"
        )
    return closed


def sigma_e(spec: MinPacketSpec, context: Optional[EvolutionContext] = None) -> float:
    """Variance of energy of a minimal packet under a given Hamiltonian.

    For the packet's own oscillator the energy variance equals the
    angular-momentum variance in units of ``(hbar omega)^2``.  In a pure
    magnetic field the closed form carries explicit ``(1 - s)`` factors, so
    packets with both senses co-rotating with the field have *zero* energy
    spread - they are superpositions of degenerate Landau levels.  Both
    closed forms are cross-checked against the matrix route.
    """
    if context is None:
        context = EvolutionContext(kind="oscillator", omega=spec.omega, mass=spec.mass)
    if context.kind == "free":
        raise InvalidParameterError("free evolution has no closed-form energy variance here")
    omega_eff = _matched_frequency(spec, context)
    _, direct = energy_stats(min_packet_state(spec), context)

    if context.kind == "oscillator":
        closed = _sigma_l_closed(spec) * context.omega**2
    elif context.omega == 0.0:
        # Pure field: reflecting y flips the field sign along with both
        # rotation senses, so only the relative signs enter.
        field = 1 if context.omega_larmor > 0 else -1
        s_i = field * spec.sign_i
        s_c = field * spec.sign_c
        l_i, l_c = spec.l_i_abs, spec.l_c_abs
        root = math.sqrt(l_i * (1.0 + l_i))
        value = (
            2.0 * (1 - s_c) * (1 - s_i) * l_c * (l_i - root * math.cos(2.0 * spec.w))
            + 2.0 * l_c * (1 - s_c)
            + 4.0 * l_i * (1.0 + l_i) * (1 - s_i)
        )
        closed = (HBAR * context.omega_larmor) ** 2 * value
    else:
        # Field plus trap: no compact printed form; the matrix route is exact.
        return direct

    scale = max(abs(closed), (HBAR * omega_eff) ** 2)
    if abs(closed - direct) > _CROSSCHECK_RTOL * scale:
        raise ConsistencyError(
            f"energy variance mismatch: closed form {closed!r} vs matrix route {direct!r}"
        )
    return closed


@dataclass(frozen=True)
class SubPoissonOptimum:
    """Operating point minimizing number-like angular-momentum noise.

    For co-rotating packets at the aligned phase (w = 0), fixing the
    internal angular momentum l and optimizing the center contribution
    yields mean total angular momentum ``l_total`` with the smallest
    attainable variance ``sigma_l``; the packet's density ellipse then has
    eccentricity ``eccentricity``.  The variance sits below the mean (the
    Poissonian reference) for every l > 0.
    """

    l_total: float
    sigma_l: float
    eccentricity: float


def subpoisson_optimum(l_i_abs: float) -> SubPoissonOptimum:
    """Most sub-Poissonian operating point at internal angular momentum ``l``.

    In units of hbar (mean) and hbar^2 (variance):

        l_total = sqrt(l(1+l)) (1 + 8l + 8l^2) + 5l + 12l^2 + 8l^3
        sigma_l = 4l(1+l) + (1+2l) sqrt(l(1+l))

    and the eccentricity is ``sqrt(2 eta / (1 + eta))`` with
    ``eta = sqrt(l/(1+l))``.
    """
    l = real(l_i_abs, "l_i_abs")
    if l < 0:
        raise InvalidParameterError(f"l_i_abs must be >= 0, got {l_i_abs}")
    s = math.sqrt(l * (1.0 + l))
    l_total = s * (1.0 + 8.0 * l + 8.0 * l * l) + 5.0 * l + 12.0 * l * l + 8.0 * l**3
    sigma = 4.0 * l * (1.0 + l) + (1.0 + 2.0 * l) * s
    eta = math.sqrt(l / (1.0 + l)) if l > 0 else 0.0
    ecc = math.sqrt(2.0 * eta / (1.0 + eta)) if l > 0 else 0.0
    return SubPoissonOptimum(l_total=l_total, sigma_l=HBAR**2 * sigma, eccentricity=ecc)


@dataclass(frozen=True)
class VarianceReport:
    """Fluctuation summary of a minimal packet under a given Hamiltonian.

    ``subpoissonian`` flags variance below the Poissonian reference,
    ``sigma_l < hbar^2 |<L>/hbar|``.
    """

    mean_l: float
    sigma_l: float
    mean_e: float
    sigma_e: float
    subpoissonian: bool


def variance_report(
    spec: MinPacketSpec, context: Optional[EvolutionContext] = None
) -> VarianceReport:
    """Means and variances of angular momentum and energy in one record."""
    if context is None:
        context = EvolutionContext(kind="oscillator", omega=spec.omega, mass=spec.mass)
    var_l = sigma_l(spec)
    var_e = sigma_e(spec, context)
    if context.kind == "oscillator":
        e_mean = mean_energy(spec).total
    else:
        e_mean = magnetic_energy(spec, context)
    mean_l = spec.l_total
    return VarianceReport(
        mean_l=mean_l,
        sigma_l=var_l,
        mean_e=e_mean,
        sigma_e=var_e,
        subpoissonian=var_l < HBAR**2 * abs(mean_l),
    )
