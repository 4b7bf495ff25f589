"""Minimal-energy rotating packets in an isotropic oscillator.

Among all Gaussian packets with prescribed mean internal angular momentum,
the ones minimizing the internal oscillator energy form a one-parameter
family (up to orientation and rotation sense).  Writing the magnitude of the
internal angular momentum as l, the family has deformation

    eta = sqrt(l / (1 + l)),

internal energy ``hbar omega (1 + l)``, and the center contributes at least
``hbar omega |l_c|`` once its own orbital angular momentum is prescribed,
with equality on a specific circular orbit.  This module constructs those
packets and evaluates their closed-form covariances, energies, squeezing
factors and symplectic invariants; :mod:`gausspack.verify` confirms by
brute-force search that the energy bounds really are minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._record import Record, real
from .constants import HBAR, MASS
from .errors import InvalidParameterError
from .packet import GaussianState, RealParams, _from_moments

__all__ = [
    "MinPacketSpec",
    "EnergySplit",
    "UniversalInvariants",
    "build_min_packet",
    "min_packet_covariances",
    "min_packet_state",
    "mean_energy",
    "internal_energy",
    "energy_split",
    "squeezing_factors",
    "min_packet_squeezing",
    "universal_invariants",
]


@dataclass(frozen=True)
class MinPacketSpec(Record, name="spec"):
    """Defining data of a minimal-energy rotating packet.

    Attributes
    ----------
    l_i_abs, l_c_abs : float
        Magnitudes of the internal and center mean angular momenta, in
        units of hbar.  Both must be non-negative.
    sign_i, sign_c : int
        Rotation senses (+1 or -1) of the internal and center motion.
    u : float
        Orientation phase of the internal deformation; the density ellipse
        sits at angle ``-sign_i * u / 2`` and the covariances depend on u
        through ``cos u`` and ``sin u``.
    v : float
        Angular position of the center on its circular orbit.
    omega : float
        Oscillator frequency, must be positive.
    mass : float
        Particle mass, must be positive.

    The JSON keys are ``L_i_abs``, ``L_c_abs``, ``lambda``, ``lambda_c``,
    ``u``, ``v``, ``omega`` and ``M``.
    """

    l_i_abs: float = field(metadata={"json": "L_i_abs"})
    l_c_abs: float = field(default=0.0, metadata={"json": "L_c_abs"})
    sign_i: int = field(default=1, metadata={"json": "lambda"})
    sign_c: int = field(default=1, metadata={"json": "lambda_c"})
    u: float = 0.0
    v: float = 0.0
    omega: float = 1.0
    mass: float = field(default=MASS, metadata={"json": "M"})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sign_i not in (-1, 1) or self.sign_c not in (-1, 1):
            raise InvalidParameterError(
                f"rotation senses must be +1 or -1, got sign_i={self.sign_i}, sign_c={self.sign_c}"
            )
        if self.l_i_abs < 0 or self.l_c_abs < 0:
            raise InvalidParameterError(
                f"angular momentum magnitudes must be >= 0, got "
                f"l_i_abs={self.l_i_abs}, l_c_abs={self.l_c_abs}"
            )
        if self.omega <= 0 or self.mass <= 0:
            raise InvalidParameterError(
                f"omega and mass must be positive, got omega={self.omega}, mass={self.mass}"
            )

    @property
    def eta(self) -> float:
        """Deformation parameter ``sqrt(l/(1+l))`` of the internal motion."""
        return math.sqrt(self.l_i_abs / (1.0 + self.l_i_abs))

    @property
    def mu(self) -> float:
        """Natural inverse-length-squared scale ``mass * omega / hbar``."""
        return self.mass * self.omega / HBAR

    @property
    def l_intrinsic(self) -> float:
        """Signed internal angular momentum in units of hbar."""
        return self.sign_i * self.l_i_abs

    @property
    def l_center(self) -> float:
        """Signed center angular momentum in units of hbar."""
        return self.sign_c * self.l_c_abs

    @property
    def l_total(self) -> float:
        return self.l_intrinsic + self.l_center

    @property
    def orbit_radius(self) -> float:
        """Radius of the center's circular orbit."""
        return math.sqrt(self.l_c_abs / self.mu)

    @property
    def w(self) -> float:
        """Relative phase ``sign_i * (v - u/2)`` between center and deformation."""
        return self.sign_i * (self.v - 0.5 * self.u)


@dataclass(frozen=True)
class EnergySplit:
    """Mean energy separated into center and internal contributions."""

    center: float
    internal: float

    @property
    def total(self) -> float:
        return self.center + self.internal


@dataclass(frozen=True)
class UniversalInvariants:
    """Symplectic invariants of a 4x4 phase-space covariance matrix.

    ``d0`` is the determinant, ``d2`` the quadratic invariant built from
    pairs of covariances, and ``kappas`` the two symplectic eigenvalues in
    units of hbar (each 1/2 for a pure Gaussian state).  For pure states
    ``d0 = hbar^4/16`` and ``d2 = -hbar^4/2`` regardless of any squeezing,
    rotation or displacement.
    """

    d0: float
    d2: float
    kappas: tuple[float, float]


def build_min_packet(spec: MinPacketSpec) -> RealParams:
    """Packet parameters of the minimal-energy family member ``spec``.

    The quadratic form has unit trace parameter (the isotropic part is
    fixed by the energy minimum) and deformation ``eta`` at orientation
    phase u; the linear part places the center on its circular orbit at
    angle v with the tangential momentum that minimizes the center energy.
    """
    eta = spec.eta
    lam = spec.sign_i
    cu, su = math.cos(spec.u), math.sin(spec.u)
    radius = spec.orbit_radius
    x0 = radius * math.cos(spec.v)
    y0 = radius * math.sin(spec.v)
    p_t = spec.sign_c * spec.mass * spec.omega
    return _from_moments(
        spec.mu,
        1.0 + eta * cu,
        eta * su,
        1.0 - eta * cu,
        -0.5 * lam * eta * su,
        0.5 * lam * eta * su,
        lam * eta * cu,
        x0,
        y0,
        -p_t * y0,
        p_t * x0,
    )


def min_packet_covariances(spec: MinPacketSpec) -> np.ndarray:
    """Closed-form covariance matrix of a minimal packet, order (x, y, px, py).

    All entries scale with ``1 + l`` (the inverse of ``1 - eta^2``) and
    oscillate with the orientation phase u.
    """
    eta = spec.eta
    lam = spec.sign_i
    l_i = spec.l_i_abs
    big_c = 1.0 + l_i
    cu, su = math.cos(spec.u), math.sin(spec.u)
    pos = HBAR * big_c / (2.0 * spec.mass * spec.omega)
    mom = spec.mass * spec.omega * HBAR * big_c / 2.0

    xx = pos * (1.0 - eta * cu)
    yy = pos * (1.0 + eta * cu)
    xy = -pos * eta * su
    pxpx = mom * (1.0 + eta * cu)
    pypy = mom * (1.0 - eta * cu)
    pxpy = mom * eta * su
    xpx = 0.5 * HBAR * big_c * lam * eta * su
    ypy = -xpx
    xpy = 0.5 * HBAR * lam * (l_i - eta * big_c * cu)
    ypx = -0.5 * HBAR * lam * (l_i + eta * big_c * cu)
    return np.array(
        [
            [xx, xy, xpx, xpy],
            [xy, yy, ypx, ypy],
            [xpx, ypx, pxpx, pxpy],
            [xpy, ypy, pxpy, pypy],
        ]
    )


def min_packet_state(spec: MinPacketSpec) -> GaussianState:
    """Centroid on the circular orbit plus the closed-form covariances."""
    radius = spec.orbit_radius
    x0 = radius * math.cos(spec.v)
    y0 = radius * math.sin(spec.v)
    p_t = spec.sign_c * spec.mass * spec.omega
    return GaussianState(
        x0=x0,
        y0=y0,
        px0=-p_t * y0,
        py0=p_t * x0,
        cov=min_packet_covariances(spec),
    )


def mean_energy(spec: MinPacketSpec) -> EnergySplit:
    """Mean oscillator energy of the minimal packet, split center/internal.

    The internal part is ``hbar omega (1 + l_i)``, the center part
    ``hbar omega l_c``; both bounds are tight for this family.
    """
    scale = HBAR * spec.omega
    return EnergySplit(center=scale * spec.l_c_abs, internal=scale * (1.0 + spec.l_i_abs))


def internal_energy(
    alpha: float,
    beta: float,
    gamma: float,
    chi_a: float,
    chi_c: float,
    rho: float,
    omega: float = 1.0,
) -> float:
    """Internal oscillator energy of a packet at the natural scale.

    Evaluates the exact mean of the centered oscillator Hamiltonian for a
    packet whose overall scale is matched to the trap
    (``mu = mass * omega / hbar``); at that scale the mass drops out.  This
    is the objective whose minimum over all shapes with fixed internal
    angular momentum is tested by :func:`gausspack.verify.verify_minimum`.
    """
    alpha, beta, gamma = real(alpha, "alpha"), real(beta, "beta"), real(gamma, "gamma")
    chi_a, chi_c, rho = real(chi_a, "chi_a"), real(chi_c, "chi_c"), real(rho, "rho")
    omega = real(omega, "omega")
    if alpha * gamma - beta**2 <= 0 or alpha <= 0 or gamma <= 0:
        raise InvalidParameterError("shape parameters must define a positive form")
    return _internal_energy(alpha, beta, gamma, chi_a, chi_c, rho, omega)


def _internal_energy(
    alpha: float, beta: float, gamma: float, chi_a: float, chi_c: float, rho: float, omega: float
) -> float:
    """:func:`internal_energy` on finite floats that define a positive form.

    The minimum search calls this directly: its charts only produce such
    shapes, and it makes some 10^5 calls per check.
    """
    delta = alpha * gamma - beta**2
    kinetic = (
        gamma * (alpha**2 + 4.0 * chi_a**2)
        + alpha * (gamma**2 + 4.0 * chi_c**2)
        + (alpha + gamma) * (rho**2 - beta**2)
        - 4.0 * beta * rho * (chi_a + chi_c)
    )
    return HBAR * omega * (kinetic + alpha + gamma) / (4.0 * delta)


def energy_split(
    state: GaussianState, omega: float, mass: float = MASS
) -> EnergySplit:
    """Mean oscillator energy of an arbitrary Gaussian state, split in two.

    The center part is the classical energy of the centroid; the internal
    part is the trace combination of the covariances.  Works for any scale,
    not just trap-matched packets.
    """
    omega, mass = real(omega, "omega"), real(mass, "mass")
    if omega <= 0 or mass <= 0:
        raise InvalidParameterError("omega and mass must be positive")
    cov = state.cov
    center = (state.px0**2 + state.py0**2) / (2.0 * mass) + 0.5 * mass * omega**2 * (
        state.x0**2 + state.y0**2
    )
    internal = (cov[2, 2] + cov[3, 3]) / (2.0 * mass) + 0.5 * mass * omega**2 * (
        cov[0, 0] + cov[1, 1]
    )
    return EnergySplit(center=float(center), internal=float(internal))


def squeezing_factors(cov: np.ndarray, omega: float, mass: float = MASS) -> tuple[float, float]:
    """Per-axis minimal variance ratio reachable by free oscillator evolution.

    For each Cartesian axis this is the smallest ratio of the coordinate
    variance to the ground-state variance that the oscillator's rotation of
    phase space will ever produce, ``2 (E - sqrt(E^2 - U))`` in units where
    E is the axis energy in quanta and U the axis phase-space determinant in
    ``hbar^2``.  It cannot drop below 1/2 for states respecting the
    uncertainty relation, and equals ``1/(1+eta)`` on the minimal family.
    """
    cov = np.asarray(cov, dtype=float)
    out = []
    for pos, mom in ((0, 2), (1, 3)):
        energy = (cov[mom, mom] / (2.0 * mass) + 0.5 * mass * omega**2 * cov[pos, pos]) / (
            HBAR * omega
        )
        uncert = (cov[pos, pos] * cov[mom, mom] - cov[pos, mom] ** 2) / HBAR**2
        gap = energy**2 - uncert
        out.append(2.0 * (energy - math.sqrt(max(gap, 0.0))))
    return out[0], out[1]


def min_packet_squeezing(spec: MinPacketSpec) -> float:
    """Squeezing factor ``1/(1+eta)`` shared by both axes of a minimal packet."""
    return 1.0 / (1.0 + spec.eta)


_J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


def universal_invariants(cov: np.ndarray) -> UniversalInvariants:
    """Symplectic invariants of a covariance matrix in order (x, y, px, py)."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise InvalidParameterError(f"covariance must be 4x4, got shape {cov.shape}")
    d0 = float(np.linalg.det(cov))
    d2 = HBAR**2 * (
        cov[0, 2] ** 2
        + cov[1, 3] ** 2
        + 2.0 * cov[0, 3] * cov[1, 2]
        - 2.0 * cov[0, 1] * cov[2, 3]
        - cov[0, 0] * cov[2, 2]
        - cov[1, 1] * cov[3, 3]
    )
    eigs = np.linalg.eigvals(_J @ cov)
    mags = np.sort(np.abs(eigs))
    kappas = (
        float((mags[0] + mags[1]) / (2.0 * HBAR)),
        float((mags[2] + mags[3]) / (2.0 * HBAR)),
    )
    return UniversalInvariants(d0=d0, d2=d2, kappas=kappas)
