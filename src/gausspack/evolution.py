"""Exact time evolution of Gaussian packets for three quadratic Hamiltonians.

Minimal rotating packets stay in their family under isotropic-oscillator and
uniform-magnetic-field evolution; only the two phases advance, at rates set
by the rotation senses.  Free evolution is richer: the complex quadratic
coefficients transform by a Moebius-type law in the dimensionless time
``tau = 2 hbar mu t / mass``, the density can transiently *shrink* when the
internal rotation is strong enough, and the ellipse reorients by a quarter
turn between the distant past and future.  All of that is closed-form and
implemented here; the propagator integrals in :mod:`gausspack.oracle`
provide the independent check.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from ._record import Record, real
from .constants import HBAR, MASS
from .errors import InvalidParameterError
from .minimal import MinPacketSpec
from .packet import RealParams, _from_moments, first_moments

__all__ = [
    "EvolutionContext",
    "FreeEvolutionRecord",
    "ShrinkAnalysis",
    "FreeAsymptotics",
    "evolve_oscillator",
    "evolve_magnetic",
    "magnetic_energy",
    "evolve_free",
    "shrink_analysis",
    "free_asymptotics",
]

#: Largest dimensionless free-evolution time whose square is still finite.
_TAU_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class EvolutionContext(Record, name="context"):
    """Which quadratic Hamiltonian drives the evolution.

    ``kind`` is one of ``"oscillator"``, ``"magnetic"``, ``"free"``.  The
    magnetic case uses the symmetric gauge for a uniform field; its
    ``omega_larmor`` is half the cyclotron frequency (sign = field
    direction) and may be combined with a trap frequency ``omega``.  The
    JSON keys are ``kind``, ``omega``, ``omega_L`` and ``M``.
    """

    kind: str
    omega: float = 0.0
    omega_larmor: float = field(default=0.0, metadata={"json": "omega_L"})
    mass: float = field(default=MASS, metadata={"json": "M"})

    def __post_init__(self) -> None:
        if self.kind not in ("oscillator", "magnetic", "free"):
            raise InvalidParameterError(
                f"kind must be 'oscillator', 'magnetic' or 'free', got {self.kind!r}"
            )
        super().__post_init__()
        if self.mass <= 0:
            raise InvalidParameterError(f"mass must be positive, got {self.mass}")
        if self.kind == "oscillator":
            if self.omega <= 0:
                raise InvalidParameterError("oscillator evolution needs omega > 0")
            if self.omega_larmor != 0:
                raise InvalidParameterError("oscillator evolution must have omega_L = 0")
        elif self.kind == "magnetic":
            if self.omega_larmor == 0:
                raise InvalidParameterError("magnetic evolution needs omega_L != 0")
            if self.omega < 0:
                raise InvalidParameterError("omega must be >= 0")
        else:  # free
            if self.omega != 0 or self.omega_larmor != 0:
                raise InvalidParameterError("free evolution must have omega = omega_L = 0")

    @property
    def omega_effective(self) -> float:
        """Frequency of the equivalent isotropic oscillator in the rotating frame."""
        if self.kind == "magnetic":
            return math.hypot(self.omega, self.omega_larmor)
        return self.omega


def _matched_frequency(spec: MinPacketSpec, context: EvolutionContext) -> float:
    """The context's effective frequency, which the packet must be built at."""
    omega_eff = context.omega_effective
    if not math.isclose(spec.omega, omega_eff, rel_tol=1e-9, abs_tol=0.0):
        raise InvalidParameterError(
            "packet scale does not match the context: spec.omega = "
            f"{spec.omega} but the effective frequency is {omega_eff}"
        )
    return omega_eff


def _at_phases(spec: MinPacketSpec, u: float, v: float) -> MinPacketSpec:
    """``spec`` with phases ``(u, v)``, built directly rather than by ``dataclasses.replace``."""
    return MinPacketSpec(
        l_i_abs=spec.l_i_abs,
        l_c_abs=spec.l_c_abs,
        sign_i=spec.sign_i,
        sign_c=spec.sign_c,
        u=u,
        v=v,
        omega=spec.omega,
        mass=spec.mass,
    )


def evolve_oscillator(spec: MinPacketSpec, t: float) -> MinPacketSpec:
    """Advance a minimal packet in its own isotropic oscillator.

    The family is form-invariant: only the deformation phase and the orbit
    angle move, as ``u -> u + 2 sign_i omega t`` and
    ``v -> v + sign_c omega t``.  Energies, angular momenta and all variance
    invariants are untouched.
    """
    return _at_phases(
        spec,
        u=spec.u + 2.0 * spec.sign_i * spec.omega * t,
        v=spec.v + spec.sign_c * spec.omega * t,
    )


def evolve_magnetic(spec: MinPacketSpec, context: EvolutionContext, t: float) -> MinPacketSpec:
    """Advance a minimal packet in a uniform magnetic field (plus optional trap).

    The packet must be built at the effective frequency
    ``sqrt(omega^2 + omega_L^2)`` of the context; the Larmor rotation then
    shifts both phase rates, so packets co-rotating with the field
    (``sign = +1`` for positive ``omega_L`` and no trap) become stationary.
    """
    if context.kind != "magnetic":
        raise InvalidParameterError(f"context kind must be 'magnetic', got {context.kind!r}")
    omega_eff = _matched_frequency(spec, context)
    if not math.isclose(spec.mass, context.mass, rel_tol=1e-12, abs_tol=0.0):
        raise InvalidParameterError("packet and context masses differ")
    du = 2.0 * (spec.sign_i * omega_eff - context.omega_larmor)
    dv = spec.sign_c * omega_eff - context.omega_larmor
    return _at_phases(spec, u=spec.u + du * t, v=spec.v + dv * t)


def magnetic_energy(spec: MinPacketSpec, context: EvolutionContext) -> float:
    """Mean energy of a minimal packet in the magnetic Hamiltonian.

    Equals the oscillator energy at the effective frequency minus the
    Larmor frequency times the signed total angular momentum.
    """
    if context.kind != "magnetic":
        raise InvalidParameterError(f"context kind must be 'magnetic', got {context.kind!r}")
    omega_eff = _matched_frequency(spec, context)
    oscillator_part = HBAR * omega_eff * (1.0 + spec.l_i_abs + spec.l_c_abs)
    return oscillator_part - HBAR * context.omega_larmor * (spec.l_intrinsic + spec.l_center)


@dataclass(frozen=True)
class FreeEvolutionRecord:
    """Result of free evolution for a dimensionless time ``tau``.

    ``f_tau`` is the factor by which the density's normalization area grew
    (the peak density drops by the same factor); ``d_plus`` and ``d_minus``
    are filled only for packets in the symmetric form (equal diagonal
    shape, opposite phase curvatures, no diagonal phase coupling), where
    they control the whole shrink-and-spread story.
    """

    tau: float
    params: RealParams
    f_tau: float
    d_plus: Optional[float] = None
    d_minus: Optional[float] = None


def _symmetric_form(params: RealParams) -> Optional[tuple[float, float, float]]:
    """``(chi0, d_plus, d_minus)`` of a symmetric-form packet, None for other shapes."""
    scale = max(params.alpha, params.gamma, 1e-300)
    if not (
        abs(params.alpha - params.gamma) <= 1e-10 * scale
        and abs(params.chi_a + params.chi_c) <= 1e-10 * scale
        and abs(params.rho) <= 1e-10 * scale
    ):
        return None
    chi0 = 0.5 * (params.chi_c - params.chi_a)
    d_plus = 0.25 * (params.alpha**2 + 4.0 * chi0**2 - params.beta**2)
    d_minus = 0.25 * (params.alpha**2 - 4.0 * chi0**2 + params.beta**2)
    return chi0, d_plus, d_minus


def evolve_free(params: RealParams, t: float, mass: float = MASS) -> FreeEvolutionRecord:
    """Evolve an arbitrary packet freely for time ``t``.

    The complex quadratic coefficients (a, b, c) at scale mu transform as

        a -> (a + i tau d) / g,   b -> b / g,   c -> (c + i tau d) / g,

    with ``d = a c - b^2/4``, ``g = 1 + i tau (a + c) - tau^2 d`` and
    ``tau = 2 hbar mu t / mass``; the centroid moves ballistically and the
    momenta are conserved.  The discriminant shrinks exactly by
    ``|g|^2``, which is returned as ``f_tau``.
    """
    t, mass = real(t, "t"), real(mass, "mass")
    if mass <= 0:
        raise InvalidParameterError(f"mass must be positive, got {mass}")
    mu = params.mu
    tau = 2.0 * HBAR * mu * t / mass
    a, b, c = params.quad_a, params.quad_b, params.quad_c
    d = a * c - b * b / 4.0
    # tau**2 raises OverflowError rather than returning inf past this bound.
    g = 1.0 + 1j * tau * (a + c) - tau**2 * d if abs(tau) < _TAU_MAX else math.nan
    if not cmath.isfinite(g):
        raise InvalidParameterError(
            f"free evolution over t={t!r} overflows: tau = {tau!r} is out of range"
        )
    a_t = (a + 1j * tau * d) / g
    b_t = b / g
    c_t = (c + 1j * tau * d) / g

    x0, y0, px0, py0 = first_moments(params)
    evolved = _from_moments(
        mu,
        2.0 * a_t.real,
        b_t.real,
        2.0 * c_t.real,
        a_t.imag,
        c_t.imag,
        b_t.imag,
        x0 + px0 * t / mass,
        y0 + py0 * t / mass,
        px0,
        py0,
    )

    form = _symmetric_form(params)
    d_plus, d_minus = (None, None) if form is None else form[1:]
    return FreeEvolutionRecord(
        tau=tau,
        params=evolved,
        f_tau=float(abs(g) ** 2),
        d_plus=d_plus,
        d_minus=d_minus,
    )


@dataclass(frozen=True)
class ShrinkAnalysis:
    """Closed-form account of transient focusing under free evolution.

    A symmetric-form packet shrinks (its density area passes below the
    initial one) exactly when the internal phase curvature dominates,
    ``4 chi0^2 > alpha0^2 + beta0^2``; the area factor then bottoms out at
    ``f_min`` at dimensionless time ``tau_min`` and returns to 1 at
    ``sqrt(2) tau_min``.  Regardless of shrinking, the ellipse axes align
    with the coordinate axes at ``tau_axis``, where the eccentricity
    reaches ``eps_at_alignment``.
    """

    d_plus: float
    d_minus: float
    shrinks: bool
    tau_min: Optional[float]
    f_min: Optional[float]
    tau_axis: float
    eps_at_alignment: float


def shrink_analysis(params: RealParams) -> ShrinkAnalysis:
    """Analyze transient focusing of a symmetric-form packet.

    Requires the symmetric shape (``alpha = gamma``, ``chi_a = -chi_c``,
    ``rho = 0``); raises otherwise, since the closed forms below do not
    apply to general packets.
    """
    form = _symmetric_form(params)
    if form is None:
        raise InvalidParameterError(
            "shrink analysis needs the symmetric form: alpha = gamma, "
            "chi_a = -chi_c, rho = 0"
        )
    chi0, d_plus, d_minus = form
    alpha0, beta0 = params.alpha, params.beta
    if d_plus <= 0:
        # beta0^2 < alpha0*gamma0 = alpha0^2 makes this impossible.
        raise InvalidParameterError("inconsistent symmetric shape")
    shrinks = d_minus < 0
    tau_min = f_min = None
    if shrinks:
        tau_min = math.sqrt(-d_minus) / d_plus
        f_min = (
            4.0
            * alpha0**2
            * (4.0 * chi0**2 - beta0**2)
            / (alpha0**2 + 4.0 * chi0**2 - beta0**2) ** 2
        )
    tau_axis = 1.0 / math.sqrt(d_plus)
    eps_at_alignment = math.sqrt(
        2.0 * abs(chi0) / (abs(chi0) + math.sqrt(d_plus))
    )
    return ShrinkAnalysis(
        d_plus=d_plus,
        d_minus=d_minus,
        shrinks=shrinks,
        tau_min=tau_min,
        f_min=f_min,
        tau_axis=tau_axis,
        eps_at_alignment=eps_at_alignment,
    )


@dataclass(frozen=True)
class FreeAsymptotics:
    """Late-time geometry of a freely spreading symmetric-form packet.

    The semi-axes eventually grow linearly in tau at relative rate
    ``sqrt(d_plus)``; the eccentricity tends to ``eps_limit`` (equal to its
    initial value) while the major axis settles at ``theta_limit``, a
    quarter turn away from where it started when the shear is nonzero.
    """

    eps_limit: float
    theta_limit: float
    growth_rate: float


def free_asymptotics(params: RealParams) -> FreeAsymptotics:
    """Late-time eccentricity, orientation and growth rate, closed form."""
    form = _symmetric_form(params)
    if form is None:
        raise InvalidParameterError(
            "free asymptotics need the symmetric form: alpha = gamma, "
            "chi_a = -chi_c, rho = 0"
        )
    _, d_plus, _ = form
    alpha0, beta0 = params.alpha, params.beta
    eps_limit = math.sqrt(2.0 * abs(beta0) / (alpha0 + abs(beta0)))
    theta_limit = 0.0 if beta0 == 0 else math.copysign(math.pi / 4.0, beta0)
    return FreeAsymptotics(
        eps_limit=eps_limit,
        theta_limit=theta_limit,
        growth_rate=math.sqrt(d_plus),
    )
