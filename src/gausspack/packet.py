"""Two-dimensional Gaussian wave packets and their exact moments.

A packet is written as

    psi(x, y) = N * exp(-mu * (a x^2 + b x y + c y^2) + F x + G y)

with complex quadratic coefficients

    a = alpha/2 + i chi_a,   b = beta + i rho,   c = gamma/2 + i chi_c

and complex linear coefficients F = F1 + i F2, G = G1 + i G2.  The overall
scale mu > 0 carries the inverse-length-squared dimension; the remaining
parameters are dimensionless.  Normalizability requires alpha > 0, gamma > 0
and a positive discriminant delta = alpha*gamma - beta^2.

Everything observable about such a state - centroid, momentum, the ten
second-order covariances, the angular-momentum split, probability current,
and the geometry of its density ellipse - has a closed form in these eleven
real numbers.  This module implements those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._record import Record, real
from .constants import DELTA_FLOOR, HBAR, MASS
from .errors import InvalidParameterError

__all__ = [
    "RealParams",
    "GaussianState",
    "AngularSplit",
    "EllipseGeometry",
    "FirstMoments",
    "first_moments",
    "params_from_moments",
    "covariances",
    "gaussian_state",
    "angular_split",
    "log_normalization",
    "normalization",
    "wavefunction",
    "density",
    "probability_current",
    "ellipse",
]


@dataclass(frozen=True)
class RealParams(Record, name="packet"):
    """The eleven real parameters of a normalizable 2D Gaussian packet.

    Attributes
    ----------
    mu : float
        Overall inverse-length-squared scale, must be positive.
    alpha, beta, gamma : float
        Real symmetric part of the quadratic form (twice the real part of
        the diagonal coefficients, once the off-diagonal one).  Requires
        ``alpha > 0``, ``gamma > 0`` and ``alpha*gamma - beta^2 > 0``.
    chi_a, chi_c, rho : float
        Imaginary parts of the quadratic coefficients; they encode shear and
        internal rotation and are unconstrained.
    f1, f2, g1, g2 : float
        Real and imaginary parts of the linear coefficients F and G, which
        displace the packet in phase space.  Their JSON keys are the
        uppercase ``F1``, ``F2``, ``G1``, ``G2``.
    """

    mu: float
    alpha: float
    beta: float
    gamma: float
    chi_a: float = 0.0
    chi_c: float = 0.0
    rho: float = 0.0
    f1: float = field(default=0.0, metadata={"json": "F1"})
    f2: float = field(default=0.0, metadata={"json": "F2"})
    g1: float = field(default=0.0, metadata={"json": "G1"})
    g2: float = field(default=0.0, metadata={"json": "G2"})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mu <= 0:
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")
        if self.alpha <= 0 or self.gamma <= 0:
            raise InvalidParameterError(
                f"alpha and gamma must be positive, got alpha={self.alpha}, gamma={self.gamma}"
            )
        if self.delta <= DELTA_FLOOR * max(self.alpha * self.gamma, 1.0):
            raise InvalidParameterError(
                "quadratic form is degenerate: alpha*gamma - beta^2 = "
                f"{self.delta} is not positive enough to normalize"
            )

    @property
    def delta(self) -> float:
        """Discriminant ``alpha*gamma - beta^2`` of the real quadratic form."""
        return self.alpha * self.gamma - self.beta**2

    @property
    def quad_a(self) -> complex:
        """Complex coefficient of x^2 (before the mu factor)."""
        return complex(self.alpha / 2.0, self.chi_a)

    @property
    def quad_b(self) -> complex:
        """Complex coefficient of x*y (before the mu factor)."""
        return complex(self.beta, self.rho)

    @property
    def quad_c(self) -> complex:
        """Complex coefficient of y^2 (before the mu factor)."""
        return complex(self.gamma / 2.0, self.chi_c)

    @property
    def lin_f(self) -> complex:
        """Complex linear coefficient multiplying x."""
        return complex(self.f1, self.f2)

    @property
    def lin_g(self) -> complex:
        """Complex linear coefficient multiplying y."""
        return complex(self.g1, self.g2)


class FirstMoments(NamedTuple):
    """Centroid position and mean momentum ``(x0, y0, px0, py0)``."""

    x0: float
    y0: float
    px0: float
    py0: float


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Phase-space summary of a packet: centroid plus 4x4 covariance.

    The covariance matrix is ordered ``(x, y, px, py)`` and contains the
    symmetrized second central moments.
    """

    x0: float
    y0: float
    px0: float
    py0: float
    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise InvalidParameterError(f"covariance must be 4x4, got shape {cov.shape}")
        object.__setattr__(self, "cov", cov)

    @property
    def mean(self) -> np.ndarray:
        """Phase-space mean vector ``(x0, y0, px0, py0)``."""
        return np.array([self.x0, self.y0, self.px0, self.py0])


@dataclass(frozen=True)
class AngularSplit:
    """Mean angular momentum separated into center and internal parts.

    Both pieces are reported in units of hbar: ``center`` is the orbital
    contribution of the centroid motion, ``intrinsic`` comes from the
    internal phase structure of the packet, and ``total`` is their sum.
    """

    center: float
    intrinsic: float

    @property
    def total(self) -> float:
        return self.center + self.intrinsic


@dataclass(frozen=True)
class EllipseGeometry:
    """Geometry of a constant-density contour of ``|psi|^2``.

    The contour encloses the level set where the density drops by the
    factor ``exp(-nu)`` relative to its peak.  ``theta`` is the angle of
    the major axis measured from the x axis, reported in ``(-pi/2, pi/2]``.
    """

    nu: float
    a_plus: float
    a_minus: float
    eccentricity: float
    area: float
    theta: float


def first_moments(params: RealParams) -> FirstMoments:
    """Centroid and mean momentum of the packet.

    The centroid solves the linear system that makes the density's
    exponent stationary; the mean momentum picks up both the plane-wave
    part of the linear coefficients and the gradient of the quadratic
    phase evaluated at the centroid.
    """
    mu, delta = params.mu, params.delta
    x0 = (params.gamma * params.f1 - params.beta * params.g1) / (mu * delta)
    y0 = (params.alpha * params.g1 - params.beta * params.f1) / (mu * delta)
    px0 = HBAR * (params.f2 - mu * (2.0 * params.chi_a * x0 + params.rho * y0))
    py0 = HBAR * (params.g2 - mu * (2.0 * params.chi_c * y0 + params.rho * x0))
    return FirstMoments(x0, y0, px0, py0)


def params_from_moments(
    base: RealParams, x0: float, y0: float, px0: float, py0: float
) -> RealParams:
    """Rebuild the linear coefficients so the packet acquires given moments.

    Keeps the quadratic part of ``base`` and solves the first-moment
    relations for F and G.  This is the exact inverse of
    :func:`first_moments` for a fixed quadratic form.
    """
    return _from_moments(
        base.mu, base.alpha, base.beta, base.gamma, base.chi_a, base.chi_c, base.rho,
        x0, y0, px0, py0,
    )


def _from_moments(
    mu: float,
    alpha: float,
    beta: float,
    gamma: float,
    chi_a: float,
    chi_c: float,
    rho: float,
    x0: float,
    y0: float,
    px0: float,
    py0: float,
) -> RealParams:
    """The packet with this quadratic part and these first moments.

    The body of :func:`params_from_moments`, for callers that hold the
    quadratic part as numbers and need no packet built for it alone.
    """
    f1 = mu * (alpha * x0 + beta * y0)
    g1 = mu * (beta * x0 + gamma * y0)
    f2 = px0 / HBAR + mu * (2.0 * chi_a * x0 + rho * y0)
    g2 = py0 / HBAR + mu * (2.0 * chi_c * y0 + rho * x0)
    return RealParams(
        mu=mu,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        chi_a=chi_a,
        chi_c=chi_c,
        rho=rho,
        f1=f1,
        f2=f2,
        g1=g1,
        g2=g2,
    )


def covariances(params: RealParams) -> np.ndarray:
    """The 4x4 symmetrized covariance matrix in the order ``(x, y, px, py)``.

    All ten independent entries are exact rational-algebraic functions of
    the packet parameters; no quadrature is involved.
    """
    mu = params.mu
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    chi_a, chi_c, rho = params.chi_a, params.chi_c, params.rho
    delta = params.delta
    h = HBAR

    xx = gamma / (2.0 * mu * delta)
    yy = alpha / (2.0 * mu * delta)
    xy = -beta / (2.0 * mu * delta)

    pxpx = (
        mu
        * h**2
        * (
            gamma * (alpha**2 + 4.0 * chi_a**2)
            + alpha * (rho**2 - beta**2)
            - 4.0 * beta * rho * chi_a
        )
        / (2.0 * delta)
    )
    pypy = (
        mu
        * h**2
        * (
            alpha * (gamma**2 + 4.0 * chi_c**2)
            + gamma * (rho**2 - beta**2)
            - 4.0 * beta * rho * chi_c
        )
        / (2.0 * delta)
    )
    pxpy = (
        mu
        * h**2
        * (
            beta * (delta - rho**2 - 4.0 * chi_a * chi_c)
            + 2.0 * rho * (alpha * chi_c + gamma * chi_a)
        )
        / (2.0 * delta)
    )

    xpx = h * (beta * rho - 2.0 * gamma * chi_a) / (2.0 * delta)
    ypy = h * (beta * rho - 2.0 * alpha * chi_c) / (2.0 * delta)
    xpy = h * (2.0 * beta * chi_c - rho * gamma) / (2.0 * delta)
    ypx = h * (2.0 * beta * chi_a - rho * alpha) / (2.0 * delta)

    return np.array(
        [
            [xx, xy, xpx, xpy],
            [xy, yy, ypx, ypy],
            [xpx, ypx, pxpx, pxpy],
            [xpy, ypy, pxpy, pypy],
        ]
    )


def gaussian_state(params: RealParams) -> GaussianState:
    """Bundle centroid, momentum and covariance into one record."""
    x0, y0, px0, py0 = first_moments(params)
    return GaussianState(x0=x0, y0=y0, px0=px0, py0=py0, cov=covariances(params))


def angular_split(params: RealParams) -> AngularSplit:
    """Mean angular momentum in units of hbar, split center/internal.

    The center part is ``(x0*py0 - y0*px0)/hbar``; the internal part is the
    covariance combination ``(cov(x,py) - cov(y,px))/hbar``, which reduces
    to ``(2 beta (chi_c - chi_a) + rho (alpha - gamma)) / (2 delta)``.
    """
    x0, y0, px0, py0 = first_moments(params)
    center = (x0 * py0 - y0 * px0) / HBAR
    delta = params.delta
    intrinsic = (
        2.0 * params.beta * (params.chi_c - params.chi_a)
        + params.rho * (params.alpha - params.gamma)
    ) / (2.0 * delta)
    return AngularSplit(center=center, intrinsic=intrinsic)


def log_normalization(params: RealParams) -> float:
    """Natural logarithm of :func:`normalization`.

    It stays finite for a packet displaced so far that the prefactor
    itself underflows to 0.
    """
    x0, y0, _, _ = first_moments(params)
    quad0 = (
        params.alpha * x0**2 + 2.0 * params.beta * x0 * y0 + params.gamma * y0**2
    )
    log_n2 = (
        math.log(params.mu)
        + 0.5 * math.log(params.delta)
        - math.log(math.pi)
        - params.mu * quad0
    )
    return 0.5 * log_n2


def normalization(params: RealParams) -> float:
    """Modulus of the normalization prefactor.

    For a centered packet ``|N|^2 = mu*sqrt(delta)/pi``; displacing the
    packet multiplies the prefactor by ``exp(-mu*(alpha x0^2 + 2 beta x0 y0
    + gamma y0^2)/2)`` so the total probability stays one.
    """
    return math.exp(log_normalization(params))


def wavefunction(params: RealParams, x, y) -> np.ndarray:
    """Evaluate the normalized packet on arrays of coordinates.

    The prefactor is taken real and positive; every closed form in this
    package uses that same phase convention, so mode-expansion coefficients
    computed analytically and by overlap integrals agree including phase.
    The prefactor enters the exponent as ``log N``, so a packet displaced
    so far that ``N`` underflows still evaluates where it is not negligible.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    exponent = (
        -params.mu
        * (params.quad_a * x**2 + params.quad_b * x * y + params.quad_c * y**2)
        + params.lin_f * x
        + params.lin_g * y
    )
    return np.exp(exponent + log_normalization(params))


def density(params: RealParams, x, y) -> np.ndarray:
    """Probability density ``|psi|^2`` on arrays of coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0, y0, _, _ = first_moments(params)
    dx = x - x0
    dy = y - y0
    quad = params.alpha * dx**2 + 2.0 * params.beta * dx * dy + params.gamma * dy**2
    n2 = params.mu * math.sqrt(params.delta) / math.pi
    return n2 * np.exp(-params.mu * quad)


def probability_current(
    params: RealParams, x, y, mass: float = MASS
) -> tuple[np.ndarray, np.ndarray]:
    """Probability current density ``(j_x, j_y)`` of the packet.

    The current of a Gaussian packet is the density times a linear velocity
    field; its curl is what sustains a nonzero internal angular momentum.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho_xy = density(params, x, y)
    mu = params.mu
    vx = (HBAR / mass) * (params.f2 - mu * (params.rho * y + 2.0 * params.chi_a * x))
    vy = (HBAR / mass) * (params.g2 - mu * (params.rho * x + 2.0 * params.chi_c * y))
    return rho_xy * vx, rho_xy * vy


def ellipse(params: RealParams, nu: float = 1.0) -> EllipseGeometry:
    """Geometry of the density contour ``|psi|^2 = |psi|^2_max * exp(-nu)``.

    The semi-axes come from the eigenvalues ``(alpha + gamma -+ r)/2`` of
    the real quadratic form, with ``r = sqrt((alpha-gamma)^2 + 4 beta^2)``;
    the enclosed area is ``pi * nu / (mu * sqrt(delta))`` and the major-axis
    angle satisfies ``cos 2theta = (gamma - alpha)/r``,
    ``sin 2theta = -2 beta / r``.  When the contour is a circle (r = 0) the
    angle is reported as 0.
    """
    nu = real(nu, "nu")
    if nu <= 0:
        raise InvalidParameterError(f"nu must be positive, got {nu}")
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    r = math.hypot(alpha - gamma, 2.0 * beta)
    trace = alpha + gamma
    a_plus = math.sqrt(2.0 * nu / (params.mu * (trace - r)))
    a_minus = math.sqrt(2.0 * nu / (params.mu * (trace + r)))
    eccentricity = math.sqrt(2.0 * r / (trace + r))
    area = math.pi * nu / (params.mu * math.sqrt(params.delta))
    theta = 0.0 if r == 0.0 else 0.5 * math.atan2(-2.0 * beta, gamma - alpha)
    return EllipseGeometry(
        nu=nu,
        a_plus=a_plus,
        a_minus=a_minus,
        eccentricity=eccentricity,
        area=area,
        theta=theta,
    )
