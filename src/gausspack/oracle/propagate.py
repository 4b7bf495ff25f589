"""Numerical time evolution through explicit propagator integrals.

Each function evaluates the evolved wavefunction at requested points as

    psi(r, t) = integral K(r, r'; t) psi(r', 0) d2r'

with the exact quadratic kernel of the corresponding Hamiltonian (free
particle, isotropic oscillator, uniform magnetic field in symmetric gauge).
About the packet's centroid ``c``, with ``r' = c + p`` and ``d_t = r_t - c``,
every kernel reads ``pref exp(kappa |p|^2 + lam_t . p + e_t)``: ``kappa``
is imaginary and the same for every target, and only the linear term
``lam_t`` and the constant ``e_t`` depend on the target ``r_t``.  Each is
expanded in ``d_t`` and ``c`` term by term, so no phase is the difference
of two large ``|r|^2`` terms.

``K psi`` is then a Gaussian in ``p`` with one quadratic form ``Q = -mu
A_psi + kappa I`` for all targets.  ``Re Q`` is half the density's form,
so in the density's principal frame ``p = T0 zeta0`` (see
:func:`~gausspack.oracle.moments._principal_axes`) it is ``-|zeta0|^2 /
4``, and ``S = T0^T Im(Q) T0`` is real and symmetric.  Rotating by the
eigenvectors ``R2`` of ``S``, ``T = T0 R2`` leaves the real part at
``-|zeta|^2 / 4`` and makes the imaginary part ``diag(s_1, s_2)``.  In
this complex principal frame each target's exponent is

    sum_k (-1/4 + i s_k) zeta_k^2 + lam_tk zeta_k + e_t

with no cross term, so its integral is ``|det T| e^{e_t} J_1[t] J_2[t]``
with ``J_k[t] = int exp((-1/4 + i s_k) z^2 + lam_tk z) dz`` over
``[-h, h]``, ``h = half_width_sigmas``.  ``psi``'s gradient at its
centroid is ``i <p> / hbar`` and every kernel's ``lam_t`` is imaginary, so
``Re lam_tk = 0`` and the integrand of each ``J_k`` is bounded by
``exp(-z^2 / 4)``: the box cuts it where it has fallen to ``exp(-h^2 /
4)``, and ``|J_k| <= sqrt(4 pi)``.  Each ``J_k`` is one stacked adaptive
Gauss-Legendre integral whose ``T`` components share one partition, so a
call makes two 1-D integrals however many targets it has, and a
bisection splits only the axis whose phase needs it.  The frame is linear
algebra on the integrand's exponent and each ``J_k`` is a numerical
integral; the checks compare these values with an evolution law's
wavefunction up to one phase, so the analytic laws are tested without
sharing any algebra with the kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from ..constants import HBAR, MASS
from ..errors import InvalidParameterError
from ..packet import RealParams, first_moments
from .moments import _principal_axes
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = ["propagate_free", "propagate_oscillator", "propagate_magnetic"]

#: Quadrature defaults for propagator integrals.  ``abs_tol`` bounds each
#: target's value as a whole (see :func:`_propagate`); at ``h = 10.5``
#: ``|psi|`` has fallen to ``exp(-h^2 / 4)``, about ``abs_tol``, of its
#: peak.  A bisection of a 1-D integral costs two intervals, and an
#: l_i = 100 packet needs 10 of them.
_PROP_QUAD = QuadratureSpec(
    order=32, refined_order=48, abs_tol=1e-12, max_splits=12, half_width_sigmas=10.5
)

#: ``int exp(-z^2 / 4) dz`` over the real line: a bound on every ``|J_k|``.
_J_BOUND = math.sqrt(4.0 * math.pi)


def _targets(targets: Sequence[tuple[float, float]]) -> np.ndarray:
    """Target coordinates as a ``(T, 2)`` array."""
    pts = np.asarray(targets, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidParameterError(f"targets must be (x, y) pairs, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameterError("propagator targets must be finite")
    return pts


def _centroid(params: RealParams) -> np.ndarray:
    x0, y0, _, _ = first_moments(params)
    return np.array([x0, y0])


def _separate(
    params: RealParams, pref: complex, kappa: complex, lam: np.ndarray, const: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Write ``K psi`` in its complex principal frame; see the module docstring.

    The kernel is ``K(r_t, c + p) = pref exp(kappa |p|^2 + lam[t] . p +
    const[t])`` about the centroid ``c``, with ``lam`` of shape ``(T, 2)``
    and ``const`` of shape ``(T,)``, both imaginary.  Returns ``(T, c,
    quad, lin, e, log_size)`` with ``K(r_t, c + T zeta) psi(c + T zeta)
    |det T| = exp(sum_k quad[k] zeta_k^2 + lin[t, k] zeta_k + e[t])``,
    ``quad[k] = -1/4 + i s_k``, and ``log_size = Re e[t]`` for every
    target.

    ``psi``'s exponent about ``c`` is ``-mu p^T A_psi p + i <p> . p /
    hbar + log psi(c)``, with ``Re log psi(c) = log(mu sqrt(delta) / pi)
    / 2``.  Only ``Im A_psi``, the chirp, enters the frame: the real part
    is ``-I/4`` in the density's principal frame by construction, so the
    lab-frame real form is never evaluated.
    """
    mu = params.mu
    rotation, sigmas = _principal_axes(params)
    x0, y0, px0, py0 = first_moments(params)
    chirp = np.array([[params.chi_a, 0.5 * params.rho], [0.5 * params.rho, params.chi_c]])
    s_matrix = (kappa.imag * np.eye(2) - mu * (rotation.T @ chirp @ rotation)) * np.outer(
        sigmas, sigmas
    )
    (s00, s01), (_, s11) = s_matrix
    angle = 0.5 * math.atan2(2.0 * s01, s00 - s11)
    mean, radius = 0.5 * (s00 + s11), 0.5 * math.hypot(s00 - s11, 2.0 * s01)
    cos, sin = math.cos(angle), math.sin(angle)
    frame = (rotation * sigmas) @ np.array([[cos, -sin], [sin, cos]])
    quad = np.array([complex(-0.25, mean + radius), complex(-0.25, mean - radius)])
    lin = (lam + 1j * np.array([px0, py0]) / HBAR) @ frame
    phase0 = x0 * (params.f2 - mu * (params.chi_a * x0 + params.rho * y0)) + y0 * (
        params.g2 - mu * params.chi_c * y0
    )
    log_size = (
        math.log(abs(pref))
        + math.log(sigmas[0])
        + math.log(sigmas[1])
        + 0.5 * math.log(mu * math.sqrt(params.delta) / math.pi)
    )
    exponent = complex(log_size, cmath.phase(pref) + phase0) + const
    return frame, np.array([x0, y0]), quad, lin, exponent, log_size


def _propagate(
    params: RealParams,
    pref: complex,
    kappa: complex,
    lam: np.ndarray,
    const: np.ndarray,
    quad: QuadratureSpec,
) -> np.ndarray:
    """``int K(r_t, r') psi(r') d2r'`` for every target, as ``exp(e[t]) J_1[t] J_2[t]``.

    The kernel terms are those :func:`_separate` takes.  Each target's value must
    meet ``quad.abs_tol`` as a whole.  With ``P = |e^{e[t]}|``, the same
    for all targets, and ``|J_k| <= sqrt(4 pi)``, an error ``eps_k`` in
    each ``J_k`` moves the value by at most ``P sqrt(4 pi) (eps_1 +
    eps_2)`` to first order, so each axis gets ``abs_tol / (2 P sqrt(4
    pi))``.
    """
    _, _, quads, lins, exponent, log_size = _separate(params, pref, kappa, lam, const)
    h = quad.half_width_sigmas
    axis_spec = replace(quad, abs_tol=quad.abs_tol / (2.0 * _J_BOUND * math.exp(log_size)))
    value = np.exp(exponent)
    for q, lin in zip(quads, lins.T):

        def integrand(z: np.ndarray, q: complex = q, lin: np.ndarray = lin[:, None]) -> np.ndarray:
            return np.exp(q * (z * z) + lin * z)

        value = value * integrate_adaptive(integrand, (-h, h), axis_spec)
    return value


def propagate_free(
    params: RealParams,
    t: float,
    targets: Sequence[tuple[float, float]],
    mass: float = MASS,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Free evolution of the packet, evaluated at ``targets``.

    ``K = pref exp(kappa |d - p|^2)`` with ``kappa = i m / (2 hbar t)``.
    """
    if t == 0:
        raise InvalidParameterError("propagator integral needs t != 0")
    d = _targets(targets) - _centroid(params)
    pref = mass / (2.0 * math.pi * 1j * HBAR * t)
    kappa = 1j * mass / (2.0 * HBAR * t)
    lam, const = -2.0 * kappa * d, kappa * np.sum(d * d, axis=1)
    return _propagate(params, pref, kappa, lam, const, quad or _PROP_QUAD)


def propagate_oscillator(
    params: RealParams,
    t: float,
    targets: Sequence[tuple[float, float]],
    omega: float,
    mass: float = MASS,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Isotropic-oscillator evolution of the packet, evaluated at ``targets``.

    ``K = pref exp(g (cos(|r|^2 + |r'|^2) - 2 r . r'))`` with ``g = i m omega
    / (2 hbar sin)``.  About the centroid, ``kappa = g cos`` and the
    remainder carries ``g (cos - 1) = -i m omega tan(omega t / 2) / (2
    hbar)``, taken through the tangent so that a short time loses no
    digits to ``cos - 1``.
    """
    s = math.sin(omega * t)
    if abs(s) < 1e-6:
        raise InvalidParameterError(
            f"oscillator kernel is singular near focal times, sin(omega*t)={s}"
        )
    r = _targets(targets)
    c = _centroid(params)
    d = r - c
    pref = mass * omega / (2.0 * math.pi * 1j * HBAR * s)
    coef = 1j * mass * omega / (2.0 * HBAR * s)
    kappa = coef * math.cos(omega * t)
    shift = -0.5j * mass * omega * math.tan(0.5 * omega * t) / HBAR
    lam = -2.0 * coef * d + 2.0 * shift * c
    const = kappa * np.sum(d * d, axis=1) + 2.0 * shift * (r @ c)
    return _propagate(params, pref, kappa, lam, const, quad or _PROP_QUAD)


def propagate_magnetic(
    params: RealParams,
    t: float,
    targets: Sequence[tuple[float, float]],
    omega_larmor: float,
    mass: float = MASS,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Evolution in a uniform magnetic field (symmetric gauge, no well).

    ``K = pref exp(g (cot |r - r'|^2 - 2 r x r'))`` with ``g = i m omega_L
    / (2 hbar)`` and ``r x r' = x y' - y x'``.  About the centroid, ``r x
    r' = d x c + r x p``.
    """
    s = math.sin(omega_larmor * t)
    if abs(s) < 1e-6:
        raise InvalidParameterError(
            f"magnetic kernel is singular near focal times, sin(omega_L*t)={s}"
        )
    r = _targets(targets)
    c = _centroid(params)
    d = r - c
    pref = mass * omega_larmor / (2.0 * math.pi * 1j * HBAR * s)
    coef = 1j * mass * omega_larmor / (2.0 * HBAR)
    kappa = coef * math.cos(omega_larmor * t) / s
    lam = -2.0 * kappa * d + 2.0 * coef * np.column_stack([r[:, 1], -r[:, 0]])
    const = kappa * np.sum(d * d, axis=1) - 2.0 * coef * (d[:, 0] * c[1] - d[:, 1] * c[0])
    return _propagate(params, pref, kappa, lam, const, quad or _PROP_QUAD)
