"""Expectation values by quadrature, plus Gaussian phase-space moments.

``expectation`` pushes a normal-ordered observable through the packet
analytically only in the trivial sense that derivatives of a Gaussian times
a polynomial stay polynomial; all coefficients of the packet enter as
opaque numbers, so the result is an honest numerical cross-check of any
closed-form moment.  ``wigner_fourth_moment`` integrates products of four
phase-space coordinates against a centered Gaussian with a given covariance
using tensor Gauss-Hermite quadrature; it never invokes the pairing formula
it is used to validate.

A packet's moments are integrated in its principal frame, ``x = c + T
(xi, eta)``: ``c`` is the centroid and ``T = R diag(sigma_1, sigma_2)``
holds the principal axes and standard deviations of the density, read
from ``alpha``, ``beta``, ``gamma`` and ``mu`` as the density's own
exponent is.  There the density is a standard normal, whatever the
packet's widths, tilt or displacement, and it has no cross term, so
every moment ``M[a, b] = int xi^a eta^b rho~`` factors into 1-D
integrals: ``M[a, b] = s m_a m_b`` with ``m_a = int xi^a exp(-xi^2 / 2)
/ sqrt(2 pi) dxi`` over ``[-h, h]``, ``h = half_width_sigmas``, and
``s`` the density's own constant times ``|det T| 2 pi``, which is 1 up to
rounding.  The ``m_a`` for ``a < width`` are the components of one
stacked adaptive 1-D integral that depends only on the
:class:`QuadratureSpec` and the width, so it is computed once and serves
every packet; the absolute ``abs_tol`` acts as a relative budget on
moments of order 1.  An observable's polynomial ``P`` of total degree
``d`` is composed with the map into ``sum_ab C''[a, b] xi^a eta^b``, from
the frame coefficients of each ``x^i y^j``, cached per packet, and
``width = max(3, d + 1)``; so the norm, the 4 first and 10 second moments
and ``<L>`` share the width-3 ``m_a`` and ``<L^2>`` takes the width-5
ones.  Each ``M[a, b]`` meets ``abs_tol`` on its own, so an expectation's
error is bounded by ``sum_ab |C''[a, b]| err[a, b]`` (see
:func:`expectation`).  A value never reads the ``m_a`` of a wider width
than its own, so it does not depend on earlier calls.  Propagators take
the same frame further, to the complex principal frame of ``K psi`` (see
:mod:`~gausspack.oracle.propagate`); only overlaps still integrate over
:func:`integration_box`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..constants import HBAR
from ..errors import InvalidParameterError
from ..packet import RealParams, first_moments
from .observables import Observable
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = [
    "expectation",
    "norm_integral",
    "integration_box",
    "wigner_fourth_moment",
]

Poly = Dict[Tuple[int, int], complex]


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _poly_dx(p: Poly) -> Poly:
    return {(i - 1, j): i * c for (i, j), c in p.items() if i > 0}


def _poly_dy(p: Poly) -> Poly:
    return {(i, j - 1): j * c for (i, j), c in p.items() if j > 0}


def _poly_add(p: Poly, q: Poly, scale: complex = 1.0) -> Poly:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0.0) + scale * c
    return out


def _coefficient_matrix(p: Poly, width: int) -> np.ndarray:
    """``(width, width)`` matrix ``C`` with ``P(x, y) = sum_ij C[i, j] x^i y^j``."""
    coeffs = np.zeros((width, width), dtype=complex)
    for (i, j), c in p.items():
        coeffs[i, j] = c
    return coeffs


def _log_gradients(params: RealParams) -> tuple[Poly, Poly]:
    """First-degree polynomials for d(log psi)/dx and d(log psi)/dy."""
    mu = params.mu
    a, b, c = params.quad_a, params.quad_b, params.quad_c
    gx: Poly = {(0, 0): params.lin_f, (1, 0): -2.0 * mu * a, (0, 1): -mu * b}
    gy: Poly = {(0, 0): params.lin_g, (0, 1): -2.0 * mu * c, (1, 0): -mu * b}
    return gx, gy


def _observable_polynomial(params: RealParams, obs: Observable) -> Poly:
    """Polynomial P with ``(O psi)(x, y) = P(x, y) * psi(x, y)``."""
    gx, gy = _log_gradients(params)
    total: Poly = {}
    for (a, b, c, d), coeff in obs:
        p: Poly = {(0, 0): 1.0}
        for _ in range(d):
            p = _poly_add(_poly_mul(p, gy), _poly_dy(p))
            p = {key: -1j * HBAR * val for key, val in p.items()}
        for _ in range(c):
            p = _poly_add(_poly_mul(p, gx), _poly_dx(p))
            p = {key: -1j * HBAR * val for key, val in p.items()}
        shifted = {(i + a, j + b): val for (i, j), val in p.items()}
        total = _poly_add(total, shifted, scale=coeff)
    return total


def integration_box(
    params: RealParams, half_width_sigmas: float = 8.5, pad: float = 0.0
) -> tuple[float, float, float, float]:
    """A rectangle centered on the packet that captures its density tails.

    The half-width is a multiple of the largest principal standard
    deviation of ``|psi|^2``; ``pad`` adds an absolute margin (useful when a
    second, origin-centered function shares the grid).  Only overlaps
    integrate over it; moments use the principal frame and propagators the
    complex principal frame instead.
    """
    x0, y0, _, _ = first_moments(params)
    r = math.hypot(params.alpha - params.gamma, 2.0 * params.beta)
    l_min = 0.5 * (params.alpha + params.gamma - r)
    sigma_max = 1.0 / math.sqrt(2.0 * params.mu * l_min)
    hw = half_width_sigmas * sigma_max + pad
    return (x0 - hw, x0 + hw, y0 - hw, y0 + hw)


#: Frames, frame powers and axis moments kept.  A packet takes one frame
#: and one power table per width (3 for its first and second moments, <L>
#: and the norm, 5 for <L^2>), so this holds about two packets; the axis
#: moments depend only on the spec and the width, so it holds both widths of
#: two specs.
_CACHE_SIZE = 4

#: ``((T00, T01), (T10, T11)), (cx, cy)``: the map ``x = c + T (xi, eta)``.
Frame = Tuple[Tuple[Tuple[float, float], Tuple[float, float]], Tuple[float, float]]


def _principal_axes(params: RealParams) -> tuple[np.ndarray, np.ndarray]:
    """``(R, sigma)``: the rotation to the principal axes of ``rho`` and its
    standard deviations along them, ``sigma_i = 1 / sqrt(2 lambda_i)``.

    ``lambda_i`` are the eigenvalues of ``mu [[alpha, beta], [beta,
    gamma]]``.  The larger comes without cancellation; the smaller is
    ``mu^2 delta / lambda_1``, so the frame shares ``delta`` with the
    density's normalisation instead of losing about ``eps`` times the
    condition number to the difference ``alpha + gamma - r``.
    """
    mu, alpha, beta, gamma = params.mu, params.alpha, params.beta, params.gamma
    big = 0.5 * mu * (alpha + gamma + math.hypot(alpha - gamma, 2.0 * beta))
    small = mu * mu * params.delta / big
    angle = 0.5 * math.atan2(2.0 * beta, alpha - gamma)
    cos, sin = math.cos(angle), math.sin(angle)
    rotation = np.array([[cos, -sin], [sin, cos]])
    sigmas = np.array([1.0 / math.sqrt(2.0 * big), 1.0 / math.sqrt(2.0 * small)])
    return rotation, sigmas


@lru_cache(maxsize=_CACHE_SIZE)
def _principal_frame(params: RealParams) -> Frame:
    """``T = R diag(sigma)`` and the centroid: ``rho`` is a standard normal in it."""
    rotation, sigmas = _principal_axes(params)
    x0, y0, _, _ = first_moments(params)
    (t00, t01), (t10, t11) = (rotation * sigmas).tolist()
    return ((t00, t01), (t10, t11)), (x0, y0)


@lru_cache(maxsize=_CACHE_SIZE)
def _axis_moments(quad: QuadratureSpec, width: int) -> np.ndarray:
    """Read-only ``m_a = int xi^a exp(-xi^2 / 2) / sqrt(2 pi) dxi`` over ``[-h, h]``.

    ``h = half_width_sigmas``.  All ``m_a`` with ``a < width`` are the
    components of one stacked adaptive 1-D integral.  ``M[a, b] = s m_a m_b`` must meet
    ``abs_tol`` for ``a + b < width``.  With ``s`` about 1 and ``|m_a| <=
    (a - 1)!!``, the standard normal's ``a``-th absolute moment bound, an
    error ``eps`` in each ``m_a`` moves ``M[a, b]`` by at most ``2 eps``
    times the largest ``(a - 1)!!``, ``(width - 2)!!``, to first order; so
    each ``m_a`` gets ``abs_tol / (2 (width - 2)!!)``.
    """
    h = quad.half_width_sigmas
    largest = math.prod(range(width - 2, 0, -2))
    axis_spec = replace(quad, abs_tol=quad.abs_tol / (2.0 * largest))

    def integrand(x: np.ndarray) -> np.ndarray:
        weight = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return np.vander(x, width, increasing=True).T * weight

    moments = integrate_adaptive(integrand, (-h, h), axis_spec).real
    moments.flags.writeable = False
    return moments


def _frame_moments(params: RealParams, quad: QuadratureSpec, width: int) -> np.ndarray:
    """``M[a, b] = int xi^a eta^b rho~ dxi deta = s m_a m_b`` in the principal frame.

    ``rho~(xi, eta) = rho(c + T (xi, eta)) |det T|`` is the density in the
    principal frame ``(T, c)``: ``s exp(-(xi^2 + eta^2) / 2) / (2 pi)``
    with ``s = exp(log(mu sqrt(delta) / pi) + log sigma_1 + log sigma_2 +
    log 2 pi)``, the density's own constant, ``log |det T|`` and the
    standard normals' ``log 2 pi``; ``s`` is 1 up to rounding.  Only the
    entries with ``a + b < width`` are moments an observable of that width
    reads: its frame coefficients ``C''[a, b]`` vanish for ``a + b >=
    width``.  ``m_a`` are :func:`_axis_moments`.
    """
    _, sigmas = _principal_axes(params)
    scale = math.exp(
        math.log(params.mu * math.sqrt(params.delta) / math.pi)
        + math.log(sigmas[0])
        + math.log(sigmas[1])
        + math.log(2.0 * math.pi)
    )
    axis = _axis_moments(quad, width)
    return scale * np.outer(axis, axis)


@lru_cache(maxsize=_CACHE_SIZE)
def _frame_powers(frame: Frame, width: int) -> np.ndarray:
    """Read-only ``F`` with ``x^i y^j = sum_ab F[i, j, a, b] xi^a eta^b`` for ``i + j < width``.

    ``x = cx + T00 xi + T01 eta`` and ``y = cy + T10 xi + T11 eta``; each
    power is the previous one times that linear form.  Entries with
    ``i + j >= width`` are 0.
    """
    ((t00, t01), (t10, t11)), (cx, cy) = frame

    def times(p: np.ndarray, const: float, along_xi: float, along_eta: float) -> np.ndarray:
        out = const * p
        out[..., 1:, :] += along_xi * p[..., :-1, :]
        out[..., :, 1:] += along_eta * p[..., :, :-1]
        return out

    powers = np.zeros((width,) * 4)
    powers[0, 0, 0, 0] = 1.0
    for j in range(1, width):
        powers[0, j] = times(powers[0, j - 1], cy, t10, t11)
    for i in range(1, width):
        powers[i] = times(powers[i - 1], cx, t00, t01)
    powers[np.add.outer(np.arange(width), np.arange(width)) >= width] = 0.0
    powers.flags.writeable = False
    return powers


def expectation(
    params: RealParams, obs: Observable, quad: QuadratureSpec | None = None
) -> complex:
    """Quadrature value of ``<psi| O |psi>`` for a normal-ordered observable.

    ``(O psi) = P psi`` for a polynomial ``P(x, y) = sum_ij C[i, j] x^i y^j``
    of total degree ``d``.  In the packet's principal frame ``x = c + T
    (xi, eta)``, ``P`` becomes ``sum_ab C''[a, b] xi^a eta^b``, with
    ``C'' = sum_ij C[i, j] F[i, j]`` and ``F`` the frame coefficients of
    each ``x^i y^j`` (cached per packet), and the value is ``sum_ab
    C''[a, b] M[a, b]`` with ``M[a, b] = s m_a m_b`` the packet's frame
    moment matrix of width ``max(3, d + 1)``: ``s`` is the packet's own
    density constant times ``|det T| 2 pi``, and ``m_a`` one cached 1-D
    integral per spec and width, shared by every packet and every
    observable of that width.  Each ``M[a, b]`` meets ``abs_tol`` on its
    own, so the value's error is bounded by ``sum_ab |C''[a, b]| err[a,
    b]``, not by ``abs_tol`` itself.
    """
    quad = quad or QuadratureSpec()
    poly = _observable_polynomial(params, obs)
    width = max(3, 1 + max((i + j for i, j in poly), default=0))
    coeffs = _coefficient_matrix(poly, width).reshape(-1)
    powers = _frame_powers(_principal_frame(params), width)
    composed = coeffs @ powers.reshape(width * width, -1)
    return complex(composed @ _frame_moments(params, quad, width).reshape(-1))


def norm_integral(params: RealParams, quad: QuadratureSpec | None = None) -> float:
    """Total probability by quadrature; should be 1 for any valid packet.

    It is ``M[0, 0]`` of the width-3 frame moment matrix that the packet's
    first and second moments share, so it costs no integral of its own.
    """
    quad = quad or QuadratureSpec()
    return float(_frame_moments(params, quad, 3)[0, 0])


@lru_cache(maxsize=8)
def _hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


def wigner_fourth_moment(
    cov: np.ndarray, indices: tuple[int, int, int, int], order: int = 20
) -> float:
    """Fourth moment ``E[xi_i xi_j xi_k xi_l]`` of a centered Gaussian.

    Computed by a 4D tensor Gauss-Hermite rule after a Cholesky change of
    variables, deliberately avoiding any pairing/contraction formula.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise InvalidParameterError(f"covariance must be 4x4, got {cov.shape}")
    if len(indices) != 4:
        raise InvalidParameterError(f"need exactly four component indices, got {indices}")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError("covariance matrix is not positive definite") from exc

    t, w = _hermite_nodes(order)
    grids = np.meshgrid(t, t, t, t, indexing="ij")
    z = np.stack([g.ravel() for g in grids])  # (4, order^4), standard-normal / sqrt2
    xi = math.sqrt(2.0) * (chol @ z)
    weight = (
        w[:, None, None, None]
        * w[None, :, None, None]
        * w[None, None, :, None]
        * w[None, None, None, :]
    ).ravel()
    product = np.ones_like(weight)
    for idx in indices:
        product = product * xi[idx]
    return float(np.dot(weight, product) / math.pi**2)
