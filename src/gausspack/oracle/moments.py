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
packet's widths, tilt or displacement, so one square ``[-h, h]^2`` with
``h = half_width_sigmas`` serves every packet, one split of it meets the
budget (10 rule passes), and the absolute ``abs_tol`` acts as a relative
budget on moments of order 1.  All moments share one stacked adaptive
integral: the matrix ``M[a, b] = int xi^a eta^b rho~`` for ``a + b <
width``.  An
observable's polynomial ``P`` of total degree ``d`` is composed with the
map into ``sum_ab C''[a, b] xi^a eta^b``, from the frame coefficients of
each ``x^i y^j``, cached per packet, and ``width = max(3, d + 1)``; so the
norm, the 4 first and 10 second moments and ``<L>`` share one width-3
matrix and ``<L^2>`` takes a width-5 one.  Each ``M[a, b]`` meets
``abs_tol`` on its own, so an expectation's error is bounded by ``sum_ab
|C''[a, b]| err[a, b]`` (see :func:`expectation`).  The last
``_CACHE_SIZE`` matrices are kept; a value is never read from a wider
matrix than its own width, so it does not depend on earlier calls.
Propagators take the same frame further, to the complex principal frame of
``K psi`` (see :mod:`~gausspack.oracle.propagate`); only overlaps still
integrate over :func:`integration_box`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..constants import HBAR
from ..errors import InvalidParameterError
from ..packet import RealParams, first_moments, log_normalization
from .observables import Observable
from .quadrature import Gaussian, QuadratureSpec, integrate_adaptive

__all__ = [
    "expectation",
    "norm_integral",
    "integration_box",
    "density_gaussian",
    "wavefunction_gaussian",
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


def wavefunction_gaussian(params: RealParams) -> Gaussian:
    """The packet's wavefunction as a quadrature :class:`Gaussian`.

    ``psi = exp(-mu (a x^2 + b x y + c y^2) + f x + g y + log N)``, the
    expression :func:`~gausspack.packet.wavefunction` evaluates.  ``log N``
    is taken directly, so a packet displaced so far that ``N`` underflows
    still has a finite exponent.
    """
    mu = params.mu
    return Gaussian(
        -mu * params.quad_a,
        -mu * params.quad_b,
        -mu * params.quad_c,
        params.lin_f,
        params.lin_g,
        complex(log_normalization(params)),
    )


def density_gaussian(params: RealParams) -> Gaussian:
    """The packet's density ``|psi|^2`` as a real quadrature :class:`Gaussian`.

    Twice the real part of :func:`wavefunction_gaussian`'s exponent,
    written about the centroid ``(x0, y0)`` where its linear part vanishes:
    ``log(mu sqrt(delta) / pi) - mu (alpha u^2 + 2 beta u v + gamma v^2)``,
    the expression :func:`~gausspack.packet.density` evaluates.  About the
    origin instead, a far-displaced, strongly correlated packet's density
    would lose digits to cancellation between its quadratic and linear terms.
    """
    mu = params.mu
    x0, y0, _, _ = first_moments(params)
    return Gaussian(
        -mu * params.alpha,
        -2.0 * mu * params.beta,
        -mu * params.gamma,
        0.0,
        0.0,
        math.log(mu * math.sqrt(params.delta) / math.pi),
        x0,
        y0,
    )


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


#: Frames, moment matrices and frame powers kept.  A packet takes one
#: moment matrix and one power table per width (3 for its first and second
#: moments, <L> and the norm, 5 for <L^2>), so this holds about two packets;
#: a longer sweep recomputes, one integral a packet.
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
def _frame_moments(
    params: RealParams, quad: QuadratureSpec, frame: Frame, width: int
) -> np.ndarray:
    """Read-only ``M[a, b] = int xi^a eta^b rho~ dxi deta`` for ``a + b < width``.

    ``rho~(xi, eta) = rho(c + T (xi, eta)) |det T|`` is the density in the
    ``frame`` ``(T, c)``; entries with ``a + b >= width`` are 0.  Its
    exponent is :func:`density_gaussian`'s under the map: no linear term,
    the constant plus ``log |det T|``, and the quadratic form ``T^T A T``
    with ``A = mu [[alpha, beta], [beta, gamma]]``.  ``A`` is taken in its
    factored form ``T0^-T T0^-1 / 2`` through the principal frame ``T0``,
    so ``T^T A T = G^T G / 2`` with ``G = T0^-1 T``; the rule never
    evaluates the lab-frame form, whose entries cancel to ``eps`` times
    the condition number on a long, tilted packet.  The box is centred on
    the density and spans ``half_width_sigmas`` of its standard deviation
    along each frame axis, ``sqrt(diag(T^-1 Sigma T^-T))`` with ``Sigma``
    the density's covariance; in the principal frame it is
    ``[-h, h]^2``.  All moments are the components of one stacked adaptive
    integral whose integrand is the triple ``(xi^a, rho~, eta^b)``.
    """
    rotation, sigmas = _principal_axes(params)
    rho = density_gaussian(params)
    t_matrix, origin = np.array(frame[0]), np.array(frame[1])
    g_matrix = (rotation.T @ t_matrix) / sigmas[:, None]
    (g00, g01), (g10, g11) = g_matrix
    det_g = g00 * g11 - g01 * g10
    g_inverse = np.array([[g11, -g01], [-g10, g00]]) / det_g
    offset = np.array([rho.x0, rho.y0]) - origin
    xi0, eta0 = g_inverse @ ((rotation.T @ offset) / sigmas)
    form = 0.5 * g_matrix.T @ g_matrix
    log_det = math.log(sigmas[0]) + math.log(sigmas[1]) + math.log(abs(det_g))
    core = Gaussian(
        float(-form[0, 0]), float(-2.0 * form[0, 1]), float(-form[1, 1]),
        0.0, 0.0, rho.const + log_det, float(xi0), float(eta0),
    )
    hx, hy = quad.half_width_sigmas * np.sqrt(np.sum(g_inverse**2, axis=1))
    box = (xi0 - hx, xi0 + hx, eta0 - hy, eta0 + hy)
    pa, pb = np.nonzero(np.add.outer(np.arange(width), np.arange(width)) < width)

    def integrand(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Gaussian, np.ndarray]:
        vx = np.vander(x[:, 0], width, increasing=True).T
        vy = np.vander(y[0], width, increasing=True).T
        return vx[pa], core, vy[pb]

    moments = np.zeros((width, width))
    moments[pa, pb] = integrate_adaptive(integrand, box, quad).real
    moments.flags.writeable = False
    return moments


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


def _frame_expectation(
    params: RealParams, obs: Observable, quad: QuadratureSpec, frame: Frame
) -> complex:
    """``<psi| O |psi>`` through the moment matrix of ``frame``; see :func:`expectation`."""
    poly = _observable_polynomial(params, obs)
    width = max(3, 1 + max((i + j for i, j in poly), default=0))
    coeffs = _coefficient_matrix(poly, width).reshape(-1)
    composed = coeffs @ _frame_powers(frame, width).reshape(width * width, -1)
    return complex(composed @ _frame_moments(params, quad, frame, width).reshape(-1))


def expectation(
    params: RealParams, obs: Observable, quad: QuadratureSpec | None = None
) -> complex:
    """Quadrature value of ``<psi| O |psi>`` for a normal-ordered observable.

    ``(O psi) = P psi`` for a polynomial ``P(x, y) = sum_ij C[i, j] x^i y^j``
    of total degree ``d``.  In the packet's principal frame ``x = c + T
    (xi, eta)``, ``P`` becomes ``sum_ab C''[a, b] xi^a eta^b``, with
    ``C'' = sum_ij C[i, j] F[i, j]`` and ``F`` the frame coefficients of
    each ``x^i y^j`` (cached per packet), and the value is ``sum_ab
    C''[a, b] M[a, b]`` with ``M`` the packet's frame moment matrix of width
    ``max(3, d + 1)`` (one cached integral, shared with every observable of
    that width).  Each ``M[a, b]`` meets ``abs_tol`` on its own, so the
    value's error is bounded by ``sum_ab |C''[a, b]| err[a, b]``, not by
    ``abs_tol`` itself.
    """
    quad = quad or QuadratureSpec()
    return _frame_expectation(params, obs, quad, _principal_frame(params))


def norm_integral(params: RealParams, quad: QuadratureSpec | None = None) -> float:
    """Total probability by quadrature; should be 1 for any valid packet.

    It is ``M[0, 0]`` of the width-3 frame moment matrix that the packet's
    first and second moments share, so it costs no integral of its own.
    """
    quad = quad or QuadratureSpec()
    return float(_frame_moments(params, quad, _principal_frame(params), 3)[0, 0])


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
