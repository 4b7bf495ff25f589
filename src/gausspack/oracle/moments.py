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
the frame coefficients of each ``x^i y^j``, and ``width = max(3, d +
1)``; so the norm, the 4 first and 10 second moments and ``<L>`` share
the width-3 ``m_a`` and ``<L^2>`` takes the width-5 ones.  Each ``M[a,
b]`` meets ``abs_tol`` on its own, so an expectation's error is bounded
by ``sum_ab |C''[a, b]| err[a, b]`` (see :func:`expectation`).  A value
never reads the ``m_a`` of a wider width than its own, so it does not
depend on earlier calls.  Overlaps integrate in the same frame (see
:mod:`~gausspack.oracle.overlap`), and propagators take it further, to
the complex principal frame of ``K psi`` (see
:mod:`~gausspack.oracle.propagate`); both read ``(T, c)`` from the
packet's record, so this module alone chooses the frame.

Two caches hold what the values share.  Per spec and width: the ``m_a``
(:func:`_axis_moments`).  Per packet: one :class:`_PacketFrame` record
with ``s``, the frame ``(T, c)``, the coefficients of ``d(log psi)/dx``
and ``d(log psi)/dy``, each derivative polynomial ``psi^-1 Px^c Py^d
psi`` the packet's observables have asked for, and the frame powers of
each width.  An observable's ``P`` is then the sum of its terms'
derivative polynomials, each shifted by the term's ``x^a y^b``.  Each
cache keeps the last ``_CACHE_SIZE`` keys, so a round over more packets
than that builds every packet's record again.
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
    "wigner_fourth_moment",
]

#: The spec of every call that names none.
_DEFAULT_QUAD = QuadratureSpec()


#: Packet records and axis moments kept.  A packet takes one record, which
#: holds its derivative polynomials and frame powers too, so this holds four
#: packets; the axis moments depend only on the spec and the width (3 for
#: the first and second moments, <L> and the norm, 5 for <L^2>), so it
#: holds both widths of two specs.
_CACHE_SIZE = 4

#: ``((T00, T01), (T10, T11)), (cx, cy)``: the map ``x = c + T (xi, eta)``.
Frame = Tuple[Tuple[Tuple[float, float], Tuple[float, float]], Tuple[float, float]]

#: ``D[i][j]`` multiplies ``x^i y^j``; square, of side ``c + d + 1``.
Derivative = Tuple[Tuple[complex, ...], ...]


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


class _PacketFrame:
    """What every expectation of one packet shares; see the module docstring.

    ``frame`` is ``(T, c)``, ``scale`` is ``s``, and ``gradients`` holds
    ``(const, along_x, along_y)`` of the first-degree polynomials
    ``d(log psi)/dx`` and ``d(log psi)/dy``.  The derivative polynomials
    and frame powers are built on first use and kept with the record.
    """

    __slots__ = ("frame", "scale", "gradients", "_derivatives", "_powers")

    def __init__(self, params: RealParams):
        rotation, sigmas = _principal_axes(params)
        x0, y0, _, _ = first_moments(params)
        (t00, t01), (t10, t11) = (rotation * sigmas).tolist()
        self.frame: Frame = ((t00, t01), (t10, t11)), (x0, y0)
        # The density's own constant, log |det T| and the standard
        # normals' log 2 pi.
        self.scale = math.exp(
            math.log(params.mu * math.sqrt(params.delta) / math.pi)
            + math.log(sigmas[0])
            + math.log(sigmas[1])
            + math.log(2.0 * math.pi)
        )
        mu = params.mu
        a, b, c = params.quad_a, params.quad_b, params.quad_c
        self.gradients = (
            (params.lin_f, -2.0 * mu * a, -mu * b),
            (params.lin_g, -mu * b, -2.0 * mu * c),
        )
        self._derivatives: Dict[Tuple[int, int], Derivative] = {(0, 0): ((1.0 + 0j,),)}
        self._powers: Dict[int, np.ndarray] = {}

    def derivative(self, c: int, d: int) -> Derivative:
        """``psi^-1 Px^c Py^d psi``; see :func:`_derivative_polynomial`."""
        poly = self._derivatives.get((c, d))
        if poly is None:
            poly = self._derivatives[c, d] = _derivative_polynomial(self, c, d)
        return poly

    def powers(self, width: int) -> np.ndarray:
        """:func:`_frame_powers` of this frame as a ``(width^2, width^2)`` matrix."""
        powers = self._powers.get(width)
        if powers is None:
            powers = _frame_powers(self.frame, width).reshape(width * width, -1).astype(complex)
            powers.flags.writeable = False
            self._powers[width] = powers
        return powers


@lru_cache(maxsize=_CACHE_SIZE)
def _packet_frame(params: RealParams) -> _PacketFrame:
    """The packet's record, built once for as long as it stays cached."""
    return _PacketFrame(params)


def _derivative_polynomial(packet: _PacketFrame, c: int, d: int) -> Derivative:
    """Coefficients ``D[i][j]`` of ``psi^-1 Px^c Py^d psi = sum_ij D[i][j] x^i y^j``.

    For ``c > 0`` it is ``-i hbar (P g + dP/dx)``, with ``P`` that of
    ``(c - 1, d)`` and ``g = d(log psi)/dx``; for ``c = 0`` the same along
    ``y`` from ``(0, d - 1)``.  ``g`` is of first degree, so ``D`` has
    total degree ``c + d``.
    """
    along_x = c > 0
    prev = packet.derivative(c - 1, d) if along_x else packet.derivative(0, d - 1)
    step = -1j * HBAR
    const, gx, gy = (step * g for g in packet.gradients[0 if along_x else 1])
    n = len(prev)
    out = [[0j] * (n + 1) for _ in range(n + 1)]
    for i, row in enumerate(prev):
        for j, p in enumerate(row):
            out[i][j] += const * p
            out[i + 1][j] += gx * p
            out[i][j + 1] += gy * p
            if along_x and i:
                out[i - 1][j] += step * i * p
            elif not along_x and j:
                out[i][j - 1] += step * j * p
    return tuple(map(tuple, out))


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


def _frame_powers(frame: Frame, width: int) -> np.ndarray:
    """``F`` with ``x^i y^j = sum_ab F[i, j, a, b] xi^a eta^b`` for ``i + j < width``.

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
    return powers


def _observable_polynomial(packet: _PacketFrame, obs: Observable, width: int) -> np.ndarray:
    """Flat ``C`` with ``(O psi) / psi = sum_ij C[i width + j] x^i y^j``.

    Each term ``k x^a y^b Px^c Py^d`` adds ``k`` times the packet's
    derivative polynomial for ``(c, d)``, shifted by ``(a, b)``.
    """
    flat = [0j] * (width * width)
    for (a, b, c, d), k in obs:
        for i, row in enumerate(packet.derivative(c, d), a):
            start = i * width + b
            for j, value in enumerate(row, start):
                flat[j] += k * value
    return np.array(flat)


def expectation(
    params: RealParams, obs: Observable, quad: QuadratureSpec | None = None
) -> complex:
    """Quadrature value of ``<psi| O |psi>`` for a normal-ordered observable.

    ``(O psi) = P psi`` for a polynomial ``P(x, y) = sum_ij C[i, j] x^i y^j``
    of total degree ``d``, the sum of the packet's derivative polynomials
    ``psi^-1 Px^c Py^d psi`` of the observable's terms, each times its
    ``x^a y^b``.  In the packet's principal frame ``x = c + T (xi, eta)``,
    ``P`` becomes ``sum_ab C''[a, b] xi^a eta^b``, with ``C'' = sum_ij
    C[i, j] F[i, j]`` and ``F`` the frame coefficients of each ``x^i
    y^j``; the derivative polynomials and ``F`` are cached with the
    packet's record.  The value is ``s m^T C'' m``, that is ``sum_ab C''[a,
    b] M[a, b]`` with ``M[a, b] = s m_a m_b`` the packet's frame moment
    matrix of width ``max(3, d + 1)``: ``s`` is the packet's own density
    constant times ``|det T| 2 pi``, and ``m_a`` one cached 1-D integral
    per spec and width, shared by every packet and every observable of
    that width.  Each ``M[a, b]`` meets ``abs_tol`` on its own, so the
    value's error is bounded by ``sum_ab |C''[a, b]| err[a, b]``, not by
    ``abs_tol`` itself.
    """
    packet = _packet_frame(params)
    width = max(3, 1 + obs.degree)
    composed = _observable_polynomial(packet, obs, width) @ packet.powers(width)
    axis = _axis_moments(_DEFAULT_QUAD if quad is None else quad, width)
    return complex(packet.scale * composed.reshape(width, width).dot(axis).dot(axis))


def norm_integral(params: RealParams, quad: QuadratureSpec | None = None) -> float:
    """Total probability by quadrature; should be 1 for any valid packet.

    It is ``M[0, 0] = s m_0^2`` of the width-3 frame moments that the
    packet's first and second moments share, so it costs no integral of
    its own.
    """
    m0 = _axis_moments(_DEFAULT_QUAD if quad is None else quad, 3)[0]
    return float(_packet_frame(params).scale * (m0 * m0))


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
