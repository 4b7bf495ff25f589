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
zeta``, ``zeta = (xi, eta)``: ``T = R diag(sigma_1, sigma_2)`` holds the
principal axes and standard deviations of the density, read from
``alpha``, ``beta``, ``gamma`` and ``mu`` as the density's own exponent
is, and ``c = 2 T T^T (f1, g1)`` is where that exponent is stationary,
since the density's covariance is ``T T^T``.  There the density is a
standard normal, whatever the packet's widths, tilt or displacement, so
every moment ``M[a, b] = int xi^a eta^b rho~`` factors: ``M[a, b] = s
m_a m_b`` with ``m_a = int xi^a exp(-xi^2 / 2) / sqrt(2 pi) dxi`` over
``[-h, h]``, ``h = half_width_sigmas``, and ``s`` the density's own
constant times ``|det T| 2 pi``, which is 1 up to rounding.  The ``m_a``
for ``a < width`` are the components of one stacked adaptive 1-D
integral that depends only on the :class:`QuadratureSpec` and the width,
so it is computed once and serves every packet; the absolute ``abs_tol``
acts as a relative budget on moments of order 1.  An observable's
polynomial ``(O psi) / psi = sum_ab C''[a, b] xi^a eta^b`` of total
degree ``d`` reads the moments of ``width = max(3, d + 1)``; so the norm,
the 4 first and 10 second moments and ``<L>`` share the width-3 ``m_a``
and ``<L^2>`` takes the width-5 ones.  ``C''`` is written in ``zeta``
from the start, as the sum of the observable's term polynomials (see
:func:`_term_polynomial`).  Each ``M[a, b]`` meets ``abs_tol`` on its
own, so an expectation's error is bounded by ``sum_ab |C''[a, b]| err[a,
b]`` (see :func:`expectation`).  A value never reads the ``m_a`` of a
wider width than its own, so it does not depend on earlier calls.
Overlaps integrate in the same frame (see
:mod:`~gausspack.oracle.overlap`), and propagators take it further, to
the complex principal frame of ``K psi`` (see
:mod:`~gausspack.oracle.propagate`); both read ``(T, c)`` from the
packet's record, so this module alone chooses the frame.

Two caches hold what the values share.  Per spec and width: the ``m_a``
(:func:`_axis_moments`).  Per packet: one :class:`_PacketFrame` record
with ``s``, the frame ``(T, c)``, the linear forms and derivatives the
term polynomials are built from, and each term polynomial the packet's
observables have asked for.  Each cache keeps the last ``_CACHE_SIZE``
keys, so a round over more packets than that builds every packet's
record again.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..constants import HBAR
from ..errors import InvalidParameterError
from ..packet import RealParams
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
#: holds its term polynomials too, so this holds four packets; the axis
#: moments depend only on the spec and the width (3 for the first and
#: second moments, <L> and the norm, 5 for <L^2>), so it holds both widths
#: of two specs.
_CACHE_SIZE = 4

#: ``((T00, T01), (T10, T11)), (cx, cy)``: the map ``x = c + T (xi, eta)``.
Frame = Tuple[Tuple[Tuple[float, float], Tuple[float, float]], Tuple[float, float]]

#: ``(const, along_xi, along_eta)``: ``const + along_xi xi + along_eta eta``.
Form = Tuple[complex, complex, complex]

#: ``P[a][b]`` multiplies ``xi^a eta^b``; square, of side the degree plus 1.
Poly = Tuple[Tuple[complex, ...], ...]


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

    ``frame`` is ``(T, c)`` and ``scale`` is ``s``.  ``forms`` holds the
    :data:`Form` in ``zeta`` of ``x``, ``y``, ``d(log psi)/dx`` and ``d(log
    psi)/dy``, and ``derivatives`` the ``(d/dxi, d/deta)`` coefficients of
    ``d/dx`` and ``d/dy``.  The term polynomials are built on first use and
    kept with the record.
    """

    __slots__ = ("frame", "scale", "forms", "derivatives", "_terms")

    def __init__(self, params: RealParams):
        rotation, sigmas = _principal_axes(params)
        (r00, r01), (r10, r11) = rotation.tolist()
        s0, s1 = sigmas.tolist()
        t00, t01, t10, t11 = r00 * s0, r01 * s1, r10 * s0, r11 * s1
        # The density's covariance is T T^T, so its exponent is stationary
        # at 2 T T^T (f1, g1).
        u0 = params.f1 * t00 + params.g1 * t10
        u1 = params.f1 * t01 + params.g1 * t11
        cx, cy = 2.0 * (t00 * u0 + t01 * u1), 2.0 * (t10 * u0 + t11 * u1)
        self.frame: Frame = ((t00, t01), (t10, t11)), (cx, cy)
        # The density's own constant, log |det T| and the standard
        # normals' log 2 pi.
        self.scale = math.exp(
            math.log(params.mu * math.sqrt(params.delta) / math.pi)
            + math.log(s0)
            + math.log(s1)
            + math.log(2.0 * math.pi)
        )
        # d(log psi)/dx = F - 2 mu a x - mu b y and d(log psi)/dy = G - mu b x
        # - 2 mu c y, with x and y the forms below.
        mu = params.mu
        xx, xy = -2.0 * mu * params.quad_a, -mu * params.quad_b
        yy = -2.0 * mu * params.quad_c
        self.forms: Tuple[Form, Form, Form, Form] = (
            (cx, t00, t01),
            (cy, t10, t11),
            (params.lin_f + xx * cx + xy * cy, xx * t00 + xy * t10, xx * t01 + xy * t11),
            (params.lin_g + xy * cx + yy * cy, xy * t00 + yy * t10, xy * t01 + yy * t11),
        )
        # The columns of T^-1 = diag(1 / sigma) R^T.
        self.derivatives = ((r00 / s0, r01 / s1), (r10 / s0, r11 / s1))
        self._terms: Dict[Tuple[int, ...], Poly] = {(0, 0, 0, 0): ((1.0 + 0j,),)}

    def term(self, key: Tuple[int, ...]) -> Poly:
        """``psi^-1 x^a y^b Px^c Py^d psi``; see :func:`_term_polynomial`."""
        poly = self._terms.get(key)
        if poly is None:
            poly = self._terms[key] = _term_polynomial(self, key)
        return poly


@lru_cache(maxsize=_CACHE_SIZE)
def _packet_frame(params: RealParams) -> _PacketFrame:
    """The packet's record, built once for as long as it stays cached."""
    return _PacketFrame(params)


def _times(poly: Poly, form: Form, derivative: Tuple[float, float] = (0.0, 0.0),
           factor: complex = 1.0) -> Poly:
    """``factor (form P + derivative . grad P)`` in ``zeta``, of one degree more than ``P``."""
    const, along_xi, along_eta = (factor * f for f in form)
    d_xi, d_eta = (factor * d for d in derivative)
    n = len(poly)
    out = [[0j] * (n + 1) for _ in range(n + 1)]
    for i, row in enumerate(poly):
        for j, p in enumerate(row):
            out[i][j] += const * p
            out[i + 1][j] += along_xi * p
            out[i][j + 1] += along_eta * p
            if i:
                out[i - 1][j] += d_xi * i * p
            if j:
                out[i][j - 1] += d_eta * j * p
    return tuple(map(tuple, out))


def _term_polynomial(packet: _PacketFrame, key: Tuple[int, ...]) -> Poly:
    """``psi^-1 x^a y^b Px^c Py^d psi`` in ``zeta``, from the term one step smaller.

    ``x`` and ``y`` multiply by their forms; ``Px`` maps ``P`` to ``-i
    hbar (g_x P + dP/dx)``, with ``g_x = d(log psi)/dx`` a form too and
    ``d/dx`` taken along the first column of ``T^-1``, and ``Py`` the same
    along ``y``; each step is one :func:`_times`.  Positions act last, so
    ``a`` comes off first, then ``b``, ``c`` and ``d``.
    """
    a, b, c, d = key
    x, y, gx, gy = packet.forms
    if a:
        return _times(packet.term((a - 1, b, c, d)), x)
    if b:
        return _times(packet.term((0, b - 1, c, d)), y)
    if c:
        return _times(packet.term((0, 0, c - 1, d)), gx, packet.derivatives[0], -1j * HBAR)
    return _times(packet.term((0, 0, 0, d - 1)), gy, packet.derivatives[1], -1j * HBAR)


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


def _observable_polynomial(packet: _PacketFrame, obs: Observable, width: int) -> np.ndarray:
    """``C''`` with ``(O psi) / psi = sum_ab C''[a, b] xi^a eta^b``, ``(width, width)``.

    Each term ``k x^a y^b Px^c Py^d`` adds ``k`` times the packet's term
    polynomial.
    """
    flat = [0j] * (width * width)
    for key, k in obs:
        for i, row in enumerate(packet.term(key)):
            for j, value in enumerate(row, i * width):
                flat[j] += k * value
    return np.array(flat).reshape(width, width)


def expectation(
    params: RealParams, obs: Observable, quad: QuadratureSpec | None = None
) -> complex:
    """Quadrature value of ``<psi| O |psi>`` for a normal-ordered observable.

    ``(O psi) = P psi`` for a polynomial ``P`` of total degree ``d``.  In
    the packet's principal frame ``x = c + T (xi, eta)`` it is ``sum_ab
    C''[a, b] xi^a eta^b``, the sum of the observable's term polynomials,
    each built in the frame and cached with the packet's record.  The
    value is ``s m^T C'' m``, that is ``sum_ab C''[a, b] M[a, b]`` with
    ``M[a, b] = s m_a m_b`` the packet's frame moment matrix of width
    ``max(3, d + 1)``: ``s`` is the packet's own density constant times
    ``|det T| 2 pi``, and ``m_a`` one cached 1-D integral per spec and
    width, shared by every packet and every observable of that width.
    Each ``M[a, b]`` meets ``abs_tol`` on its own, so the value's error is
    bounded by ``sum_ab |C''[a, b]| err[a, b]``, not by ``abs_tol``
    itself.
    """
    packet = _packet_frame(params)
    width = max(3, 1 + obs.degree)
    composed = _observable_polynomial(packet, obs, width)
    axis = _axis_moments(_DEFAULT_QUAD if quad is None else quad, width)
    return complex(packet.scale * composed.dot(axis).dot(axis))


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
