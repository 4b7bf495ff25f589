"""Expectation values by quadrature, plus Gaussian phase-space moments.

``expectation`` pushes a normal-ordered observable through the packet
analytically only in the trivial sense that derivatives of a Gaussian times
a polynomial stay polynomial; all coefficients of the packet enter as
opaque numbers, so the result is an honest numerical cross-check of any
closed-form moment.  ``wigner_fourth_moment`` integrates products of four
phase-space coordinates against a centered Gaussian with a given covariance
using tensor Gauss-Hermite quadrature; it never invokes the pairing formula
it is used to validate.

A packet's moments all weigh the same density on the same box, so they
share one stacked adaptive integral: the matrix ``M`` of centred moments
``int (x - xc)^a (y - yc)^b rho`` about the box centre, for ``a, b <
width`` with ``width = max(3, n_x, n_y)`` set by the shape of the
observable's coefficient matrix.  An expectation is a binomial
re-expansion of its polynomial about the centre contracted with ``M``.
Each ``M[a, b]`` meets ``abs_tol`` on its own, so an expectation's error
is bounded by ``sum_ab |C'[a, b]| err[a, b]`` (see :func:`expectation`).
The last ``_CACHE_SIZE`` matrices are kept; a value is never read from a
wider matrix than its own width, so it does not depend on earlier calls.
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


def _coefficient_matrix(p: Poly) -> np.ndarray:
    """Dense matrix ``C`` with ``P(x, y) = sum_ij C[i, j] x^i y^j``."""
    coeffs = np.zeros(
        (1 + max((i for i, _ in p), default=0), 1 + max((j for _, j in p), default=0)),
        dtype=complex,
    )
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
    second, origin-centered function shares the grid).
    """
    x0, y0, _, _ = first_moments(params)
    r = math.hypot(params.alpha - params.gamma, 2.0 * params.beta)
    l_min = 0.5 * (params.alpha + params.gamma - r)
    sigma_max = 1.0 / math.sqrt(2.0 * params.mu * l_min)
    hw = half_width_sigmas * sigma_max + pad
    return (x0 - hw, x0 + hw, y0 - hw, y0 + hw)


#: Centred moment matrices kept.  A packet takes one entry per width (3 for
#: its first and second moments, <L> and the norm, 5 for <L^2>), so this
#: holds about two packets; a longer sweep recomputes, one integral a packet.
_CACHE_SIZE = 4


def _centre(box: tuple[float, float, float, float]) -> tuple[float, float]:
    x0, x1, y0, y1 = box
    return 0.5 * (x0 + x1), 0.5 * (y0 + y1)


@lru_cache(maxsize=_CACHE_SIZE)
def _centred_moments(
    params: RealParams,
    quad: QuadratureSpec,
    box: tuple[float, float, float, float],
    width: int,
) -> np.ndarray:
    """Read-only ``M[a, b] = int (x - xc)^a (y - yc)^b rho dx dy``, ``a, b < width``.

    ``(xc, yc)`` is the centre of ``box``.  All ``width**2`` moments are the
    components of one stacked adaptive integral: on each rule pass the
    integrand is the triple ``(Vx[a], rho, Vy[b])`` of the node powers
    about the centre and the density as a real :class:`Gaussian`, so they
    share one partition and ``abs_tol`` bounds each moment's summed error.
    """
    xc, yc = _centre(box)
    pa, pb = np.divmod(np.arange(width * width), width)
    rho = density_gaussian(params)

    def integrand(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Gaussian, np.ndarray]:
        vx = np.vander(x[:, 0] - xc, width, increasing=True).T
        vy = np.vander(y[0] - yc, width, increasing=True).T
        return vx[pa], rho, vy[pb]

    moments = integrate_adaptive(integrand, box, quad).reshape(width, width)
    moments.flags.writeable = False
    return moments


def _binomial_shift(centre: float, n: int, width: int) -> np.ndarray:
    """``S`` with ``x^i = sum_a S[a, i] (x - centre)^a``, shape ``(width, n)``."""
    shift = np.zeros((width, n))
    for i in range(n):
        for a in range(i + 1):
            shift[a, i] = math.comb(i, a) * centre ** (i - a)
    return shift


def expectation(
    params: RealParams,
    obs: Observable,
    quad: QuadratureSpec | None = None,
    box: tuple[float, float, float, float] | None = None,
) -> complex:
    """Quadrature value of ``<psi| O |psi>`` for a normal-ordered observable.

    ``(O psi) = P psi`` for a polynomial ``P(x, y) = sum_ij C[i, j] x^i y^j``.
    Re-expanded about the box centre, ``C' = Sx C Sy^T`` by the binomial
    theorem, and the value is ``sum_ab C'[a, b] M[a, b]`` with ``M`` the
    packet's centred moment matrix of width ``max(3, *C.shape)`` (one
    cached integral, shared with every observable of that width).  Each
    ``M[a, b]`` meets ``abs_tol`` on its own, so the value's error is
    bounded by ``sum_ab |C'[a, b]| err[a, b]``, not by ``abs_tol`` itself.
    """
    quad = quad or QuadratureSpec()
    coeffs = _coefficient_matrix(_observable_polynomial(params, obs))
    n_x, n_y = coeffs.shape
    width = max(3, n_x, n_y)
    box = tuple(box) if box is not None else integration_box(params, quad.half_width_sigmas)
    xc, yc = _centre(box)
    shifted = _binomial_shift(xc, n_x, width) @ coeffs @ _binomial_shift(yc, n_y, width).T
    return complex(np.sum(shifted * _centred_moments(params, quad, box, width)))


def norm_integral(params: RealParams, quad: QuadratureSpec | None = None) -> float:
    """Total probability by quadrature; should be 1 for any valid packet.

    It is ``M[0, 0]`` of the width-3 centred moment matrix that the
    packet's first and second moments share, so it costs no integral of
    its own.
    """
    quad = quad or QuadratureSpec()
    box = integration_box(params, quad.half_width_sigmas)
    return float(_centred_moments(params, quad, box, 3)[0, 0].real)


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
