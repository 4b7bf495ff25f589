"""Expectation values by quadrature, plus Gaussian phase-space moments.

``expectation`` pushes a normal-ordered observable through the packet
analytically only in the trivial sense that derivatives of a Gaussian times
a polynomial stay polynomial; all coefficients of the packet enter as
opaque numbers, so the result is an honest numerical cross-check of any
closed-form moment.  ``wigner_fourth_moment`` integrates products of four
phase-space coordinates against a centered Gaussian with a given covariance
using tensor Gauss-Hermite quadrature; it never invokes the pairing formula
it is used to validate.

A packet's moment integrals all bisect the same box, so their rule passes
land on the same node grids.  The density there and the powers of the node
axes do not depend on the observable: ``expectation`` and
``norm_integral`` compute them once per grid and share them across the
packet's integrals, up to ``_MAX_GRIDS`` grids, with bit-for-bit the same
arithmetic as a fresh pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

import numpy as np

from ..constants import HBAR
from ..errors import InvalidParameterError
from ..packet import RealParams, density, first_moments
from .observables import Observable
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = ["expectation", "norm_integral", "integration_box", "wigner_fourth_moment"]

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


#: Node grids kept per packet.  Past it, a rule pass computes its density
#: and node powers afresh and stores nothing, which bounds the memory of an
#: integral that refines deeply (up to about 2.4 MB of 48-point grids).
_MAX_GRIDS = 128


class _Grid(NamedTuple):
    rho: np.ndarray  # density on the open node grid, (n, n), read-only
    vx: np.ndarray  # x^0 ... x^(k-1) on the x nodes, (n, k)
    vy: np.ndarray  # the same on the y nodes


@lru_cache(maxsize=1)
def _panels(params: RealParams) -> dict[tuple[bytes, bytes], _Grid]:
    """The shared grids of one packet, keyed by the bytes of their node axes.

    Only the latest packet is held, so a new packet frees the previous one's
    grids; a caller fetches the dict once per integral, so an eviction
    mid-integral cannot mix two packets.
    """
    return {}


def _grid(
    params: RealParams,
    panels: dict[tuple[bytes, bytes], _Grid],
    x: np.ndarray,
    y: np.ndarray,
    width: int,
) -> _Grid:
    """The pass's density and at least ``width`` powers of each node axis.

    ``np.vander`` builds its columns by a running product, so the first
    columns of a wider table are bit-identical to a narrower one.
    """
    key = (x[:, 0].tobytes(), y[0].tobytes())
    grid = panels.get(key)
    if grid is not None and grid.vx.shape[1] >= width:
        return grid
    if grid is None:
        rho = density(params, x[:, :1], y[:1, :])
        rho.flags.writeable = False
    else:
        rho = grid.rho
    fresh = _Grid(
        rho, np.vander(x[:, 0], width, increasing=True), np.vander(y[0], width, increasing=True)
    )
    if grid is not None or len(panels) < _MAX_GRIDS:
        panels[key] = fresh
    return fresh


def expectation(
    params: RealParams,
    obs: Observable,
    quad: QuadratureSpec | None = None,
    box: tuple[float, float, float, float] | None = None,
) -> complex:
    """Quadrature value of ``<psi| O |psi>`` for a normal-ordered observable.

    On each rule pass the polynomial is one matrix product over the node
    axes, ``(x^i) @ C @ (y^j)^T``, times the density on the open grid.  The
    density and the node powers are computed once per grid and shared with
    the packet's other integrals (see the module notes); the values are
    bit-for-bit those of a fresh pass.
    """
    quad = quad or QuadratureSpec()
    coeffs = _coefficient_matrix(_observable_polynomial(params, obs))
    n_x, n_y = coeffs.shape
    width = max(n_x, n_y)
    if box is None:
        box = integration_box(params, quad.half_width_sigmas)
    panels = _panels(params)

    def integrand(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        grid = _grid(params, panels, x, y, width)
        values = grid.vx[:, :n_x] @ coeffs @ grid.vy[:, :n_y].T
        values *= grid.rho  # in place: one (n, n) array per pass
        return values

    return integrate_adaptive(integrand, box, quad)


def norm_integral(params: RealParams, quad: QuadratureSpec | None = None) -> float:
    """Total probability by quadrature; should be 1 for any valid packet.

    The density on each grid is shared with the packet's ``expectation``
    integrals, as computed once per grid.
    """
    quad = quad or QuadratureSpec()
    box = integration_box(params, quad.half_width_sigmas)
    panels = _panels(params)
    return integrate_adaptive(lambda x, y: _grid(params, panels, x, y, 0).rho, box, quad).real


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
