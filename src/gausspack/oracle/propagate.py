"""Numerical time evolution through explicit propagator integrals.

Each function evaluates the evolved wavefunction at requested points as

    psi(r, t) = integral K(r, r'; t) psi(r', 0) d2r'

with the exact quadratic kernel of the corresponding Hamiltonian (free
particle, isotropic oscillator, uniform magnetic field in symmetric gauge).
For every target ``r_i`` each kernel factors as ``A_i(x') B_i(y')``, so one
adaptive quadrature over a stacked integrand serves all targets, and the
targets share one partition.  The integrand hands the rule the triple
``(A, psi, B)``, with ``psi`` not as values but as its Gaussian exponent
(:func:`~gausspack.oracle.moments.wavefunction_gaussian`: the coefficients
``-mu a``, ``-mu b``, ``-mu c``, ``f``, ``g`` and ``log N``).  The rule
evaluates it per panel (see :mod:`~gausspack.oracle.quadrature`), so a rule
pass for ``T`` targets on ``n x n`` nodes costs ``2 T n`` complex
exponentials for the kernel factors, one real ``exp`` over the nodes for
``|psi|``, two rows of ``n`` phases, one cached cross-phase matrix and one
``(T, n) x (n, n)`` matrix product; a complex exponential over the nodes
is taken only to fill a cache entry.  The checks compare these values with an evolution law's
wavefunction up to one phase, so the analytic laws are tested without
sharing any algebra with the kernels.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..constants import HBAR, MASS
from ..errors import InvalidParameterError
from ..packet import RealParams
from .moments import integration_box, wavefunction_gaussian
from .quadrature import Gaussian, QuadratureSpec, integrate_adaptive

__all__ = ["propagate_free", "propagate_oscillator", "propagate_magnetic"]

#: Quadrature defaults for propagator integrals: the integrands carry an
#: oscillatory kernel, so the budget is looser than for moment integrals.
_PROP_QUAD = QuadratureSpec(order=32, refined_order=48, abs_tol=1e-12, max_splits=8)

#: Maps the 1-D node axes ``xs`` and ``ys`` (shape ``(n,)``) to the
#: per-target kernel factors ``A`` and ``B`` (shape ``(T, n)``), with
#: ``K(r_i, (x', y')) = A[i](x') * B[i](y')``.  The rule contracts
#: ``(A, psi, B)`` with one ``(T, n) x (n, n)`` product per pass.
_Factors = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _target_axes(targets: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Target coordinates as ``(T, 1)`` arrays, ready to broadcast over a node axis."""
    pts = np.asarray(targets, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidParameterError(f"targets must be (x, y) pairs, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameterError("propagator targets must be finite")
    return pts[:, 0, None], pts[:, 1, None]


def _propagate(params: RealParams, factors: _Factors, quad: QuadratureSpec) -> np.ndarray:
    box = integration_box(params, quad.half_width_sigmas)
    psi = wavefunction_gaussian(params)

    def integrand(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, Gaussian, np.ndarray]:
        a, b = factors(xs[:, 0], ys[0, :])
        return a, psi, b

    return integrate_adaptive(integrand, box, quad)


def propagate_free(
    params: RealParams,
    t: float,
    targets: Sequence[tuple[float, float]],
    mass: float = MASS,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Free evolution of the packet, evaluated at ``targets``."""
    if t == 0:
        raise InvalidParameterError("propagator integral needs t != 0")
    x, y = _target_axes(targets)
    pref = mass / (2.0 * math.pi * 1j * HBAR * t)
    coef = 1j * mass / (2.0 * HBAR * t)

    def factors(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return pref * np.exp(coef * (x - xs) ** 2), np.exp(coef * (y - ys) ** 2)

    return _propagate(params, factors, quad or _PROP_QUAD)


def propagate_oscillator(
    params: RealParams,
    t: float,
    targets: Sequence[tuple[float, float]],
    omega: float,
    mass: float = MASS,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Isotropic-oscillator evolution of the packet, evaluated at ``targets``."""
    s = math.sin(omega * t)
    if abs(s) < 1e-6:
        raise InvalidParameterError(
            f"oscillator kernel is singular near focal times, sin(omega*t)={s}"
        )
    x, y = _target_axes(targets)
    c = math.cos(omega * t)
    pref = mass * omega / (2.0 * math.pi * 1j * HBAR * s)
    coef = 1j * mass * omega / (2.0 * HBAR * s)
    r2 = x * x + y * y

    def factors(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            pref * np.exp(coef * (c * (r2 + xs**2) - 2.0 * x * xs)),
            np.exp(coef * (c * ys**2 - 2.0 * y * ys)),
        )

    return _propagate(params, factors, quad or _PROP_QUAD)


def propagate_magnetic(
    params: RealParams,
    t: float,
    targets: Sequence[tuple[float, float]],
    omega_larmor: float,
    mass: float = MASS,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Evolution in a uniform magnetic field (symmetric gauge, no well).

    The cross term ``x y' - y x'`` of the kernel splits across the two
    factors, ``+2 y x'`` into ``A`` and ``-2 x y'`` into ``B``.
    """
    s = math.sin(omega_larmor * t)
    if abs(s) < 1e-6:
        raise InvalidParameterError(
            f"magnetic kernel is singular near focal times, sin(omega_L*t)={s}"
        )
    x, y = _target_axes(targets)
    cot = math.cos(omega_larmor * t) / s
    pref = mass * omega_larmor / (2.0 * math.pi * 1j * HBAR * s)
    coef = 1j * mass * omega_larmor / (2.0 * HBAR)

    def factors(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            pref * np.exp(coef * (cot * (x - xs) ** 2 + 2.0 * y * xs)),
            np.exp(coef * (cot * (y - ys) ** 2 - 2.0 * x * ys)),
        )

    return _propagate(params, factors, quad or _PROP_QUAD)
