"""Numerical time evolution through explicit propagator integrals.

Each function evaluates the evolved wavefunction at requested points as

    psi(r, t) = integral K(r, r'; t) psi(r', 0) d2r'

with the exact quadratic kernel of the corresponding Hamiltonian (free
particle, isotropic oscillator, uniform magnetic field in symmetric gauge).
For every target ``r_i`` each kernel factors as ``A_i(x') B_i(y')``, so one
adaptive quadrature over a stacked integrand serves all targets, and the
targets share one partition.  The integrand hands the rule the factors
``(A, psi, B)`` rather than their ``(T, n, n)`` product, so a rule pass
costs one ``psi`` evaluation on the ``n x n`` nodes, ``2 T n``
exponentials and one ``(T, n) x (n, n)`` matrix product for ``T`` targets.
``fit_gaussian_exponent`` then recovers packet parameters from sampled
values by a linear least-squares fit to ``log psi``, giving a closed loop
that checks analytic evolution laws without sharing any algebra with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..constants import HBAR, MASS
from ..errors import InvalidParameterError, ToleranceError
from ..packet import RealParams, wavefunction
from .moments import integration_box
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = [
    "propagate_free",
    "propagate_oscillator",
    "propagate_magnetic",
    "FitResult",
    "fit_gaussian_exponent",
]

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

    def integrand(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = factors(xs[:, 0], ys[0, :])
        return a, wavefunction(params, xs[:, :1], ys[:1, :]), b

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


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Gaussian exponent fit.

    ``params`` is the packet reconstructed from the fitted exponent (the
    global constant, i.e. overall normalization and phase, is discarded);
    ``residual`` is the worst absolute defect of the quadratic model of
    ``log psi`` over the sample grid, which for genuinely Gaussian data is
    limited only by quadrature noise.
    """

    params: RealParams
    center: tuple[float, float]
    spacing: tuple[float, float]
    residual: float


def _grid(
    center: tuple[float, float], hx: float, hy: float, n: int
) -> list[tuple[float, float]]:
    cx, cy = center
    return [
        (cx + hx * (i - n), cy + hy * (j - n))
        for i in range(2 * n + 1)
        for j in range(2 * n + 1)
    ]


def fit_gaussian_exponent(
    sample: Callable[[Sequence[tuple[float, float]]], np.ndarray],
    center_guess: tuple[float, float],
    sigma_guess: float,
    mu: float,
    n: int = 4,
    max_rescale: int = 6,
) -> FitResult:
    """Recover packet parameters from sampled wavefunction values.

    ``sample`` maps a list of (x, y) points to complex wavefunction values.
    The routine first locates the density centroid and width on a coarse
    grid around ``center_guess``, then fits ``log psi`` on a finer grid with
    a full quadratic model and converts the six complex coefficients back
    to the eleven packet parameters at the given scale ``mu``.
    """
    if sigma_guess <= 0 or mu <= 0:
        raise InvalidParameterError("sigma_guess and mu must be positive")

    # Coarse pass: locate the centroid and measure per-axis widths from
    # density moments.  A propagated packet can be extremely anisotropic
    # (one axis through a focus while the other spreads), so each axis gets
    # its own window, resized until it spans a few measured widths; a
    # window far wider than the packet would push sample points below the
    # quadrature noise floor and poison the exponent fit.
    center = center_guess
    ext_x = ext_y = 3.0 * sigma_guess
    for _ in range(2 * max_rescale):
        pts = _grid(center, ext_x / 3.0, ext_y / 3.0, 3)
        vals = sample(pts)
        w = np.abs(vals) ** 2
        total = float(np.sum(w))
        if total <= 0:
            raise ToleranceError("no density found near the requested center")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        cx = float(np.dot(w, xs) / total)
        cy = float(np.dot(w, ys) / total)
        sigma_x = math.sqrt(max(float(np.dot(w, (xs - cx) ** 2) / total), 1e-300))
        sigma_y = math.sqrt(max(float(np.dot(w, (ys - cy) ** 2) / total), 1e-300))
        center = (cx, cy)
        # Aim for a window of six measured widths; the measurement is
        # biased toward the grid spacing while unresolved, so iterate.
        ok = True
        if not (ext_x / 12.0 <= sigma_x <= ext_x / 3.0):
            ext_x = min(max(6.0 * sigma_x, ext_x / 4.0), 4.0 * ext_x)
            ok = False
        if not (ext_y / 12.0 <= sigma_y <= ext_y / 3.0):
            ext_y = min(max(6.0 * sigma_y, ext_y / 4.0), 4.0 * ext_y)
            ok = False
        if ok:
            break
    else:
        raise ToleranceError("could not bracket the packet with the coarse grid")

    # Fine pass: sample a (2n+1)^2 grid and fit the quadratic exponent,
    # halving a spacing while that axis' phase steps are too big to unwrap.
    hx = 0.35 * sigma_x
    hy = 0.35 * sigma_y
    for _ in range(max_rescale):
        pts = _grid(center, hx, hy, n)
        vals = np.asarray(sample(pts)).reshape(2 * n + 1, 2 * n + 1)
        phase = np.angle(vals)
        steps = [np.diff(phase, axis=0), np.diff(phase, axis=1)]
        wrapped = [(s + math.pi) % (2.0 * math.pi) - math.pi for s in steps]
        fast_x = float(np.max(np.abs(wrapped[0]))) >= 0.45 * math.pi
        fast_y = float(np.max(np.abs(wrapped[1]))) >= 0.45 * math.pi
        if not fast_x and not fast_y:
            break
        if fast_x:
            hx *= 0.5
        if fast_y:
            hy *= 0.5
    else:
        raise ToleranceError("phase varies too fast to unwrap on the fit grid")

    phase = np.unwrap(np.unwrap(phase, axis=0), axis=1)
    logs = (np.log(np.abs(vals)) + 1j * phase).ravel()

    dx = np.repeat(np.array([hx * (k - n) for k in range(2 * n + 1)]), 2 * n + 1)
    dy = np.tile(np.array([hy * (k - n) for k in range(2 * n + 1)]), 2 * n + 1)
    design = np.column_stack(
        [np.ones_like(dx), dx, dy, dx**2, dx * dy, dy**2]
    ).astype(complex)
    coeffs, *_ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - logs)))

    _, lin_x, lin_y, q_xx, q_xy, q_yy = coeffs
    cx, cy = center
    # Shift the linear coefficients from grid-relative to absolute coordinates.
    lin_x_abs = lin_x - 2.0 * q_xx * cx - q_xy * cy
    lin_y_abs = lin_y - 2.0 * q_yy * cy - q_xy * cx

    fitted = RealParams(
        mu=mu,
        alpha=-2.0 * q_xx.real / mu,
        beta=-q_xy.real / mu,
        gamma=-2.0 * q_yy.real / mu,
        chi_a=-q_xx.imag / mu,
        chi_c=-q_yy.imag / mu,
        rho=-q_xy.imag / mu,
        f1=lin_x_abs.real,
        f2=lin_x_abs.imag,
        g1=lin_y_abs.real,
        g2=lin_y_abs.imag,
    )
    return FitResult(params=fitted, center=center, spacing=(hx, hy), residual=residual)
