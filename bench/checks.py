"""Correctness checks for the benchmark, computed by the benchmark itself.

Nothing here reuses a closed form of ``gausspack``: covariance matrices are
assembled from raw expectation values, invariants come from NumPy's
determinant and trace, classical trajectories are integrated with a
fourth-order Runge-Kutta step, and ladder statistics are summed directly
from the coefficients.  A check raises :class:`CheckError` when an answer is
wrong and :class:`Incomplete` when the program itself reports that its
answer is unfinished (a non-zero exit, a truncated expansion).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

#: Tolerance for quadrature and propagator results against closed forms.
ORACLE_TOL = 1e-8
#: Relative tolerance for closed-form identities and conserved quantities.
CLOSED_TOL = 1e-9

_J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


class CheckError(AssertionError):
    """An output disagrees with an independent computation or property."""


class Incomplete(CheckError):
    """The program reported its own answer as failed or unfinished."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(name: str, got: float, want: float, tol: float, scale: float = 1.0) -> None:
    """Require ``|got - want| <= tol * max(scale, |want|)``."""
    bound = tol * max(scale, abs(want))
    if not (abs(got - want) <= bound):  # also rejects NaN
        raise CheckError(f"{name}: got {got!r}, want {want!r} (tolerance {bound:.3g})")


# ---------------------------------------------------------------------------
# phase-space moments


def covariance_from_moments(first: Sequence[float], second: Mapping[tuple[int, int], float]) -> np.ndarray:
    """4x4 covariance in the order (x, y, px, py) from raw moments.

    ``second[(i, j)]`` for ``i <= j`` holds the symmetrised expectation
    ``<(xi_i xi_j + xi_j xi_i)/2>``.
    """
    mean = np.asarray(first, dtype=float)
    cov = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            cov[i, j] = cov[j, i] = second[(i, j)] - mean[i] * mean[j]
    return cov


def orbital_l(first: Sequence[float], cov: np.ndarray, hbar: float) -> float:
    """Mean angular momentum ``<x py - y px>`` in units of hbar."""
    x0, y0, px0, py0 = first
    return (x0 * py0 - y0 * px0 + cov[0, 3] - cov[1, 2]) / hbar


def oscillator_energy(first: Sequence[float], cov: np.ndarray, omega: float, mass: float) -> tuple[float, float]:
    """Centre and internal parts of ``<p^2/2m + m omega^2 r^2/2>``."""
    x0, y0, px0, py0 = first
    centre = (px0**2 + py0**2) / (2.0 * mass) + 0.5 * mass * omega**2 * (x0**2 + y0**2)
    internal = (cov[2, 2] + cov[3, 3]) / (2.0 * mass) + 0.5 * mass * omega**2 * (cov[0, 0] + cov[1, 1])
    return centre, internal


def hamiltonian_energy(law: str, first: Sequence[float], cov: np.ndarray, mass: float, hbar: float,
                       omega: float = 0.0, omega_larmor: float = 0.0) -> float:
    """``<H>`` for the laws of :func:`hamilton_matrix`, from the moments."""
    if law == "free":
        return sum(oscillator_energy(first, cov, 0.0, mass))
    if law == "oscillator":
        return sum(oscillator_energy(first, cov, omega, mass))
    w = omega_larmor
    return sum(oscillator_energy(first, cov, abs(w), mass)) - hbar * w * orbital_l(first, cov, hbar)


def axis_squeezing(cov: np.ndarray, omega: float, mass: float, hbar: float) -> tuple[float, float]:
    """Smallest position variance per axis that oscillator rotation reaches.

    Rotating the (q, p) ellipse of one axis brings its position variance
    down to the smaller eigenvalue of the scaled 2x2 block; the ratio to
    the ground-state variance ``hbar/(2 m omega)`` is the squeezing factor.
    """
    out = []
    s = math.sqrt(mass * omega)
    for q, p in ((0, 2), (1, 3)):
        block = np.array([[cov[q, q] * s * s, cov[q, p]], [cov[q, p], cov[p, p] / (s * s)]])
        out.append(float(np.linalg.eigvalsh(block)[0]) / (0.5 * hbar))
    return out[0], out[1]


def pure_state_invariants(cov: np.ndarray, hbar: float) -> tuple[float, float]:
    """``(det V, (hbar^2/2) tr((J V)^2))``: ``hbar^4/16`` and ``-hbar^4/2`` when pure."""
    jv = _J @ cov
    return float(np.linalg.det(cov)), 0.5 * hbar**2 * float(np.trace(jv @ jv))


def check_pure_state(name: str, cov: np.ndarray, hbar: float, tol: float) -> None:
    """A pure Gaussian state has ``D0 = hbar^4/16`` and ``D2 = -hbar^4/2``.

    The tolerance scales with the Hadamard bound of the matrix, since a
    determinant formed from large entries carries their rounding.
    """
    d0, d2 = pure_state_invariants(cov, hbar)
    hadamard = float(np.prod(np.diag(cov)))
    close(f"{name} D0", d0, hbar**4 / 16.0, tol, scale=hadamard)
    close(f"{name} D2", d2, -(hbar**4) / 2.0, tol, scale=hadamard)


def check_moments(
    norm: float,
    first: Sequence[float],
    cov: np.ndarray,
    closed_first: Sequence[float],
    closed_cov: np.ndarray,
    hbar: float,
    tol: float = ORACLE_TOL,
) -> None:
    """Quadrature norm, means and covariances against the closed forms."""
    close("norm", norm, 1.0, tol)
    for name, got, want in zip(("x0", "y0", "px0", "py0"), first, closed_first):
        close(name, got, want, tol)
    for i in range(4):
        for j in range(i, 4):
            close(f"cov[{i},{j}]", cov[i, j], closed_cov[i, j], tol)
    check_pure_state("quadrature covariance", cov, hbar, tol)


# ---------------------------------------------------------------------------
# propagation


def check_phase_ratio(numeric: np.ndarray, closed: np.ndarray, tol: float = ORACLE_TOL) -> None:
    """Propagated samples equal the closed form times one unit phase factor."""
    numeric = np.asarray(numeric, dtype=complex)
    closed = np.asarray(closed, dtype=complex)
    require(numeric.shape == closed.shape and numeric.size > 0, "sample shapes differ")
    ratio = numeric / closed
    modulus = float(np.max(np.abs(np.abs(ratio) - 1.0)))
    require(modulus <= tol, f"|propagated/closed| deviates from 1 by {modulus:.3g}")
    spread = float(np.max(np.abs(ratio - ratio.flat[0])))
    require(spread <= tol, f"phase of propagated/closed varies by {spread:.3g}")


def hamilton_matrix(law: str, mass: float, omega: float = 0.0, omega_larmor: float = 0.0) -> np.ndarray:
    """Matrix A of Hamilton's equations ``dz/dt = A z`` for z = (x, y, px, py).

    ``"magnetic"`` is the symmetric-gauge field Hamiltonian
    ``p^2/2m + m wL^2 r^2/2 - wL (x py - y px)`` with no trap.
    """
    a = np.zeros((4, 4))
    a[0, 2] = a[1, 3] = 1.0 / mass
    if law == "oscillator":
        a[2, 0] = a[3, 1] = -mass * omega**2
    elif law == "magnetic":
        w = omega_larmor
        a[0, 1], a[1, 0] = w, -w
        a[2, 0] = a[3, 1] = -mass * w**2
        a[2, 3], a[3, 2] = w, -w
    elif law != "free":
        raise ValueError(f"unknown law {law!r}")
    return a


def classical_trajectory(z0: Sequence[float], a: np.ndarray, t: float, rate: float = 1.0) -> np.ndarray:
    """Integrate ``dz/dt = A z`` to time t with classical RK4 steps."""
    steps = max(400, int(math.ceil(abs(t) * max(rate, 1.0) * 400)))
    h = t / steps
    ha = h * a
    eye = np.eye(4)
    # One RK4 step of a linear system is this polynomial in hA.
    step = eye + ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    z = np.asarray(z0, dtype=float)
    for _ in range(steps):
        z = step @ z
    return z


def check_centre(centre: Sequence[float], expected: Sequence[float], tol: float = ORACLE_TOL) -> None:
    for name, got, want in zip(("x0", "y0", "px0", "py0"), centre, expected):
        close(f"centre {name}", got, want, tol)


# ---------------------------------------------------------------------------
# mode ladders


def ladder_stats(coeffs: Mapping[tuple[int, int], complex]) -> tuple[float, float, float]:
    """Total probability, mean and variance of the winding number m."""
    probs = [(m, abs(c) ** 2) for (_, m), c in coeffs.items()]
    total = math.fsum(p for _, p in probs)
    mean = math.fsum(m * p for m, p in probs)
    second = math.fsum(m * m * p for m, p in probs)
    return total, mean, second - mean * mean


#: Rounding allowance on a ladder's total probability: the package stops a
#: ladder on a running sum, which can sit a few ulps of 1 away from the
#: exactly rounded total.
LADDER_ROUNDING = 64 * np.finfo(float).eps


def check_ladder(total: float, mean_l: float, expected_l: float, tail: float, tol: float = 1e-8) -> None:
    """A ladder must hold all but ``tail`` of the probability and the right mean L."""
    if not (total >= 1.0 - tail - LADDER_ROUNDING):
        raise Incomplete(f"ladder holds total probability {total!r} < 1 - {tail:g}")
    require(total <= 1.0 + 1e-12, f"ladder probability {total!r} exceeds 1")
    close("ladder mean L", mean_l, expected_l, tol)


def check_conserved(name: str, values: Iterable[float], tol: float = CLOSED_TOL) -> None:
    values = list(values)
    require(len(values) > 0, f"{name}: empty trajectory")
    for k, value in enumerate(values):
        close(f"{name} at point {k}", value, values[0], tol)


def check_trajectory(name: str, moments: Sequence[tuple], energy: Callable[[Sequence[float], np.ndarray], float],
                     hbar: float, tol: float = CLOSED_TOL) -> None:
    """Along a trajectory of (means, covariance) pairs L, energy, D0 and D2 are
    conserved, and the state stays pure (D0 = hbar^4/16)."""
    check_conserved(f"{name} L", [orbital_l(f, c, hbar) for f, c in moments], tol)
    check_conserved(f"{name} energy", [energy(f, c) for f, c in moments], tol)
    invariants = [pure_state_invariants(c, hbar) for _, c in moments]
    close(f"{name} D0", invariants[0][0], hbar**4 / 16.0, tol)
    check_conserved(f"{name} D0", [d0 for d0, _ in invariants], tol)
    check_conserved(f"{name} D2", [d2 for _, d2 in invariants], tol)


# ---------------------------------------------------------------------------
# command line


def check_landmarks(doc: Mapping[str, float], tol: float = 1e-12) -> None:
    """``fluct --Li 0.125 --optimum``: L = 13/8, sigma_L = 33/32, e = 1/sqrt(2)."""
    close("L_total", doc["L_total"], 13.0 / 8.0, tol)
    close("sigma_L", doc["sigma_L"], 33.0 / 32.0, tol)
    close("eccentricity", doc["eccentricity"], 1.0 / math.sqrt(2.0), tol)
