"""Expansion of rotating packets over oscillator angular-momentum modes.

The natural basis for a two-dimensional isotropic oscillator consists of
modes with definite energy ``hbar omega (1 + |m| + 2 n_r)`` and definite
angular momentum ``m hbar``.  A minimal rotating packet has closed-form
expansion coefficients in this basis, with strikingly different structure
depending on whether the center orbits with or against the internal
rotation: co-rotating packets populate a single radial quantum number
through Hermite polynomials of a complex argument, while counter-rotating
packets spread over both quantum numbers.  This module implements the mode
functions, all four coefficient families (the circular-coherent, centered-
deformed and vacuum cases are single rows of the counter-rotating lattice,
which computes them), the probability generating function, and summary
statistics derived from the expansion.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, Tuple

import numpy as np

from ._record import Record
from .constants import HBAR
from .errors import InvalidParameterError, ToleranceError
from .minimal import MinPacketSpec
from .special import hermite_scaled, log_factorial

__all__ = [
    "LGMode",
    "lg_mode_eval",
    "FockCoefficients",
    "coherent_coeffs",
    "squeezed_coeffs",
    "corotating_coeffs",
    "antirotating_coeffs",
    "fock_coefficients",
    "generating_function",
    "generating_derivatives",
    "pk_asymptotic",
]


@dataclass(frozen=True)
class LGMode(Record, name="mode"):
    """Oscillator eigenmode with radial index ``n_r`` and winding ``m``.

    Normalized so that the squared modulus integrates to one at scale
    ``mu`` (inverse squared oscillator length).
    """

    n_r: int
    m: int
    mu: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_r < 0:
            raise InvalidParameterError(f"n_r must be a non-negative integer, got {self.n_r}")
        if self.mu <= 0:
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")

    def energy(self, omega: float) -> float:
        """Eigenenergy ``hbar omega (1 + |m| + 2 n_r)``."""
        return HBAR * omega * (1 + abs(self.m) + 2 * self.n_r)

    @property
    def rms_radius(self) -> float:
        """Root-mean-square radius, useful for sizing integration boxes."""
        return math.sqrt((2 * self.n_r + abs(self.m) + 1) / self.mu)

    def __call__(self, x, y) -> np.ndarray:
        return lg_mode_eval(self.n_r, self.m, self.mu, x, y)


def lg_mode_eval(n_r: int, m: int, mu: float, x, y) -> np.ndarray:
    """Evaluate a normalized oscillator angular-momentum mode on a grid.

    Works at arbitrarily large quantum numbers: the radial power, Gaussian
    weight and normalization are folded into the Laguerre recurrence, so
    every intermediate is an order-one orthonormal radial kernel rather
    than a separately overflowing polynomial value and weight.
    """
    mode = LGMode(n_r=n_r, m=m, mu=mu)  # validates arguments
    n_r, m, mu = mode.n_r, mode.m, mode.mu
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m_abs = abs(m)
    r2 = x**2 + y**2
    arg = mu * r2
    # psi_0 = arg^(m/2) e^(-arg/2) / sqrt(m!), assembled in log space.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_psi0 = 0.5 * (m_abs * np.log(arg) - arg) - 0.5 * log_factorial(m_abs)
    psi = np.where(arg > 0.0, np.exp(log_psi0), 1.0 if m_abs == 0 else 0.0)
    if n_r > 0:
        prev = np.zeros_like(psi)
        for n in range(n_r):
            psi, prev = (
                (2 * n + 1 + m_abs - arg) * psi / math.sqrt((n + 1) * (n + 1 + m_abs))
                - math.sqrt(n * (n + m_abs) / ((n + 1) * (n + 1 + m_abs))) * prev,
                psi,
            )
    amplitude = math.sqrt(mu / math.pi) * psi
    if m == 0:
        return amplitude.astype(complex)
    # exp(i m atan2(y, x)) as ((x +- i y)/r)^|m| by repeated squaring, with
    # the sign of m; the unit is 1 at the origin, where atan2 gives 0.
    r = np.sqrt(r2)
    at_origin = r == 0.0
    unit = (x + math.copysign(1.0, m) * 1j * y) * (1.0 / (r + at_origin)) + at_origin
    value, k = amplitude, m_abs
    while k:
        if k & 1:
            value = value * unit
        unit, k = unit * unit, k >> 1
    return value


@dataclass(frozen=True)
class FockCoefficients:
    """Expansion ``psi = sum c[n_r, m] |n_r, m>`` over oscillator modes.

    ``residual`` is ``1 - sum |c|^2`` over the stored coefficients - the
    probability left in truncated tails.  Statistics methods use the stored
    probabilities without renormalizing, so a sloppy truncation shows up in
    the numbers rather than being hidden.
    """

    kind: str
    coeffs: Dict[Tuple[int, int], complex]
    residual: float

    def __getitem__(self, key: Tuple[int, int]) -> complex:
        return self.coeffs.get((int(key[0]), int(key[1])), 0.0 + 0.0j)

    def items(self):
        return self.coeffs.items()

    def probabilities(self) -> Dict[Tuple[int, int], float]:
        return {key: abs(c) ** 2 for key, c in self.coeffs.items()}

    @property
    def total_probability(self) -> float:
        return self._moments()[0]

    def angular_momentum_stats(self) -> tuple[float, float]:
        """Mean (units hbar) and variance (units hbar^2) of angular momentum."""
        _, mean, second = self._moments()
        return HBAR * mean, HBAR**2 * (second - mean**2)

    def energy_stats(self, omega: float) -> tuple[float, float]:
        """Mean and variance of the oscillator energy from the mode ladder."""
        _, mean, second = self._moments(energy=True)
        scale = HBAR * omega
        return scale * mean, scale**2 * (second - mean**2)

    def _moments(self, energy: bool = False) -> tuple[float, float, float]:
        """Sums of ``p``, ``x p`` and ``x^2 p``: x is m, or with ``energy`` 1 + |m| + 2n."""
        size = len(self.coeffs)
        n, m = np.fromiter(chain.from_iterable(self.coeffs), np.int64, 2 * size).reshape(-1, 2).T
        p = np.abs(np.fromiter(self.coeffs.values(), complex, size)) ** 2
        x = 1 + np.abs(m) + 2 * n if energy else m
        small = p < _NEGLIGIBLE
        return _exact_sum(p, small), _exact_sum(x * p, small), _exact_sum(x * x * p, small)


def _truncation(tail: float, max_terms: int) -> None:
    if not (0 < tail < 1):
        raise InvalidParameterError(f"tail must be in (0, 1), got {tail}")
    if max_terms < 1:
        raise InvalidParameterError(f"max_terms must be >= 1, got {max_terms}")


def coherent_coeffs(
    l_c_abs: float,
    sign_c: int = 1,
    v: float = 0.0,
    tail: float = 1e-12,
    max_terms: int = 10_000,
) -> FockCoefficients:
    """Coefficients of an undeformed packet on a circular orbit.

    Pure Poissonian ladder in the winding number:
    ``c[0, sign_c k] = l_c^(k/2)/sqrt(k!) exp(-l_c/2) exp(-i k sign_c v)``,
    computed as the single row (eta = 0) of :func:`antirotating_coeffs`.
    """
    spec = MinPacketSpec(l_i_abs=0.0, l_c_abs=l_c_abs, sign_c=sign_c, v=v)
    return replace(antirotating_coeffs(spec, tail, max_terms), kind="coherent")


def squeezed_coeffs(
    l_i_abs: float,
    sign_i: int = 1,
    u: float = 0.0,
    tail: float = 1e-12,
    max_terms: int = 10_000,
) -> FockCoefficients:
    """Coefficients of a centered rotating packet (no orbital motion).

    Only even windings of one sense appear:
    ``c[0, 2k sign_i] = (-1)^k (1-eta^2)^(1/4) eta^k sqrt((2k)!)/(2^k k!)
    exp(-i k sign_i u)``, computed as the single row (l_c = 0) of
    :func:`antirotating_coeffs`.
    """
    spec = MinPacketSpec(l_i_abs=l_i_abs, sign_i=sign_i, u=u)
    return replace(antirotating_coeffs(spec, tail, max_terms), kind="squeezed")


def corotating_coeffs(
    spec: MinPacketSpec, tail: float = 1e-12, max_terms: int = 10_000
) -> FockCoefficients:
    """Coefficients of a packet whose center orbits with its internal rotation.

    All population sits at radial index zero; the winding ladder is

        c[0, sign k] = (1-eta^2)^(1/4) eta^(k/2) exp(-i sign u k / 2)
                       * H_k(B)/sqrt(2^k k!) * exp(-l_c (1 + eta cos 2w)/2)

    with the complex Hermite argument
    ``B = (eta e^(iw) + e^(-iw)) sqrt(l_c / (2 eta))``, stopped once less
    than ``tail`` is missing or at ``max_terms`` terms; a Hermite value
    beyond the float range before that raises :class:`ToleranceError`.
    The centered and circular limits are computed by
    :func:`antirotating_coeffs`, as single rows.
    """
    _truncation(tail, max_terms)
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != spec.sign_c:
        raise InvalidParameterError(
            "corotating expansion needs matching senses; use antirotating_coeffs"
        )
    if spec.l_i_abs == 0 or spec.l_c_abs == 0:
        return replace(antirotating_coeffs(spec, tail, max_terms), kind="corotating")

    eta = spec.eta
    lam = spec.sign_i
    w = spec.w
    l_c = spec.l_c_abs
    b_arg = (eta * cmath.exp(1j * w) + cmath.exp(-1j * w)) * math.sqrt(
        l_c / (2.0 * eta)
    )
    pref = (1.0 - eta**2) ** 0.25 * math.exp(-0.5 * l_c * (1.0 + eta * math.cos(2.0 * w)))

    coeffs: Dict[Tuple[int, int], complex] = {}
    total = 0.0
    kmax = 64
    while True:
        kmax = min(kmax, max_terms - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            hermites = hermite_scaled(kmax, b_arg)
        coeffs.clear()
        total = 0.0
        for k in range(kmax + 1):
            if not cmath.isfinite(hermites[k]):
                raise ToleranceError(
                    f"corotating ladder: H_k(B)/sqrt(2^k k!) overflows at index {k} "
                    f"(|B| = {abs(b_arg):.6g}) with {1.0 - total:.3g} of the probability missing"
                )
            c = (
                pref
                * eta ** (0.5 * k)
                * cmath.exp(-0.5j * lam * spec.u * k)
                * hermites[k]
            )
            coeffs[(0, lam * k)] = c
            total += abs(c) ** 2
            if 1.0 - total < tail and k > 4:
                break
        if 1.0 - total < tail or kmax >= max_terms - 1:
            break
        kmax *= 2
    return FockCoefficients(kind="corotating", coeffs=coeffs, residual=1.0 - total)


#: Grid rows of the antirotating ladder computed per block, which bounds the
#: size of the temporary arrays and lists.
_ROW_BLOCK = 16

#: Probabilities below this are summed in floating point before the exact
#: sum of the rest: even 2**50 of them stay under 2**-60, below half an ulp
#: of a total near one.
_NEGLIGIBLE = 2.0**-110


def _exact_sum(terms: np.ndarray, small: np.ndarray) -> float:
    """Sum of ``terms`` over ladder cells, correctly rounded in practice.

    :func:`math.fsum` slows down as the dynamic range of its inputs grows,
    and most cells of a wide ladder hold probabilities many orders of
    magnitude below any that can change a total near one.  The terms of
    those cells, marked by ``small``, are pre-summed in one float, so only
    the rest go through ``fsum``.
    """
    return math.fsum([*terms[~small].tolist(), float(terms[small].sum())])


def antirotating_coeffs(
    spec: MinPacketSpec, tail: float = 1e-12, max_terms: int = 10_000
) -> FockCoefficients:
    """Coefficients of a packet orbiting against its internal rotation.

    Both quantum numbers are populated.  With ``lam = sign_i = -sign_c``,
    ``B1 = sqrt(l_c eta / 2) e^(iw)`` and the global phase
    ``phi = l_c eta sin(2w)/2``, the coefficient at radial index n and
    winding ``lam * m`` is

        (1-eta^2)^(1/4) e^(i phi - l_c/2) (-B1)^n / sqrt(n! (n+|m|)!)
        * (eta/2)^(m/2) e^(-i lam u m/2) H_(m+n)(0)        for m >= 0
        * l_c^(|m|/2) e^(i lam |m| v) H_n(0)               for m < 0

    so only terms with ``m + n`` even (for m >= 0) or n even (for m < 0)
    survive.

    The ladder is filled on a grid ``0 <= n <= n_max``, ``|m| <= m_span``
    that starts at ``n_max = m_span = 16`` and doubles both until the stored
    probability is within ``tail`` of one or the grid has at least
    ``max_terms`` computed cells; the whole last grid is stored.
    ``max_terms`` therefore counts grid cells, of which about half vanish,
    not stored terms.  Only the cells the formula can fill are computed:
    ``l_c = 0`` leaves ``m >= 0``, ``l_i = 0`` leaves ``m <= 0``, and
    either leaves the single row ``n = 0`` of :func:`squeezed_coeffs` and
    :func:`coherent_coeffs`.  Each grid is computed as arrays, a block of
    rows at a time: log-magnitudes from a table of log factorials, grown
    with the grid, on the cells whose Hermite index is even, then the
    phases.  Terms whose magnitude underflows to zero are not stored.  Keys
    are ``(n, lam * m)`` in the order of n, then of m from ``-m_span`` up.
    """
    _truncation(tail, max_terms)
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != -spec.sign_c:
        raise InvalidParameterError(
            "antirotating expansion needs opposite senses; use corotating_coeffs"
        )
    lam = spec.sign_i if spec.l_i_abs > 0 else -spec.sign_c
    eta = spec.eta
    l_c = spec.l_c_abs
    w = lam * (spec.v - 0.5 * spec.u)
    # Per-cell log-magnitude and phase, in the order of the formula above:
    # log_mag = log_pref + n log_b1 - (log n! + log (n+|m|)!)/2
    #           + |m| log_m/2 + log |H_k(0)|
    # phase = phi + n (pi + w) + m dphase_m.
    log_pref = 0.25 * math.log(1.0 - eta**2) - 0.5 * l_c
    phi = 0.5 * l_c * eta * math.sin(2.0 * w)
    # A zero B1 leaves only the n = 0 row, a zero eta only m <= 0, and a
    # zero l_c only m >= 0; the logs of those zeros are then never used.
    log_b1 = 0.5 * math.log(l_c * eta / 2.0) if l_c * eta > 0 else 0.0
    log_m_pos = math.log(eta / 2.0) if eta > 0 else 0.0
    log_m_neg = math.log(l_c) if l_c > 0 else 0.0
    dphase_pos = -(0.5 * lam * spec.u)
    dphase_neg = -lam * spec.v

    n_max, m_span = 16, 16
    log_fact = np.empty(0)
    while True:
        windings = np.arange(-m_span, m_span + 1)
        if eta == 0.0:
            windings = windings[windings <= 0]
        if l_c == 0.0:
            windings = windings[windings >= 0]
        rows = n_max + 1 if l_c * eta > 0 else 1
        # Factorial and Hermite indices reach (rows - 1) + m_span.
        if log_fact.size < rows + m_span:
            log_fact = np.append(
                log_fact, [math.lgamma(k + 1) for k in range(log_fact.size, rows + m_span)]
            )
        blocks: deque[tuple[np.ndarray, np.ndarray, np.ndarray]] = deque()
        for first in range(0, rows, _ROW_BLOCK):
            n_block = np.arange(first, min(first + _ROW_BLOCK, rows))[:, None]
            hermite = np.where(windings >= 0, n_block + windings, n_block)
            n_idx, m_idx = np.nonzero(hermite % 2 == 0)
            n, m, k = n_block[n_idx, 0], windings[m_idx], hermite[n_idx, m_idx]
            m_abs = np.abs(m)
            positive = m >= 0
            log_mag = (
                log_pref
                + n * log_b1
                - 0.5 * (log_fact[n] + log_fact[n + m_abs])
                + 0.5 * m_abs * np.where(positive, log_m_pos, log_m_neg)
                + (log_fact[k] - log_fact[k // 2])
            )
            amp = np.exp(log_mag)
            amp[(k // 2) % 2 == 1] *= -1.0
            kept = amp != 0.0
            n, m, amp, positive = n[kept], m[kept], amp[kept], positive[kept]
            phase = phi + n * (math.pi + w) + m * np.where(positive, dphase_pos, dphase_neg)
            c = np.empty(amp.shape, dtype=complex)
            c.real = amp * np.cos(phase)
            c.imag = amp * np.sin(phase)
            blocks.append((n, lam * m, c))
        probabilities = np.concatenate([np.abs(c) ** 2 for _, _, c in blocks])
        total = _exact_sum(probabilities, probabilities < _NEGLIGIBLE)
        if 1.0 - total < tail or rows * windings.size >= max_terms:
            break
        n_max *= 2
        m_span *= 2
    # Only the last grid becomes a dict, one block at a time.
    coeffs: Dict[Tuple[int, int], complex] = {}
    while blocks:
        n, m, c = blocks.popleft()
        coeffs.update(zip(zip(n.tolist(), m.tolist()), c.tolist()))
    return FockCoefficients(kind="antirotating", coeffs=coeffs, residual=1.0 - total)


def fock_coefficients(
    spec: MinPacketSpec, tail: float = 1e-12, max_terms: int = 10_000
) -> FockCoefficients:
    """Expansion coefficients of any minimal packet, dispatching on senses.

    Co-rotating packets with l_i, l_c > 0 use :func:`corotating_coeffs`
    (``max_terms`` caps the terms); all others, as "coherent" (l_i = 0),
    "squeezed" (l_c = 0) or "antirotating", the lattice of
    :func:`antirotating_coeffs` (``max_terms`` is a cell budget).
    """
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i == spec.sign_c:
        return corotating_coeffs(spec, tail, max_terms)
    out = antirotating_coeffs(spec, tail, max_terms)
    if spec.l_i_abs == 0:
        return replace(out, kind="coherent")
    if spec.l_c_abs == 0:
        return replace(out, kind="squeezed")
    return out


def generating_function(spec: MinPacketSpec, z: float) -> float:
    """Probability generating function ``sum_k p_k z^k`` of the winding ladder.

    Only defined for co-rotating packets, whose expansion is supported on
    windings ``sign_i * k`` with k >= 0:

        G(z) = sqrt((1-eta^2)/(1-z^2 eta^2))
               * exp[ l_c (z-1) (1 - z eta^2 + eta (1-z) cos 2w)
                      / (1 - z^2 eta^2) ]

    for ``z^2 < 1/eta^2``.
    """
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != spec.sign_c:
        raise InvalidParameterError("generating function requires a co-rotating packet")
    eta = spec.eta
    if z * z * eta * eta >= 1.0:
        raise InvalidParameterError(
            f"z={z} is outside the convergence disk |z| < {1.0 / eta if eta else math.inf}"
        )
    denom = 1.0 - z * z * eta * eta
    quad = (
        spec.l_c_abs
        * (z - 1.0)
        * (1.0 - z * eta**2 + eta * (1.0 - z) * math.cos(2.0 * spec.w))
        / denom
    )
    return math.sqrt((1.0 - eta**2) / denom) * math.exp(quad)


def generating_derivatives(spec: MinPacketSpec) -> tuple[float, float]:
    """First and second derivatives of the generating function at z = 1.

    Closed forms: with ``D = 1 - eta^2``,

        G'(1)  = l_c + eta^2 / D
        G''(1) = G'(1)^2 + eta^2/D + 2 eta^4/D^2 + 2 l_c eta (eta - cos 2w)/D

    so the winding mean is ``G'(1)`` and its variance
    ``G''(1) + G'(1) - G'(1)^2``.
    """
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != spec.sign_c:
        raise InvalidParameterError("generating function requires a co-rotating packet")
    eta = spec.eta
    denom = 1.0 - eta**2
    d1 = spec.l_c_abs + eta**2 / denom
    d2 = (
        d1**2
        + eta**2 / denom
        + 2.0 * eta**4 / denom**2
        + 2.0 * spec.l_c_abs * eta * (eta - math.cos(2.0 * spec.w)) / denom
    )
    return d1, d2


def pk_asymptotic(l_i_abs: float, l_c_abs: float, k: int) -> float:
    """Large-k approximation of the winding probabilities ``p_k``.

    Valid for strongly deformed, co-rotating packets
    (``l_i >> l_c >> 1``): an exponential envelope in ``k`` over the total
    mean angular momentum, modulated by interference fringes from the
    center's orbital motion.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    l_tot = l_i_abs + l_c_abs
    if l_tot <= 0:
        raise InvalidParameterError("needs nonzero angular momentum")
    envelope = 2.0 * math.exp(-k / l_tot) / math.sqrt(math.pi * k * l_tot)
    fringe = math.cos(math.sqrt(2.0 * l_c_abs * (2 * k + 1)) - 0.5 * k * math.pi) ** 2
    return envelope * fringe
