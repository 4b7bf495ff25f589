"""Expansion of rotating packets over oscillator angular-momentum modes.

The natural basis for a two-dimensional isotropic oscillator consists of
modes with definite energy ``hbar omega (1 + |m| + 2 n_r)`` and definite
angular momentum ``m hbar``.  A minimal rotating packet has closed-form
expansion coefficients in this basis, with strikingly different structure
depending on whether the center orbits with or against the internal
rotation: co-rotating packets populate a single radial quantum number
through Hermite polynomials of a complex argument, while counter-rotating
packets spread over both quantum numbers.  This module implements the mode
functions, all four coefficient families (the circular-coherent and
centered-deformed cases are limits of the other two), the probability
generating function, and summary statistics derived from the expansion.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ._record import Record, real
from .constants import HBAR
from .errors import InvalidParameterError
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
    arg = mu * (x**2 + y**2)
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
    phase = np.exp(1j * m * np.arctan2(y, x))
    return math.sqrt(mu / math.pi) * psi * phase


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
        return math.fsum(abs(c) ** 2 for c in self.coeffs.values())

    def angular_momentum_stats(self) -> tuple[float, float]:
        """Mean (units hbar) and variance (units hbar^2) of angular momentum."""
        mean = math.fsum(m * abs(c) ** 2 for (_, m), c in self.coeffs.items())
        second = math.fsum(m * m * abs(c) ** 2 for (_, m), c in self.coeffs.items())
        return HBAR * mean, HBAR**2 * (second - mean**2)

    def energy_stats(self, omega: float) -> tuple[float, float]:
        """Mean and variance of the oscillator energy from the mode ladder."""
        levels = {key: 1 + abs(key[1]) + 2 * key[0] for key in self.coeffs}
        mean = math.fsum(levels[key] * abs(c) ** 2 for key, c in self.coeffs.items())
        second = math.fsum(
            levels[key] ** 2 * abs(c) ** 2 for key, c in self.coeffs.items()
        )
        scale = HBAR * omega
        return scale * mean, scale**2 * (second - mean**2)


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
    max_terms: int = 1000,
) -> FockCoefficients:
    """Coefficients of an undeformed packet on a circular orbit.

    Pure Poissonian ladder in the winding number:
    ``c[0, sign_c k] = l_c^(k/2)/sqrt(k!) exp(-l_c/2) exp(-i k sign_c v)``.
    """
    _truncation(tail, max_terms)
    l_c_abs = real(l_c_abs, "l_c_abs")
    if l_c_abs < 0:
        raise InvalidParameterError(f"l_c_abs must be >= 0, got {l_c_abs}")
    if sign_c not in (-1, 1):
        raise InvalidParameterError(f"sign_c must be +1 or -1, got {sign_c}")
    coeffs: Dict[Tuple[int, int], complex] = {}
    total = 0.0
    for k in range(max_terms):
        log_mag = 0.5 * (k * math.log(l_c_abs) if l_c_abs > 0 else (0.0 if k == 0 else -math.inf))
        log_mag += -0.5 * l_c_abs - 0.5 * log_factorial(k)
        if log_mag == -math.inf:
            break
        c = math.exp(log_mag) * cmath.exp(-1j * k * sign_c * v)
        coeffs[(0, sign_c * k)] = c
        total += abs(c) ** 2
        if 1.0 - total < tail and k >= l_c_abs:
            break
    return FockCoefficients(kind="coherent", coeffs=coeffs, residual=1.0 - total)


def squeezed_coeffs(
    l_i_abs: float,
    sign_i: int = 1,
    u: float = 0.0,
    tail: float = 1e-12,
    max_terms: int = 1000,
) -> FockCoefficients:
    """Coefficients of a centered rotating packet (no orbital motion).

    Only even windings of one sense appear:
    ``c[0, 2k sign_i] = (-1)^k (1-eta^2)^(1/4) eta^k sqrt((2k)!)/(2^k k!)
    exp(-i k sign_i u)``.
    """
    _truncation(tail, max_terms)
    l_i_abs = real(l_i_abs, "l_i_abs")
    if l_i_abs < 0:
        raise InvalidParameterError(f"l_i_abs must be >= 0, got {l_i_abs}")
    if sign_i not in (-1, 1):
        raise InvalidParameterError(f"sign_i must be +1 or -1, got {sign_i}")
    eta = math.sqrt(l_i_abs / (1.0 + l_i_abs))
    log_pref = 0.25 * math.log(1.0 - eta**2)
    coeffs: Dict[Tuple[int, int], complex] = {}
    total = 0.0
    for k in range(max_terms):
        if eta == 0.0 and k > 0:
            break
        log_mag = log_pref
        if k > 0:
            log_mag += (
                k * math.log(eta)
                + 0.5 * log_factorial(2 * k)
                - k * math.log(2.0)
                - log_factorial(k)
            )
        c = (-1) ** k * math.exp(log_mag) * cmath.exp(-1j * k * sign_i * u)
        coeffs[(0, 2 * k * sign_i)] = c
        total += abs(c) ** 2
        if 1.0 - total < tail:
            break
    return FockCoefficients(kind="squeezed", coeffs=coeffs, residual=1.0 - total)


def corotating_coeffs(
    spec: MinPacketSpec, tail: float = 1e-12, max_terms: int = 1000
) -> FockCoefficients:
    """Coefficients of a packet whose center orbits with its internal rotation.

    All population sits at radial index zero; the winding ladder is

        c[0, sign k] = (1-eta^2)^(1/4) eta^(k/2) exp(-i sign u k / 2)
                       * H_k(B)/sqrt(2^k k!) * exp(-l_c (1 + eta cos 2w)/2)

    with the complex Hermite argument
    ``B = (eta e^(iw) + e^(-iw)) sqrt(l_c / (2 eta))``.  The centered and
    circular limits reduce to :func:`squeezed_coeffs` and
    :func:`coherent_coeffs`.
    """
    _truncation(tail, max_terms)
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != spec.sign_c:
        raise InvalidParameterError(
            "corotating expansion needs matching senses; use antirotating_coeffs"
        )
    if spec.l_i_abs == 0:
        out = coherent_coeffs(spec.l_c_abs, spec.sign_c, spec.v, tail, max_terms)
        return FockCoefficients(kind="corotating", coeffs=out.coeffs, residual=out.residual)

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
        kmax = min(kmax, max_terms)
        hermites = hermite_scaled(kmax, b_arg)
        coeffs.clear()
        total = 0.0
        for k in range(kmax + 1):
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
        if 1.0 - total < tail or kmax >= max_terms:
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


def _total_probability(probabilities: np.ndarray) -> float:
    """Sum of a ladder's probabilities, correctly rounded in practice.

    :func:`math.fsum` slows down as the dynamic range of its inputs grows,
    and most cells of a wide ladder hold probabilities many orders of
    magnitude below any that can change a total near one.  Those are
    pre-summed in one float, so only the rest go through ``fsum``.
    """
    small = probabilities < _NEGLIGIBLE
    return math.fsum([*probabilities[~small].tolist(), float(probabilities[small].sum())])


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
    ``max_terms`` cells.  ``max_terms`` therefore counts grid cells, of
    which about half vanish, not stored terms.  Each grid is computed as
    arrays, a block of rows at a time: log-magnitudes from a table of log
    factorials on the cells whose Hermite index is even, then the phases.
    Terms whose magnitude underflows to zero are not stored.  Keys are
    ``(n, lam * m)`` in the order of n, then of m from ``-m_span`` up.
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
    while True:
        log_fact = np.array([math.lgamma(k + 1) for k in range(n_max + m_span + 1)])
        windings = np.arange(-m_span, m_span + 1)
        if eta == 0.0:
            windings = windings[windings <= 0]
        if l_c == 0.0:
            windings = windings[windings >= 0]
        rows = n_max + 1 if l_c * eta > 0 else 1
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
        total = _total_probability(np.concatenate([np.abs(c) ** 2 for _, _, c in blocks]))
        if 1.0 - total < tail or (n_max + 1) * (2 * m_span + 1) >= max_terms:
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
    """Expansion coefficients of any minimal packet, dispatching on senses."""
    if spec.l_i_abs == 0 and spec.l_c_abs == 0:
        return FockCoefficients(kind="coherent", coeffs={(0, 0): 1.0 + 0.0j}, residual=0.0)
    if spec.l_i_abs == 0:
        return coherent_coeffs(spec.l_c_abs, spec.sign_c, spec.v, tail, min(max_terms, 1000))
    if spec.l_c_abs == 0:
        return squeezed_coeffs(spec.l_i_abs, spec.sign_i, spec.u, tail, min(max_terms, 1000))
    if spec.sign_i == spec.sign_c:
        return corotating_coeffs(spec, tail, min(max_terms, 1000))
    return antirotating_coeffs(spec, tail, max_terms)


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
