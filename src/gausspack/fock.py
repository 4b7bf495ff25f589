"""Expansion of rotating packets over oscillator angular-momentum modes.

The natural basis for a two-dimensional isotropic oscillator consists of
modes with definite energy ``hbar omega (1 + |m| + 2 n_r)`` and definite
angular momentum ``m hbar``; in the circular quanta ``n_+``, ``n_-`` of the
two senses, ``n_r = min(n_+, n_-)`` and ``m = n_+ - n_-``.  A co-rotating
packet fills one circular mode, so its ladder is one row at radial index
zero; a counter-rotating packet is the internal squeezed state in one mode
times the centre's coherent state in the other, so its ladder is the outer
product of two rows and spreads over both quantum numbers.  Every row is
one run of :func:`gausspack.special.hermite_scaled`.  This module implements
the mode functions, the four coefficient families, the probability
generating function, and summary statistics derived from the expansion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
        """Root-mean-square radius ``sqrt((2 n_r + |m| + 1) / mu)``."""
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
        c = np.fromiter(self.coeffs.values(), complex, size)
        p = np.hypot(c.real, c.imag) ** 2  # as abs(c) ** 2; NumPy's complex abs rounds otherwise
        x = 1 + np.abs(m) + 2 * n if energy else m
        small = p < _NEGLIGIBLE
        return _exact_sum(p, small), _exact_sum(x * p, small), _exact_sum(x * x * p, small)


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


def _row(kind: str, l_i: float, l_c: float, lam: int, u: float, v: float, tail: float,
         max_terms: int) -> np.ndarray:
    """Amplitudes ``c_0..c_K`` of a packet co-rotating in circular mode ``lam``.

    One run of :func:`hermite_scaled` (``w = lam (v - u/2)``): ``zeta = eta
    e^(-i lam u)``, ``z = sqrt(l_c/2) (eta e^(iw) + e^(-iw)) e^(-i lam u/2)``,
    ``log c_0 = -log(1 + l_i)/4 - l_c (1 + eta cos 2w)/2``; ``l_c = 0`` gives
    the squeezed row, ``l_i = 0`` the coherent one.  Cut at the first K whose
    residual is below ``tail``, it runs at most to index ``2 max_terms``.
    """
    eta = math.sqrt(l_i / (1.0 + l_i))
    w = lam * (v - 0.5 * u)
    q = cmath.exp(-0.5j * lam * u)
    z = math.sqrt(0.5 * l_c) * (eta * cmath.exp(1j * w) + cmath.exp(-1j * w)) * q
    log_start = -0.25 * math.log1p(l_i) - 0.5 * l_c * (1.0 + eta * math.cos(2.0 * w))
    nmax = 32
    while True:
        nmax = min(2 * nmax, 2 * max_terms)
        row = hermite_scaled(nmax, z, eta * q * q, log_start)
        p = np.hypot(row.real, row.imag) ** 2
        missing = 1.0 - _exact_sum(p, p < _NEGLIGIBLE)
        # A row whose second half adds nothing is short only by rounding.
        died = missing < 0.5 and p[nmax // 2 :].sum() < 2.0**-52 * missing
        if missing < tail or died or nmax == 2 * max_terms:
            break
    if not missing < tail:
        need = "more precision" if died else f"more than max_terms={max_terms} coefficients"
        raise ToleranceError(
            f"{kind} ladder not converged: residual {missing:.3g} is not below tail "
            f"{tail:g} at index {nmax}; it needs {need}"
        )
    # The probability beyond each index, summed from the far end to keep its digits.
    beyond = np.append(np.cumsum(p[:0:-1])[::-1], 0.0)
    return row[: int(np.argmax(missing + beyond < tail)) + 1]


def _ladder(kind: str, spec: MinPacketSpec, tail: float, max_terms: int) -> FockCoefficients:
    """The stored expansion of ``spec``, the product of a row per circular mode:

        c[min(n_+, n_-), lam (n_+ - n_-)] = e^(i phi) (-1)^min(n_+, n_-) s(n_+) a(n_-)

    For equal senses, ``l_i = 0`` or ``l_c = 0``, ``s`` is the packet's one
    row and ``a`` the vacuum.  Otherwise ``s`` is the squeezed row in mode
    ``lam = sign_i`` and ``a`` the coherent row in mode ``-lam``, each cut at
    ``tail/2``, and ``phi = l_c eta sin(2w)/2``.  ``max_terms`` caps the
    nonzero amplitudes, checked before the product is formed.
    """
    if not (0 < tail < 1):
        raise InvalidParameterError(f"tail must be in (0, 1), got {tail}")
    if max_terms < 1:
        raise InvalidParameterError(f"max_terms must be >= 1, got {max_terms}")
    l_i, l_c, u, v = spec.l_i_abs, spec.l_c_abs, spec.u, spec.v
    if l_i == 0 or l_c == 0 or spec.sign_i == spec.sign_c:
        lam = spec.sign_i if l_i > 0 else spec.sign_c
        rows, phase = (_row(kind, l_i, l_c, lam, u, v, tail, max_terms), np.ones(1)), 1.0
    else:
        lam = spec.sign_i
        rows = (_row(kind, l_i, 0.0, lam, u, v, 0.5 * tail, max_terms),
                _row(kind, 0.0, l_c, -lam, u, v, 0.5 * tail, max_terms))
        phase = cmath.exp(0.5j * l_c * spec.eta * math.sin(2.0 * spec.w))
    n_plus, n_minus = (np.flatnonzero(row) for row in rows)
    if n_plus.size * n_minus.size > max_terms:
        raise ToleranceError(
            f"{kind} ladder needs {n_plus.size * n_minus.size} coefficients to bring its "
            f"residual below tail {tail:g}, more than max_terms={max_terms}"
        )
    c = np.outer(phase * rows[0][n_plus], rows[1][n_minus])
    n_r = np.minimum.outer(n_plus, n_minus)
    c[n_r % 2 == 1] *= -1.0
    kept = c != 0.0  # products that underflow
    n_r, m, c = n_r[kept], lam * np.subtract.outer(n_plus, n_minus)[kept], c[kept]
    p = np.hypot(c.real, c.imag) ** 2
    residual = 1.0 - _exact_sum(p, p < _NEGLIGIBLE)
    if not residual < tail:
        raise ToleranceError(f"{kind} ladder holds residual {residual:.3g}, not below {tail:g}")
    coeffs = dict(zip(zip(n_r.tolist(), m.tolist()), c.tolist()))
    return FockCoefficients(kind=kind, coeffs=coeffs, residual=residual)


def coherent_coeffs(
    l_c_abs: float,
    sign_c: int = 1,
    v: float = 0.0,
    tail: float = 1e-12,
    max_terms: int = 10_000,
) -> FockCoefficients:
    """Coefficients of an undeformed packet on a circular orbit.

    Pure Poissonian ladder in the winding number, one row:
    ``c[0, sign_c k] = l_c^(k/2)/sqrt(k!) exp(-l_c/2) exp(-i k sign_c v)``.
    """
    spec = MinPacketSpec(l_i_abs=0.0, l_c_abs=l_c_abs, sign_c=sign_c, v=v)
    return _ladder("coherent", spec, tail, max_terms)


def squeezed_coeffs(
    l_i_abs: float,
    sign_i: int = 1,
    u: float = 0.0,
    tail: float = 1e-12,
    max_terms: int = 10_000,
) -> FockCoefficients:
    """Coefficients of a centered rotating packet (no orbital motion).

    Only even windings of one sense appear, in one row:
    ``c[0, 2k sign_i] = (-1)^k (1-eta^2)^(1/4) eta^k sqrt((2k)!)/(2^k k!)
    exp(-i k sign_i u)``.
    """
    spec = MinPacketSpec(l_i_abs=l_i_abs, sign_i=sign_i, u=u)
    return _ladder("squeezed", spec, tail, max_terms)


def corotating_coeffs(
    spec: MinPacketSpec, tail: float = 1e-12, max_terms: int = 10_000
) -> FockCoefficients:
    """Coefficients of a packet whose center orbits with its internal rotation.

    All population sits at radial index zero, in one row:

        c[0, sign k] = (1-eta^2)^(1/4) eta^(k/2) exp(-i sign u k / 2)
                       * H_k(B)/sqrt(2^k k!) * exp(-l_c (1 + eta cos 2w)/2)

    with the complex Hermite argument
    ``B = (eta e^(iw) + e^(-iw)) sqrt(l_c / (2 eta))``, computed with the
    factor ``eta^(k/2)`` inside the recurrence so that no ``H_k(B)`` is
    formed.
    """
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != spec.sign_c:
        raise InvalidParameterError(
            "corotating expansion needs matching senses; use antirotating_coeffs"
        )
    return _ladder("corotating", spec, tail, max_terms)


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
    survive.  It is the outer product of the squeezed row in mode ``lam``
    and the coherent row in mode ``-lam``.
    """
    if spec.l_i_abs > 0 and spec.l_c_abs > 0 and spec.sign_i != -spec.sign_c:
        raise InvalidParameterError(
            "antirotating expansion needs opposite senses; use corotating_coeffs"
        )
    return _ladder("antirotating", spec, tail, max_terms)


def fock_coefficients(
    spec: MinPacketSpec, tail: float = 1e-12, max_terms: int = 10_000
) -> FockCoefficients:
    """Expansion coefficients of any minimal packet, dispatching on senses.

    The ``kind`` is "coherent" (l_i = 0), "squeezed" (l_c = 0), "corotating"
    or "antirotating".  For every family the residual is below ``tail`` and
    ``max_terms`` caps the stored coefficients; a ladder that needs more
    raises :class:`ToleranceError`.
    """
    if spec.l_i_abs == 0 or spec.l_c_abs == 0:
        return _ladder("coherent" if spec.l_i_abs == 0 else "squeezed", spec, tail, max_terms)
    kind = "corotating" if spec.sign_i == spec.sign_c else "antirotating"
    return _ladder(kind, spec, tail, max_terms)


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
