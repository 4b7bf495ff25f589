"""Special-function helpers tuned for mode-expansion work.

Everything here exists because the raw Hermite and Laguerre polynomials
overflow long before the physically interesting coefficient tails do.  The
workhorses are *scaled* recurrences that fold the factorial normalization of
the oscillator eigenfunctions into the three-term recursion itself, so the
returned numbers stay of order one even for indices in the hundreds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "hermite_scaled",
    "laguerre_assoc_all",
    "log_factorial",
]


def log_factorial(n: int) -> float:
    """Natural log of ``n!`` for non-negative integer ``n``."""
    if n < 0:
        raise InvalidParameterError(f"factorial undefined for n={n}")
    return math.lgamma(n + 1)


def hermite_scaled(
    nmax: int, z: complex, zeta: complex = 1.0, log_start: float = 0.0
) -> np.ndarray:
    """Scaled Hermite recurrence ``h_0..h_nmax`` for complex ``z`` and ``zeta``.

        h_0 = exp(log_start),   h_{k+1} = (sqrt(2) z h_k - zeta sqrt(k) h_{k-1}) / sqrt(k+1)

    With the defaults ``h_k = H_k(z)/sqrt(2^k k!)``; with ``zeta = q^2`` it is
    ``h_0 q^k H_k(z/q)/sqrt(2^k k!)``, every ladder row of :mod:`gausspack.fock`.
    The running pair is rescaled by a power of two, kept as an exponent, when
    it leaves ``[2^-400, 2^400]``: an underflowing start or a growing row stays
    finite (for ``|z|, |zeta| < 2^600``); returned values may round to zero,
    and a row whose values pass the float range raises
    :class:`InvalidParameterError` naming the first such index.  Until a
    rescale the arithmetic is the plain recurrence.  ``|log_start|``
    must be below ``2^32``, where its own rounding reaches 1e-6 relative.
    """
    if nmax < 0:
        raise InvalidParameterError(f"nmax must be >= 0, got {nmax}")
    if not abs(log_start) < 2.0**32:
        raise InvalidParameterError(f"log_start must be finite and below 2^32, got {log_start}")
    ln2 = math.log(2.0)
    shift = round(log_start / ln2)
    prev, cur = 0.0, math.exp(log_start - shift * ln2)
    values, shifts = [cur], [shift]
    k = np.arange(nmax)
    for grow, fall in zip(np.sqrt(2.0 / (k + 1)).tolist(), np.sqrt(k / (k + 1.0)).tolist()):
        prev, cur = cur, z * grow * cur - zeta * fall * prev
        size = abs(cur)
        if size > 2.0**400 or 0.0 < size < 2.0**-400:
            step = max(math.frexp(size)[1], -1000)  # a subnormal takes two steps
            prev, cur, shift = prev * 2.0**-step, cur * 2.0**-step, shift + step
        values.append(cur)
        shifts.append(shift)
    with np.errstate(over="ignore"):
        parts = np.ldexp(np.array(values, complex).view(float), np.repeat(shifts, 2))
    overflow = np.flatnonzero(np.isinf(parts))
    if overflow.size:
        raise InvalidParameterError(
            f"scaled Hermite value h_{overflow[0] // 2} of the row to {nmax} "
            "leaves the float range"
        )
    return parts.view(complex)


def laguerre_assoc_all(nmax: int, m: float, x) -> np.ndarray:
    """All associated Laguerre polynomials ``L_n^(m)(x)`` for n = 0..nmax.

    Returns an array of shape ``(nmax + 1,) + shape(x)``.
    """
    if nmax < 0:
        raise InvalidParameterError(f"nmax must be >= 0, got {nmax}")
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = 1.0 + m - x
    for n in range(1, nmax):
        out[n + 1] = ((2 * n + 1 + m - x) * out[n] - (n + m) * out[n - 1]) / (n + 1)
    return out
