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
    "hermite_zero",
    "hermite_zero_log",
    "laguerre_assoc",
    "laguerre_assoc_all",
    "log_factorial",
]


def log_factorial(n: int) -> float:
    """Natural log of ``n!`` for non-negative integer ``n``."""
    if n < 0:
        raise InvalidParameterError(f"factorial undefined for n={n}")
    return math.lgamma(n + 1)


def hermite_scaled(nmax: int, z: complex) -> np.ndarray:
    """Hermite polynomials divided by the oscillator norm, ``H_k(z)/sqrt(2^k k!)``.

    Returns an array of length ``nmax + 1`` with entries for k = 0..nmax.
    The argument may be complex; the recurrence

        h_{k+1} = z * sqrt(2/(k+1)) * h_k - sqrt(k/(k+1)) * h_{k-1}

    follows from the standard ``H_{k+1} = 2 z H_k - 2 k H_{k-1}`` after
    rescaling, and keeps intermediate values bounded for moderate ``|z|``.
    """
    if nmax < 0:
        raise InvalidParameterError(f"nmax must be >= 0, got {nmax}")
    out = np.empty(nmax + 1, dtype=complex)
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = z * math.sqrt(2.0)
    for k in range(1, nmax):
        out[k + 1] = z * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(
            k / (k + 1.0)
        ) * out[k - 1]
    return out


def hermite_zero(k: int) -> float:
    """Value of the physicists' Hermite polynomial at the origin.

    ``H_k(0)`` vanishes for odd k and equals ``(-1)^j (2j)!/j!`` for k = 2j.
    The ratio is an integer, computed exactly and rounded once on
    conversion; for indices beyond float range use ``hermite_zero_log``.
    """
    if k < 0:
        raise InvalidParameterError(f"index must be >= 0, got {k}")
    if k % 2:
        return 0.0
    j = k // 2
    value = math.factorial(2 * j) // math.factorial(j)
    return float(-value if j % 2 else value)


def hermite_zero_log(k: int) -> tuple[int, float]:
    """Sign and log-magnitude of ``H_k(0)``.

    Returns ``(0, -inf)`` for odd k so callers can skip vanishing terms
    without special-casing.
    """
    if k < 0:
        raise InvalidParameterError(f"index must be >= 0, got {k}")
    if k % 2:
        return 0, -math.inf
    j = k // 2
    sign = -1 if j % 2 else 1
    return sign, math.lgamma(2 * j + 1) - math.lgamma(j + 1)


def laguerre_assoc(n: int, m: float, x) -> np.ndarray | float:
    """Associated Laguerre polynomial ``L_n^(m)(x)``.

    Vectorized over ``x``.  Uses the usual three-term recurrence upward in n,
    which is stable for the non-negative ``m`` encountered here.
    """
    return laguerre_assoc_all(n, m, x)[n]


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
