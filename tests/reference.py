"""Reference formulas that only the tests use."""

import math

from gausspack import InvalidParameterError


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
