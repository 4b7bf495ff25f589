"""Reference formulas that only the tests use."""

import math

from gausspack import HBAR, InvalidParameterError, first_moments


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


#: ``{(i, j): c}``: the polynomial ``sum c x^i y^j``.
Poly = dict


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


def observable_polynomial(params, obs) -> Poly:
    """Polynomial P with ``(O psi)(x, y) = P(x, y) * psi(x, y)``, term by term.

    Each term ``x^a y^b Px^c Py^d`` applies ``-i hbar (P g + dP)`` with
    ``g`` the first-degree log-gradient of ``psi``, ``d`` times along
    ``y`` and then ``c`` times along ``x``, and shifts the result by
    ``(a, b)``; nothing is shared between terms or calls.
    """
    mu = params.mu
    qa, qb, qc = params.quad_a, params.quad_b, params.quad_c
    gx: Poly = {(0, 0): params.lin_f, (1, 0): -2.0 * mu * qa, (0, 1): -mu * qb}
    gy: Poly = {(0, 0): params.lin_g, (0, 1): -2.0 * mu * qc, (1, 0): -mu * qb}
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


def integration_box(params, half_width_sigmas: float = 8.5) -> tuple[float, float, float, float]:
    """A lab-frame square centred on the packet, of half-width
    ``half_width_sigmas`` times the largest principal standard deviation of
    ``|psi|^2``: a box for dense reference integrals of packets that are
    not too thin."""
    x0, y0, _, _ = first_moments(params)
    r = math.hypot(params.alpha - params.gamma, 2.0 * params.beta)
    l_min = 0.5 * (params.alpha + params.gamma - r)
    hw = half_width_sigmas / math.sqrt(2.0 * params.mu * l_min)
    return (x0 - hw, x0 + hw, y0 - hw, y0 + hw)
