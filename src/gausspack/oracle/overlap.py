"""Overlap integrals between a packet and arbitrary reference modes."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..packet import RealParams, wavefunction
from .moments import _packet_frame
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = ["overlap_integral", "overlap_integrals"]

Mode = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Quadrature defaults for overlaps.  At ``h = 10.5`` ``|psi|`` has fallen
#: to ``exp(-h^2 / 4)``, about ``1e-12``, of its peak; at the moments'
#: ``h = 8.5`` the cut-off tails moved the ``fock`` check's overlaps by up
#: to ``1.4e-10``.
_OVERLAP_QUAD = QuadratureSpec(half_width_sigmas=10.5)


def overlap_integrals(
    params: RealParams,
    modes: Sequence[Mode],
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Projections ``<mode_k|psi>`` of the packet onto several modes at once.

    The integral is taken in the packet's principal frame ``x = c + T
    (xi, eta)``, the frame its moments use (see
    :mod:`~gausspack.oracle.moments`): the integrand ``conj(mode(x))
    psi(x) |det T|`` over ``[-h, h]^2``, ``h = half_width_sigmas``, with
    ``psi`` evaluated by :func:`~gausspack.packet.wavefunction`.  There
    ``|psi| |det T| = sqrt(s |det T| / 2 pi) exp(-(xi^2 + eta^2) / 4)``,
    with ``s`` the frame's density scale, so however long, thin, tilted or
    displaced the packet, the square holds it; the tails cut off change
    each value by at most ``sup|mode| sqrt(s |det T| / 2 pi) 8 pi erfc(h /
    2)``.  A mode narrower than the packet's shorter axis must be resolved
    by the adaptive splits.

    All modes are integrated as one stacked integrand, so they share one
    partition of the square; each component still meets the quadrature
    budget.  An empty ``modes`` gives an empty array.
    """
    if len(modes) == 0:
        return np.zeros(0, dtype=complex)
    ((t00, t01), (t10, t11)), (cx, cy) = _packet_frame(params).frame
    jacobian = abs(t00 * t11 - t01 * t10)
    quad = quad or _OVERLAP_QUAD
    h = quad.half_width_sigmas

    def integrand(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        x = cx + t00 * xi + t01 * eta
        y = cy + t10 * xi + t11 * eta
        psi = jacobian * wavefunction(params, x, y)
        return np.stack([np.conj(mode(x, y)) * psi for mode in modes])

    return integrate_adaptive(integrand, (-h, h, -h, h), quad)


def overlap_integral(
    params: RealParams, mode: Mode, quad: QuadratureSpec | None = None
) -> complex:
    """Projection ``<mode|psi>`` by adaptive quadrature.

    ``mode`` evaluates the reference wavefunction on coordinate arrays; see
    :func:`overlap_integrals` for the frame and the truncation bound.
    """
    return complex(overlap_integrals(params, [mode], quad)[0])
