"""Overlap integrals between a packet and arbitrary reference modes."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..packet import RealParams, wavefunction
from .moments import integration_box
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = ["overlap_integral", "overlap_integrals"]

Mode = Callable[[np.ndarray, np.ndarray], np.ndarray]


def overlap_integrals(
    params: RealParams,
    modes: Sequence[Mode],
    mode_extent: float = 0.0,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Projections ``<mode_k|psi>`` of the packet onto several modes at once.

    All modes are integrated as one stacked integrand, so they share one
    partition of one box; each component still meets the quadrature
    budget.  ``mode_extent`` should bound the radius where every mode still
    has appreciable weight (for origin-centered oscillator modes, a few
    times ``sqrt((2 n_r + |m| + 1)/mu)`` of the widest one); the box is
    widened by it so packets displaced far from the origin still overlap
    the modes' support.
    """
    quad = quad or QuadratureSpec()
    box = integration_box(params, quad.half_width_sigmas, pad=mode_extent)
    # Make sure the box also covers the modes' own neighbourhood of the origin.
    x0, x1, y0, y1 = box
    x0, x1 = min(x0, -mode_extent), max(x1, mode_extent)
    y0, y1 = min(y0, -mode_extent), max(y1, mode_extent)

    def integrand(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        psi = wavefunction(params, x[:, :1], y[:1, :])
        return np.stack([np.conj(mode(x, y)) * psi for mode in modes])

    return integrate_adaptive(integrand, (x0, x1, y0, y1), quad)


def overlap_integral(
    params: RealParams,
    mode: Mode,
    mode_extent: float = 0.0,
    quad: QuadratureSpec | None = None,
) -> complex:
    """Projection ``<mode|psi>`` by adaptive quadrature.

    ``mode`` evaluates the reference wavefunction on coordinate arrays; see
    :func:`overlap_integrals` for ``mode_extent``.
    """
    return complex(overlap_integrals(params, [mode], mode_extent, quad)[0])
