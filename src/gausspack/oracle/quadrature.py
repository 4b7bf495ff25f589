"""Adaptive tensor-product Gauss-Legendre quadrature on rectangles.

The integrands here are smooth Gaussians times polynomials, so high-order
Gauss rules converge extremely fast; adaptivity only has to handle the case
where the box is much wider than the packet.  Panels are bisected in both
directions until the difference between a rule and its refinement falls
under an area-proportional share of the total budget.

An integrand may be vector-valued: a stack of components of shape
``(..., n, n)`` on the ``n x n`` node grid.  All components then share one
partition, and a panel is split until every component meets its share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import ToleranceError

__all__ = ["QuadratureSpec", "gauss_legendre_2d", "integrate_adaptive"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the adaptive integrator.

    ``abs_tol`` is the absolute error budget for the whole box.  Each panel
    must either meet its area-proportional share (estimated as the
    difference between the ``order`` and ``refined_order`` rules) or be
    split, up to ``max_splits`` bisection levels.  ``half_width_sigmas``
    controls how many principal standard deviations of the density the
    default integration box extends to.
    """

    order: int = 32
    refined_order: int = 48
    abs_tol: float = 1e-13
    max_splits: int = 7
    half_width_sigmas: float = 8.5

    def __post_init__(self) -> None:
        if self.order < 2 or self.refined_order <= self.order:
            raise ValueError(
                f"need refined_order > order >= 2, got {self.order}, {self.refined_order}"
            )
        if self.abs_tol <= 0 or self.max_splits < 0 or self.half_width_sigmas <= 0:
            raise ValueError("tolerances and widths must be positive")


@lru_cache(maxsize=32)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_legendre_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: tuple[float, float, float, float],
    order: int,
) -> complex | np.ndarray:
    """Single tensor-product Gauss-Legendre pass over ``box`` = (x0, x1, y0, y1).

    ``f`` receives the node grids ``X, Y`` of shape ``(order, order)``, with
    ``X`` varying along axis 0 and ``Y`` along axis 1, and returns values of
    shape ``(..., order, order)``.  The last two axes are contracted: a
    scalar integrand gives a complex number, a stacked one an array of
    shape ``...``.
    """
    x0, x1, y0, y1 = box
    t, w = _nodes(order)
    xs = 0.5 * (x1 - x0) * t + 0.5 * (x1 + x0)
    ys = 0.5 * (y1 - y0) * t + 0.5 * (y1 + y0)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    values = np.asarray(f(X, Y))
    jac = 0.25 * (x1 - x0) * (y1 - y0)
    result = jac * (values @ w @ w)
    return complex(result) if result.ndim == 0 else result.astype(complex)


def integrate_adaptive(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: tuple[float, float, float, float],
    spec: QuadratureSpec | None = None,
) -> complex | np.ndarray:
    """Integrate ``f`` over the rectangle ``box`` to the requested tolerance.

    A stacked integrand (see :func:`gauss_legendre_2d`) returns one value
    per component, and each component must meet the error budget.

    Raises
    ------
    ToleranceError
        If a rule value is not finite, or if panels at the maximum
        bisection depth still leave some component's estimated error above
        the budget.
    """
    spec = spec or QuadratureSpec()
    x0, x1, y0, y1 = box
    total_area = (x1 - x0) * (y1 - y0)
    if total_area <= 0:
        raise ValueError(f"box must have positive area, got {box}")

    total = 0.0 + 0.0j
    err_total = 0.0
    stack: list[tuple[float, float, float, float, int]] = [(x0, x1, y0, y1, 0)]
    while stack:
        px0, px1, py0, py1, depth = stack.pop()
        panel = (px0, px1, py0, py1)
        coarse = gauss_legendre_2d(f, panel, spec.order)
        fine = gauss_legendre_2d(f, panel, spec.refined_order)
        err = np.abs(fine - coarse)
        # A NaN or inf in either rule leaves the difference non-finite.
        if not np.all(np.isfinite(err)):
            raise ToleranceError(f"integrand is not finite on panel {panel}")
        share = spec.abs_tol * ((px1 - px0) * (py1 - py0)) / total_area
        if depth >= spec.max_splits or np.all(err <= share):
            total += fine
            err_total += err
        else:
            xm = 0.5 * (px0 + px1)
            ym = 0.5 * (py0 + py1)
            stack.extend(
                [
                    (px0, xm, py0, ym, depth + 1),
                    (xm, px1, py0, ym, depth + 1),
                    (px0, xm, ym, py1, depth + 1),
                    (xm, px1, ym, py1, depth + 1),
                ]
            )
    worst = float(np.max(err_total, initial=0.0))
    if worst > 10.0 * spec.abs_tol:
        raise ToleranceError(
            f"quadrature error estimate {worst:.3e} exceeds budget "
            f"{spec.abs_tol:.3e} after {spec.max_splits} splits"
        )
    return total
