"""Adaptive tensor-product Gauss-Legendre quadrature on rectangles.

The integrands here are smooth Gaussians times polynomials, so high-order
Gauss rules converge extremely fast; adaptivity only has to handle the case
where the box is much wider than the packet.  Each panel's error is
estimated as the difference between a rule and its refinement.  The
refinement is global, as in QUADPACK's QAG (Piessens et al., 1983): the
panel with the largest estimate is bisected in both directions until the
estimates summed over all panels fall within the budget for the whole box.
No panel is held to a share of its own, so none is split merely because
its share has fallen below double-precision roundoff.

An integrand may be vector-valued: a stack of components of shape
``(..., n, n)`` on the ``n x n`` node grid, or, when every component
factors as ``a[t](x) core(x, y) b[t](y)``, the factor triple
``(a, core, b)`` (see :func:`gauss_legendre_2d`).  All components then
share one partition, a panel is ranked by its largest component error,
and refinement goes on until every component's summed estimate meets the
budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .._record import Record
from ..errors import InvalidParameterError, ToleranceError

__all__ = ["QuadratureSpec", "gauss_legendre_2d", "integrate_adaptive"]


@dataclass(frozen=True)
class QuadratureSpec(Record, name="quadrature"):
    """Knobs for the adaptive integrator.

    ``abs_tol`` bounds the error estimate summed over all panels of the
    box, per component; a panel's estimate is the difference between its
    ``order`` and ``refined_order`` rules.  The worst panel is split until
    the sum meets ``abs_tol`` or every panel has had ``max_splits``
    bisections; a sum still above ``10 * abs_tol`` then raises
    :class:`~gausspack.errors.ToleranceError`.  ``half_width_sigmas``
    controls how many principal standard deviations of the density the
    default integration box extends to.  The counts must be integers (an
    integer-valued real such as ``48.0`` is taken) and the tolerance and
    width finite reals; anything else raises
    :class:`~gausspack.errors.InvalidParameterError` naming the field.
    """

    order: int = 32
    refined_order: int = 48
    abs_tol: float = 1e-13
    max_splits: int = 7
    half_width_sigmas: float = 8.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.order < 2 or self.refined_order <= self.order:
            raise InvalidParameterError(
                f"need refined_order > order >= 2, got {self.order}, {self.refined_order}"
            )
        if not (self.abs_tol > 0 and self.max_splits >= 0 and self.half_width_sigmas > 0):
            raise InvalidParameterError("tolerances and widths must be positive")


#: Maps the node grids ``X, Y`` to a dense stack of values or to the
#: factor triple ``(a, core, b)``; see :func:`gauss_legendre_2d`.
Integrand = Callable[
    [np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]
]


@lru_cache(maxsize=32)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_grid(axis: np.ndarray, along: int) -> np.ndarray:
    """Read-only ``(n, n)`` view of ``axis`` that varies along ``along`` only.

    Built directly with stride 0 on the other dimension: it is the same view
    ``np.broadcast_to`` gives, at a fraction of that function's call cost.
    """
    strides = (axis.itemsize, 0) if along == 0 else (0, axis.itemsize)
    grid = np.ndarray((axis.size, axis.size), axis.dtype, axis, strides=strides)
    grid.flags.writeable = False
    return grid


def gauss_legendre_2d(
    f: Integrand,
    box: tuple[float, float, float, float],
    order: int,
) -> complex | np.ndarray:
    """Single tensor-product Gauss-Legendre pass over ``box`` = (x0, x1, y0, y1).

    ``f`` receives the node grids ``X, Y`` of shape ``(order, order)``, with
    ``X`` varying along axis 0 and ``Y`` along axis 1, and returns values of
    shape ``(..., order, order)``.  The last two axes are contracted: a
    scalar integrand gives a complex number, a stacked one an array of
    shape ``...``.

    ``X`` and ``Y`` are read-only broadcast views of the mapped node axes,
    not dense copies: ``X[:, :1]`` (shape ``(order, 1)``) and ``Y[:1, :]``
    (shape ``(1, order)``) are the axes themselves, so an integrand that
    factors over the axes can work on the open grid, and writing into
    either view raises ``ValueError``.

    A stacked integrand whose components factor as
    ``values[t, i, j] = a[t, i] * core[i, j] * b[t, j]`` may return the
    tuple ``(a, core, b)`` instead, of shapes ``(T, order)``,
    ``(order, order)`` and ``(T, order)``.  The rule then contracts it as
    ``sum_j ((a w) @ (core w))[t, j] b[t, j]``: one ``(T, order) x
    (order, order)`` product and one row sum, and the ``(T, order, order)``
    stack is never built.  The result has shape ``(T,)`` as for the dense
    stack.
    """
    x0, x1, y0, y1 = box
    t, w = _nodes(order)
    xs = 0.5 * (x1 - x0) * t + 0.5 * (x1 + x0)
    ys = 0.5 * (y1 - y0) * t + 0.5 * (y1 + y0)
    values = f(_axis_grid(xs, 0), _axis_grid(ys, 1))
    jac = 0.25 * (x1 - x0) * (y1 - y0)
    if isinstance(values, tuple):
        a, core, b = values
        result = jac * np.sum(((a * w) @ (core * w)) * b, axis=-1)
    else:
        result = jac * (np.asarray(values) @ w @ w)
    return complex(result) if result.ndim == 0 else result.astype(complex)


class _Panel(NamedTuple):
    # Field order is heap order: largest component error first; ``seq``
    # breaks ties, so the arrays after it are never compared.
    neg_worst: float
    seq: int
    bounds: tuple[float, float, float, float]
    depth: int
    fine: complex | np.ndarray
    err: np.ndarray


def integrate_adaptive(
    f: Integrand,
    box: tuple[float, float, float, float],
    spec: QuadratureSpec | None = None,
) -> complex | np.ndarray:
    """Integrate ``f`` over the rectangle ``box`` to the requested tolerance.

    The panel with the largest error estimate is bisected in both
    directions until every component's summed estimate over all panels is
    within ``abs_tol``, or until every panel has reached ``max_splits``
    bisections.  A stacked integrand (see :func:`gauss_legendre_2d`)
    returns one value per component.

    The caller must size ``box`` to the integrand.  Refinement is driven
    by the two rules disagreeing, so a feature narrower than the node
    spacing of the first panel, which both rules miss, integrates to about
    0 with a zero error estimate and raises nothing.  The oracle's own
    callers derive the box from the packet's widths for this reason.

    Raises
    ------
    InvalidParameterError
        If ``box`` does not have positive area.
    ToleranceError
        If a rule value is not finite, or if some component's summed error
        estimate still exceeds ``10 * abs_tol`` when no panel can be split.
    """
    spec = spec or QuadratureSpec()
    x0, x1, y0, y1 = box
    if not (x1 - x0) * (y1 - y0) > 0:
        raise InvalidParameterError(f"box must have positive area, got {box}")

    seq = count()
    splittable: list[_Panel] = []  # heap, worst panel first
    finished: list[_Panel] = []  # panels at max_splits

    def add(bounds: tuple[float, float, float, float], depth: int) -> np.ndarray:
        coarse = gauss_legendre_2d(f, bounds, spec.order)
        fine = gauss_legendre_2d(f, bounds, spec.refined_order)
        err = np.abs(fine - coarse)
        # A NaN or inf in either rule leaves the difference non-finite.
        if not np.all(np.isfinite(err)):
            raise ToleranceError(f"integrand is not finite on panel {bounds}")
        panel = _Panel(-float(np.max(err, initial=0.0)), next(seq), bounds, depth, fine, err)
        if depth >= spec.max_splits:
            finished.append(panel)
        else:
            heapq.heappush(splittable, panel)
        return err

    def leaf_errors() -> np.ndarray:
        return np.sum([panel.err for panel in finished + splittable], axis=0)

    err_sum = add((x0, x1, y0, y1), 0)
    while splittable and np.any(err_sum > spec.abs_tol):
        worst_panel = heapq.heappop(splittable)
        px0, px1, py0, py1 = worst_panel.bounds
        xm = 0.5 * (px0 + px1)
        ym = 0.5 * (py0 + py1)
        err_sum = err_sum - worst_panel.err
        for quarter in ((px0, xm, py0, ym), (xm, px1, py0, ym),
                        (px0, xm, ym, py1), (xm, px1, ym, py1)):
            err_sum = err_sum + add(quarter, worst_panel.depth + 1)
        if not np.any(err_sum > spec.abs_tol):
            # The running sum is built by subtraction; confirm it from the
            # leaves before stopping.
            err_sum = leaf_errors()

    worst = float(np.max(leaf_errors(), initial=0.0))
    if worst > 10.0 * spec.abs_tol:
        raise ToleranceError(
            f"quadrature error estimate {worst:.3e} exceeds budget "
            f"{spec.abs_tol:.3e} after {spec.max_splits} splits"
        )
    total = np.sum([panel.fine for panel in finished + splittable], axis=0)
    return complex(total) if total.ndim == 0 else total
