"""Adaptive Gauss-Legendre quadrature on intervals and rectangles.

The integrands here are smooth Gaussians times polynomials or phases, so
high-order Gauss rules converge extremely fast; adaptivity only has to
handle the case where the box is much wider than the integrand's features.
Each panel's error is estimated as the difference between a rule and its
refinement.  The refinement is global, as in QUADPACK's QAG (Piessens et
al., 1983): the panel with the largest estimate is bisected (an interval
into two halves, a rectangle in both directions into four quarters) until
the estimates summed over all panels fall within the budget for the whole
box.  No panel is held to a share of its own, so none is split merely
because its share has fallen below double-precision roundoff.

An integrand may be vector-valued: a stack of components of shape
``(..., n)`` on the ``n`` nodes of an interval (see
:func:`gauss_legendre_1d`), or ``(..., n, n)`` on the ``n x n`` node grid
of a rectangle (see :func:`gauss_legendre_2d`).  All components then
share one partition, a panel is ranked by its largest component error,
and refinement goes on until every component's summed estimate meets the
budget.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .._record import Record
from ..errors import InvalidParameterError, ToleranceError

__all__ = [
    "QuadratureSpec",
    "gauss_legendre_1d",
    "gauss_legendre_2d",
    "integrate_adaptive",
]


@dataclass(frozen=True)
class QuadratureSpec(Record, name="quadrature"):
    """Knobs for the adaptive integrator.

    ``abs_tol`` bounds the error estimate summed over all panels of the
    box, per component; a panel's estimate is the difference between its
    ``order`` and ``refined_order`` rules.  The worst panel is split until
    the sum meets ``abs_tol`` or every panel has had ``max_splits``
    bisections; a sum still above ``10 * abs_tol`` then raises
    :class:`~gausspack.errors.ToleranceError`, as soon as the panels at
    ``max_splits`` alone exceed it.  ``half_width_sigmas``
    (``h``) sets how far the oracle's integration boxes extend, in standard
    deviations of the density: moments and overlaps integrate over
    ``[-h, h]`` along each axis of the packet's principal frame, where
    ``|psi|`` falls off as ``exp(-h^2 / 4)``, and propagators over ``[-h,
    h]`` along each axis of the integrand's complex principal frame.
    Overlaps and propagators default to ``h = 10.5``.  The counts must be
    integers (an integer-valued real such as ``48.0`` is taken) and the
    tolerance and width finite reals; anything else raises
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


#: Maps the node grids ``X, Y`` to a stack of values; see :func:`gauss_legendre_2d`.
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


@lru_cache(maxsize=32)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_legendre_1d(
    f: Callable[[np.ndarray], np.ndarray], interval: tuple[float, float], order: int
) -> complex | np.ndarray:
    """Single Gauss-Legendre pass over ``interval`` = (x0, x1).

    ``f`` receives the mapped nodes, shape ``(order,)``, and returns values
    of shape ``(..., order)``.  The last axis is contracted with the
    weights: a scalar integrand gives a complex number, a stacked one an
    array of shape ``...``.
    """
    x0, x1 = interval
    t, w = _nodes(order)
    h = 0.5 * (x1 - x0)
    result = h * (np.asarray(f(h * t + 0.5 * (x1 + x0))) @ w)
    return complex(result) if result.ndim == 0 else result.astype(complex, copy=False)


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
    shape ``...``.  ``X`` and ``Y`` are the ``np.meshgrid`` of the mapped
    node axes in ``"ij"`` indexing.
    """
    x0, x1, y0, y1 = box
    t, w = _nodes(order)
    h, k = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    xc, yc = 0.5 * (x1 + x0), 0.5 * (y1 + y0)
    xs = h * t + xc
    ys = k * t + yc
    values = f(*np.meshgrid(xs, ys, indexing="ij"))
    jac = 0.25 * (x1 - x0) * (y1 - y0)
    result = jac * (np.asarray(values) @ w @ w)
    return complex(result) if result.ndim == 0 else result.astype(complex, copy=False)


#: ``(x0, x1)`` or ``(x0, x1, y0, y1)``.
Bounds = tuple[float, ...]


class _Panel(NamedTuple):
    # Field order is heap order: largest component error first; ``seq``
    # breaks ties, so the arrays after it are never compared.
    neg_worst: float
    seq: int
    bounds: Bounds
    depth: int
    fine: complex | np.ndarray
    err: np.ndarray


def _bisect(bounds: Bounds) -> tuple[Bounds, ...]:
    """The two halves of an interval, or the four quarters of a rectangle."""
    x0, x1 = bounds[:2]
    xm = 0.5 * (x0 + x1)
    if len(bounds) == 2:
        return (x0, xm), (xm, x1)
    y0, y1 = bounds[2:]
    ym = 0.5 * (y0 + y1)
    return (x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)


def integrate_adaptive(
    f: Integrand | Callable[[np.ndarray], np.ndarray],
    box: Bounds,
    spec: QuadratureSpec | None = None,
) -> complex | np.ndarray:
    """Integrate ``f`` over the interval or rectangle ``box`` to the requested tolerance.

    ``box`` is ``(x0, x1)``, and ``f`` is then an integrand of
    :func:`gauss_legendre_1d`, or ``(x0, x1, y0, y1)``, and ``f`` is one
    of :func:`gauss_legendre_2d`.  The panel with the largest error
    estimate is bisected (into two intervals or four rectangles) until
    every component's summed estimate over all panels is within
    ``abs_tol``, or until every panel has reached ``max_splits``
    bisections.  A stacked integrand returns one value per component.

    The caller must size ``box`` to the integrand.  Refinement is driven
    by the two rules disagreeing, so a feature narrower than the node
    spacing of the first panel, which both rules miss, integrates to about
    0 with a zero error estimate and raises nothing.  The oracle's own
    callers size the box in a frame fitted to the integrand for this
    reason.  The moment integrals and overlaps change variables to the
    packet's principal frame ``x = c + T (xi, eta)``, where the density is
    a product of two standard normals, each integrated over ``[-h, h]``
    (see :mod:`~gausspack.oracle.moments` and
    :mod:`~gausspack.oracle.overlap`), and the propagators to the complex
    principal frame of ``K psi``, where each target's integral is a
    product of two 1-D integrals over ``[-h, h]`` (see
    :mod:`~gausspack.oracle.propagate`); so the packet is never narrower
    than the box by more than a fixed factor, however long or thin it is.

    A rule value that is not finite is reported by the ``ToleranceError``
    alone: NumPy's invalid-operation warnings (``inf - inf`` in an error
    estimate, ``inf + -inf`` in a contraction) are silenced for the call,
    the integrand's own evaluation included.

    Raises
    ------
    InvalidParameterError
        If ``box`` is not an interval of positive length or a rectangle of
        positive area.
    ToleranceError
        If a rule value is not finite, or if some component's summed error
        estimate still exceeds ``10 * abs_tol`` when no panel can be split;
        raised once the panels already at ``max_splits``, which no split
        can lower, exceed it alone.
    """
    spec = spec or QuadratureSpec()
    if len(box) == 2:
        rule = gauss_legendre_1d
        if not box[1] - box[0] > 0:
            raise InvalidParameterError(f"interval must have positive length, got {box}")
    elif len(box) == 4:
        rule = gauss_legendre_2d
        if not (box[1] - box[0]) * (box[3] - box[2]) > 0:
            raise InvalidParameterError(f"box must have positive area, got {box}")
    else:
        raise InvalidParameterError(f"box must be (x0, x1) or (x0, x1, y0, y1), got {box}")

    seq = count()
    splittable: list[_Panel] = []  # heap, worst panel first
    finished: list[_Panel] = []  # panels at max_splits
    finished_err: np.ndarray | float = 0.0  # their summed estimate

    def add(bounds: Bounds, depth: int) -> np.ndarray:
        nonlocal finished_err
        coarse = rule(f, bounds, spec.order)
        fine = rule(f, bounds, spec.refined_order)
        err = np.abs(fine - coarse)
        # A NaN or inf in either rule leaves the difference, and so its
        # largest component, non-finite.
        worst = float(np.max(err, initial=0.0))
        if not math.isfinite(worst):
            raise ToleranceError(f"integrand is not finite on panel {bounds}")
        panel = _Panel(-worst, next(seq), bounds, depth, fine, err)
        if depth >= spec.max_splits:
            finished.append(panel)
            finished_err = finished_err + err
        else:
            heapq.heappush(splittable, panel)
        return err

    def leaf_errors() -> np.ndarray:
        return np.sum([panel.err for panel in finished + splittable], axis=0)

    def check_budget() -> None:
        worst = float(np.max(leaf_errors(), initial=0.0))
        if worst > 10.0 * spec.abs_tol:
            raise ToleranceError(
                f"quadrature error estimate {worst:.3e} exceeds budget "
                f"{spec.abs_tol:.3e} after {spec.max_splits} splits"
            )

    with np.errstate(invalid="ignore"):
        err_sum = add(tuple(box), 0)
        while splittable and np.any(err_sum > spec.abs_tol):
            worst_panel = heapq.heappop(splittable)
            err_sum = err_sum - worst_panel.err
            for part in _bisect(worst_panel.bounds):
                err_sum = err_sum + add(part, worst_panel.depth + 1)
            if finished and np.any(finished_err > 10.0 * spec.abs_tol):
                # Refusal is certain: the finished panels alone exceed it.
                check_budget()
            if not np.any(err_sum > spec.abs_tol):
                # The running sum is built by subtraction; confirm it from the
                # leaves before stopping.
                err_sum = leaf_errors()

    check_budget()
    total = np.sum([panel.fine for panel in finished + splittable], axis=0)
    return complex(total) if total.ndim == 0 else total
