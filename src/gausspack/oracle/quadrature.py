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
factors as ``a[t](x) g(x, y) b[t](y)`` with ``g`` a Gaussian, the triple
``(a, Gaussian(...), b)`` (see :func:`gauss_legendre_2d`).  All components
then share one partition, a panel is ranked by its largest component
error, and refinement goes on until every component's summed estimate
meets the budget.

The rule evaluates a :class:`Gaussian` itself, in the panel's own
coordinates ``x = xc + h t``, ``y = yc + k s`` on nodes ``t, s``: its
modulus is one real ``exp`` over the ``n x n`` nodes, its ``x``-only and
``y``-only phases are two length-``n`` rows folded into ``a`` and ``b``,
and the cross phase ``exp(i Im(xy) h k t s)`` depends on the panel only
through ``Im(xy) h k``, so it is read from a small cache.  A pass thus
takes no complex exponential over the nodes, except the first pass with a
given ``(order, Im(xy) h k)``, which fills the cache entry.  The modulus is
never split into row factors: on a wide panel of a strongly correlated
Gaussian the cross term alone can exceed the range of ``exp``.
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

__all__ = ["Gaussian", "QuadratureSpec", "gauss_legendre_2d", "integrate_adaptive"]


@dataclass(frozen=True)
class QuadratureSpec(Record, name="quadrature"):
    """Knobs for the adaptive integrator.

    ``abs_tol`` bounds the error estimate summed over all panels of the
    box, per component; a panel's estimate is the difference between its
    ``order`` and ``refined_order`` rules.  The worst panel is split until
    the sum meets ``abs_tol`` or every panel has had ``max_splits``
    bisections; a sum still above ``10 * abs_tol`` then raises
    :class:`~gausspack.errors.ToleranceError`.  ``half_width_sigmas``
    (``h``) sets how far the oracle's integration boxes extend, in standard
    deviations of the density: moments integrate over ``[-h, h]^2`` in the
    packet's principal frame (each axis of a box in any other frame spans
    ``h`` of the density's standard deviation along it), and propagators
    and overlaps over the lab-frame square of half-width ``h`` times the
    largest principal standard deviation.  The counts must be integers (an
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


class Gaussian(NamedTuple):
    """``g = exp(xx u^2 + xy u v + yy v^2 + x u + y v + const)``, ``u = x - x0``, ``v = y - y0``.

    The six coefficients may be complex; a Gaussian whose coefficients are
    all real numbers is evaluated in real arithmetic.  The origin
    ``(x0, y0)`` defaults to ``(0, 0)``; placing it at the Gaussian's peak
    keeps the exponent of a far-displaced, strongly correlated Gaussian
    free of the cancellation between its quadratic and linear terms.
    """

    xx: complex
    xy: complex
    yy: complex
    x: complex
    y: complex
    const: complex
    x0: float = 0.0
    y0: float = 0.0

    @property
    def is_real(self) -> bool:
        return not any(isinstance(c, complex) for c in self[:6])


#: Maps the node grids ``X, Y`` to a dense stack of values or to the
#: triple ``(a, Gaussian, b)``; see :func:`gauss_legendre_2d`.
Integrand = Callable[
    [np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, Gaussian, np.ndarray]
]


@lru_cache(maxsize=32)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=32)
def _node_products(order: int) -> np.ndarray:
    """Read-only ``t_i t_j`` over the order's nodes."""
    t, _ = _nodes(order)
    products = np.multiply.outer(t, t)
    products.flags.writeable = False
    return products


#: Cross-phase matrices kept.  An integral takes about two keys per
#: bisection depth (one per rule order), so this covers a propagator call
#: to depth 8 in about 0.85 MB.
_CROSS_PHASES = 32


@lru_cache(maxsize=_CROSS_PHASES)
def _weighted_cross_phase(order: int, phase: float) -> np.ndarray:
    """Read-only ``exp(i phase t_i t_j) w_j`` over the order's nodes."""
    _, w = _nodes(order)
    matrix = np.exp(1j * phase * _node_products(order)) * w
    matrix.flags.writeable = False
    return matrix


def _gaussian_on_panel(
    g: Gaussian, centre: tuple[float, float], half: tuple[float, float], order: int
) -> tuple[np.ndarray | float, np.ndarray, np.ndarray | float]:
    """``(p, core, q)`` with ``g(xc + h t_i, yc + k t_j) w_j = p[i] core[i, j] q[j]``.

    The exponent is re-expanded about the panel centre ``(xc, yc)`` in the
    scaled offsets ``t = (x - xc) / h`` and ``s = (y - yc) / k``:
    ``e0 + ex t + ey s + xx h^2 t^2 + xy h k t s + yy k^2 s^2``.  For a
    real Gaussian ``p`` and ``q`` are 1.
    """
    t, w = _nodes(order)
    h, k = half
    xc, yc = centre[0] - g.x0, centre[1] - g.y0
    e0 = (g.xx * xc + g.xy * yc + g.x) * xc + (g.yy * yc + g.y) * yc + g.const
    row_x = e0 + t * ((2.0 * g.xx * xc + g.xy * yc + g.x) * h + t * (g.xx * h * h))
    row_y = t * ((2.0 * g.yy * yc + g.xy * xc + g.y) * k + t * (g.yy * k * k))
    cross = g.xy * (h * k)
    exponent = np.multiply(_node_products(order), cross.real)
    exponent += row_x.real[:, None]
    exponent += row_y.real
    modulus = np.exp(exponent, out=exponent)
    if g.is_real:
        return 1.0, np.multiply(modulus, w, out=modulus), 1.0
    core = modulus * _weighted_cross_phase(order, cross.imag)
    return np.exp(1j * row_x.imag), core, np.exp(1j * row_y.imag)


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
    ``values[t, i, j] = a[t, i] * g(x_i, y_j) * b[t, j]``, with ``g`` a
    :class:`Gaussian`, may return the triple ``(a, g, b)`` instead, with
    ``a`` and ``b`` of shape ``(T, order)``.  The rule evaluates ``g``
    itself on the panel (see the module docstring) as ``p[i] core[i, j]
    q[j]``, with the weights in ``core``, and contracts
    ``sum_j ((a p w) @ core)[t, j] (b q)[t, j]``: one real ``exp`` over the
    nodes, one ``(T, order) x (order, order)`` product and one row sum; the
    ``(T, order, order)`` stack is never built.  The result has shape
    ``(T,)`` as for the dense stack.
    """
    x0, x1, y0, y1 = box
    t, w = _nodes(order)
    h, k = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    xc, yc = 0.5 * (x1 + x0), 0.5 * (y1 + y0)
    xs = h * t + xc
    ys = k * t + yc
    values = f(_axis_grid(xs, 0), _axis_grid(ys, 1))
    jac = 0.25 * (x1 - x0) * (y1 - y0)
    if isinstance(values, tuple):
        a, g, b = values
        p, core, q = _gaussian_on_panel(g, (xc, yc), (h, k), order)
        result = jac * np.sum(((a * (p * w)) @ core) * (b * q), axis=-1)
    else:
        result = jac * (np.asarray(values) @ w @ w)
    return complex(result) if result.ndim == 0 else result.astype(complex, copy=False)


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
    callers derive the box from the packet's widths for this reason.  The
    moment integrals go further and change variables to the packet's
    principal frame ``x = c + T (xi, eta)``, where the density is a
    standard normal on the square ``[-h, h]^2``, so no feature is narrower
    than the box by more than a fixed factor, however long or thin the
    packet (see :mod:`~gausspack.oracle.moments`).  Propagators and
    overlaps still use a lab-frame square sized by the packet's longest
    axis, which a narrow enough packet slips through.

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
        # A NaN or inf in either rule leaves the difference, and so its
        # largest component, non-finite.
        worst = float(np.max(err, initial=0.0))
        if not math.isfinite(worst):
            raise ToleranceError(f"integrand is not finite on panel {bounds}")
        panel = _Panel(-worst, next(seq), bounds, depth, fine, err)
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
