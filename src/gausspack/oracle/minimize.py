"""Multi-start derivative-free minimization used by the energy checks.

The searches are deliberately agnostic: they pound on a black-box objective
from many random starting points with Nelder-Mead and report the best value
found, so an analytic lower bound can be tested without trusting any
gradient information derived from the same algebra.

The Nelder-Mead search is the adaptive variant of Gao and Han (Comput.
Optim. Appl. 51, 259 (2012)), written out in plain Python over lists: the
simplices here have at most six vertices, where array bookkeeping costs
more than the arithmetic.  It takes SciPy's initial simplex, step order,
stopping test and evaluation budget, so on objectives without tied values
it returns SciPy's ``fun``, ``x`` and ``nfev`` bit for bit; ties are sorted
stably, by vertex order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from ..constants import DEFAULT_SEED
from ..errors import InvalidParameterError

__all__ = ["MinimizeOutcome", "minimize_free"]

#: Nelder-Mead stopping tests on the simplex's values and vertices, and the
#: evaluation budget of one start.
_FATOL = 1e-10
_XATOL = 1e-10
_MAX_EVALUATIONS = 100_000


@dataclass(frozen=True)
class MinimizeOutcome:
    """Result of a multi-start search.

    ``start_values`` holds the best objective value reached from each start
    in start order, so callers can tell a sharp global minimum (many starts
    agree) from a lucky single hit.
    """

    best_value: float
    best_point: np.ndarray
    start_values: tuple[float, ...]
    n_evaluations: int

    @property
    def n_starts(self) -> int:
        return len(self.start_values)


class _Exhausted(Exception):
    """The evaluation budget ran out in the middle of a step."""


_value = itemgetter(0)


def _nelder_mead(
    objective: Callable[[np.ndarray], float],
    start: list[float],
    maxfev: int = _MAX_EVALUATIONS,
) -> tuple[float, list[float], int]:
    """Adaptive Nelder-Mead from ``start``: ``(best value, best point, evaluations)``.

    The coefficients follow the dimension n: reflection 1, expansion
    1 + 2/n, contraction 3/4 - 1/(2n) and shrink 1 - 1/n.  The search stops
    when every value lies within ``_FATOL`` of the best value and every
    vertex within ``_XATOL`` of the best vertex, coordinate by coordinate,
    or when ``maxfev`` evaluations are spent.  A NaN value counts as
    ``inf``, which keeps the sort well defined.
    """
    n = len(start)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    nfev = 0

    def evaluate(point: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        value = float(objective(np.array(point)))
        return math.inf if math.isnan(value) else value

    # The start, then each coordinate in turn grown by 5 % (or set to
    # 0.00025 where it is zero); vertices left unevaluated count as inf.
    simplex = [(math.inf, start)] + [
        (math.inf, start[:k] + [1.05 * start[k] if start[k] != 0 else 0.00025] + start[k + 1:])
        for k in range(n)
    ]
    try:
        for k, (_, point) in enumerate(simplex):
            simplex[k] = (evaluate(point), point)
    except _Exhausted:
        pass
    simplex.sort(key=_value)

    while nfev < maxfev:
        f_best, best = simplex[0]
        rest = simplex[1:]
        if all(abs(f_best - f) <= _FATOL for f, _ in rest) and all(
            abs(a - b) <= _XATOL for _, point in rest for a, b in zip(point, best)
        ):
            break
        try:
            total = best
            for _, point in simplex[1:-1]:
                total = [a + b for a, b in zip(total, point)]
            centroid = [a / n for a in total]
            f_worst, worst = simplex[-1]
            reflected = [2 * c - w for c, w in zip(centroid, worst)]
            f_reflected = evaluate(reflected)
            if f_reflected < f_best:
                expanded = [(1 + chi) * c - chi * w for c, w in zip(centroid, worst)]
                f_expanded = evaluate(expanded)
                if f_expanded < f_reflected:
                    simplex[-1] = (f_expanded, expanded)
                else:
                    simplex[-1] = (f_reflected, reflected)
            elif f_reflected < simplex[-2][0]:
                simplex[-1] = (f_reflected, reflected)
            else:
                if f_reflected < f_worst:
                    contracted = [(1 + psi) * c - psi * w for c, w in zip(centroid, worst)]
                    f_contracted = evaluate(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    contracted = [(1 - psi) * c + psi * w for c, w in zip(centroid, worst)]
                    f_contracted = evaluate(contracted)
                    accept = f_contracted < f_worst
                if accept:
                    simplex[-1] = (f_contracted, contracted)
                else:
                    for j in range(1, n + 1):
                        point = [b + sigma * (p - b) for b, p in zip(best, simplex[j][1])]
                        simplex[j] = (evaluate(point), point)
        except _Exhausted:
            pass
        simplex.sort(key=_value)

    f_best, best = simplex[0]
    return f_best, best, nfev


def minimize_free(
    objective: Callable[[np.ndarray], float],
    sample_start: Callable[[np.random.Generator], np.ndarray],
    n_starts: int = 24,
    seed: int = DEFAULT_SEED,
) -> MinimizeOutcome:
    """Minimize a black-box objective from many random starting points.

    The objective takes a float array and may return ``inf`` outside its
    feasible region; starts are redrawn (up to a generous retry budget)
    until they are feasible.  Each start then runs one adaptive Nelder-Mead
    search with the tolerances ``_FATOL``/``_XATOL`` and a budget of
    ``_MAX_EVALUATIONS`` objective calls.  The starts run one after another
    in start order, and the best value wins with ties going to the earliest
    start.  No SciPy is involved.
    """
    if n_starts < 1:
        raise InvalidParameterError(f"n_starts must be >= 1, got {n_starts}")
    rng = np.random.default_rng(seed)
    starts = []
    attempts = 0
    while len(starts) < n_starts:
        candidate = np.asarray(sample_start(rng), dtype=float)
        attempts += 1
        if np.isfinite(objective(candidate)):
            starts.append(candidate)
        if attempts > 200 * n_starts:
            raise InvalidParameterError(
                "could not draw enough feasible starting points; "
                "the sampler and the objective's feasible region disagree"
            )

    results = [_nelder_mead(objective, start.ravel().tolist()) for start in starts]
    values = tuple(r[0] for r in results)
    best_idx = min(range(len(results)), key=lambda i: (results[i][0], i))
    return MinimizeOutcome(
        best_value=results[best_idx][0],
        best_point=np.array(results[best_idx][1]),
        start_values=values,
        n_evaluations=sum(r[2] for r in results),
    )
