"""Multi-start derivative-free minimization used by the energy checks.

The searches are deliberately agnostic: they pound on a black-box objective
from many random starting points with Nelder-Mead and report the best value
found, so an analytic lower bound can be tested without trusting any
gradient information derived from the same algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def minimize_free(
    objective: Callable[[np.ndarray], float],
    sample_start: Callable[[np.random.Generator], np.ndarray],
    n_starts: int = 24,
    seed: int = DEFAULT_SEED,
) -> MinimizeOutcome:
    """Minimize a black-box objective from many random starting points.

    The objective may return ``inf`` outside its feasible region; starts are
    redrawn (up to a generous retry budget) until they are feasible.  The
    starts run one after another in start order, and the best value wins
    with ties going to the earliest start.  SciPy is imported here, on the
    first search, so importing :mod:`gausspack` does not load it.
    """
    from scipy.optimize import minimize as scipy_minimize

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

    results = []
    for start in starts:
        res = scipy_minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"fatol": _FATOL, "xatol": _XATOL, "maxfev": _MAX_EVALUATIONS, "adaptive": True},
        )
        results.append((float(res.fun), np.asarray(res.x), int(res.nfev)))

    values = tuple(r[0] for r in results)
    total_evals = sum(r[2] for r in results)
    best_idx = min(range(len(results)), key=lambda i: (results[i][0], i))
    return MinimizeOutcome(
        best_value=results[best_idx][0],
        best_point=results[best_idx][1],
        start_values=values,
        n_evaluations=total_evals,
    )
