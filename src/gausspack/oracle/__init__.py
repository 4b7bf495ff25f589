"""Independent numerical cross-checks for the closed-form results.

Nothing in this subpackage reuses the algebraic shortcuts of the main
modules: expectation values go through 1-D quadrature of the density's
moments in the packet's principal frame, overlaps through adaptive
quadrature of the wavefunction in that frame, fourth moments through
Gauss-Hermite sums over the phase-space Gaussian, time evolution through
explicit propagator integrals, and minima through derivative-free search.  The main test suite pits these routes
against the closed forms.
"""

from .quadrature import QuadratureSpec, gauss_legendre_2d, integrate_adaptive
from .observables import Observable, momentum_monomial, position_monomial
from .moments import expectation, norm_integral, wigner_fourth_moment
from .minimize import MinimizeOutcome, minimize_free
from .overlap import overlap_integral, overlap_integrals
from .propagate import propagate_free, propagate_magnetic, propagate_oscillator

__all__ = [
    "QuadratureSpec",
    "gauss_legendre_2d",
    "integrate_adaptive",
    "Observable",
    "position_monomial",
    "momentum_monomial",
    "expectation",
    "norm_integral",
    "wigner_fourth_moment",
    "MinimizeOutcome",
    "minimize_free",
    "overlap_integral",
    "overlap_integrals",
    "propagate_free",
    "propagate_oscillator",
    "propagate_magnetic",
]
