"""Polynomial observables in positions and momenta, with operator ordering.

An :class:`Observable` is a complex linear combination of normal-ordered
monomials ``x^a y^b Px^c Py^d`` where ``Px = -i hbar d/dx`` and
``Py = -i hbar d/dy`` act to the right.  Products are reduced back to normal
order with the exact commutation rule

    Px^c x^k = sum_j  C(c, j) * k!/(k-j)! * (-i hbar)^j * x^(k-j) Px^(c-j)

so squares of Hamiltonians and angular momentum come out with every
hbar-order term intact.  The expectation engine in :mod:`.moments` consumes
these term dictionaries directly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Tuple

from ..constants import HBAR

__all__ = [
    "Observable",
    "position_monomial",
    "momentum_monomial",
    "angular_momentum_op",
    "oscillator_hamiltonian_op",
    "magnetic_hamiltonian_op",
]

Key = Tuple[int, int, int, int]  # exponents of x, y, Px, Py


def _falling(n: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= n - i
    return out


class Observable:
    """A complex polynomial in ``x, y, Px, Py`` kept in normal order."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, complex] | None = None):
        self.terms: Dict[Key, complex] = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(key, complex(coeff))

    def _accumulate(self, key: Key, coeff: complex) -> None:
        if coeff == 0:
            return
        new = self.terms.get(key, 0.0) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __iter__(self) -> Iterator[tuple[Key, complex]]:
        return iter(self.terms.items())

    def __add__(self, other: "Observable") -> "Observable":
        out = Observable(dict(self.terms))
        for key, coeff in other.terms.items():
            out._accumulate(key, coeff)
        return out

    def __sub__(self, other: "Observable") -> "Observable":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Observable":
        return Observable({key: scalar * coeff for key, coeff in self.terms.items()})

    def __mul__(self, other):
        """Operator product, reduced to normal order; scalars also accepted."""
        if not isinstance(other, Observable):
            return Observable({key: coeff * other for key, coeff in self.terms.items()})
        out = Observable()
        for (a1, b1, c1, d1), k1 in self.terms.items():
            for (a2, b2, c2, d2), k2 in other.terms.items():
                base = k1 * k2
                for j in range(min(c1, a2) + 1):
                    cx = math.comb(c1, j) * _falling(a2, j) * (-1j * HBAR) ** j
                    for k in range(min(d1, b2) + 1):
                        cy = math.comb(d1, k) * _falling(b2, k) * (-1j * HBAR) ** k
                        out._accumulate(
                            (a1 + a2 - j, b1 + b2 - k, c1 + c2 - j, d1 + d2 - k),
                            base * cx * cy,
                        )
        return out

    def squared(self) -> "Observable":
        return self * self

    @property
    def degree(self) -> int:
        """Maximum total monomial degree (positions plus momenta)."""
        return max(map(sum, self.terms), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"({coeff:.6g}) x^{a} y^{b} Px^{c} Py^{d}"
            for (a, b, c, d), coeff in sorted(self.terms.items())
        ]
        return " + ".join(parts) if parts else "0"


def position_monomial(a: int, b: int) -> Observable:
    """The multiplication operator ``x^a y^b``."""
    return Observable({(a, b, 0, 0): 1.0})


def momentum_monomial(c: int, d: int) -> Observable:
    """The momentum monomial ``Px^c Py^d``."""
    return Observable({(0, 0, c, d): 1.0})


def angular_momentum_op() -> Observable:
    """Orbital angular momentum ``x Py - y Px``."""
    return Observable({(1, 0, 0, 1): 1.0, (0, 1, 1, 0): -1.0})


def oscillator_hamiltonian_op(mass: float, omega: float) -> Observable:
    """Isotropic oscillator ``(Px^2 + Py^2)/2m + m w^2 (x^2 + y^2)/2``."""
    kin = 1.0 / (2.0 * mass)
    pot = 0.5 * mass * omega**2
    return Observable(
        {
            (0, 0, 2, 0): kin,
            (0, 0, 0, 2): kin,
            (2, 0, 0, 0): pot,
            (0, 2, 0, 0): pot,
        }
    )


def magnetic_hamiltonian_op(mass: float, omega: float, omega_larmor: float) -> Observable:
    """Charged particle in a uniform field plus optional oscillator well.

    In the symmetric gauge the Hamiltonian takes the form of an isotropic
    oscillator at the shifted frequency ``sqrt(omega^2 + omega_larmor^2)``
    minus ``omega_larmor`` times the angular momentum.
    """
    omega_eff = math.hypot(omega, omega_larmor)
    return oscillator_hamiltonian_op(mass, omega_eff) + (-omega_larmor) * angular_momentum_op()
