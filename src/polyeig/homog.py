"""Homogeneous invariant factors as (finite part, power of t) pairs.

A pair (alpha, e) stands for the monic homogeneous bivariate polynomial
t^e * t^deg(alpha) * alpha(s/t).  Divisibility of two pairs is
componentwise: finite parts divide and the t-powers are ordered.

Out-of-range chain positions are represented by dedicated sentinels:
HOMOG_ONE (the unit, divides everything) for indices below the chain and
HOMOG_ZERO (divisible by everything, infinite t-power) for indices above
it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import same_field
from .poly import Poly, poly_divides, poly_lcm, poly_one


class _HomogSentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"HOMOG_{self.name}"


HOMOG_ONE = _HomogSentinel("ONE")
HOMOG_ZERO = _HomogSentinel("ZERO")


@dataclass(frozen=True)
class HomogPoly:
    """Monic homogeneous polynomial, encoded as finite part + t-multiplicity."""

    alpha: Poly
    e: int

    def __post_init__(self):
        if self.alpha.is_zero:
            raise ValueError("finite part must be nonzero")
        if not self.alpha.is_monic:
            raise ValueError("finite part must be monic")
        if self.e < 0:
            raise ValueError("t-multiplicity must be nonnegative")

    @property
    def field(self):
        return self.alpha.field

    @property
    def is_unit(self) -> bool:
        return self.e == 0 and self.alpha.degree == 0

    def __repr__(self):
        return f"({self.alpha}, t^{self.e})"


def homog_one(field) -> HomogPoly:
    """The unit chain entry as a concrete value (not the sentinel)."""
    return HomogPoly(poly_one(field), 0)


def homog_deg(phi) -> int:
    """Total homogeneous degree e + deg(alpha)."""
    if phi is HOMOG_ONE:
        return 0
    if phi is HOMOG_ZERO:
        raise ValueError("degree of the zero sentinel is undefined")
    return phi.e + phi.alpha.degree


def homog_divides(phi, psi) -> bool:
    if phi is HOMOG_ONE:
        return True
    if psi is HOMOG_ZERO:
        return True
    if phi is HOMOG_ZERO:
        return False
    if psi is HOMOG_ONE:
        return phi.is_unit
    same_field(phi.field, psi.field)
    return phi.e <= psi.e and poly_divides(phi.alpha, psi.alpha)


def homog_lcm(phi, psi):
    if phi is HOMOG_ZERO or psi is HOMOG_ZERO:
        return HOMOG_ZERO
    if phi is HOMOG_ONE:
        return psi
    if psi is HOMOG_ONE:
        return phi
    same_field(phi.field, psi.field)
    if phi.alpha == psi.alpha:  # lcm(a, a) = a for monic a
        return phi if phi.e >= psi.e else psi
    return HomogPoly(poly_lcm(phi.alpha, psi.alpha), max(phi.e, psi.e))


def is_divisibility_chain(chain) -> bool:
    return all(homog_divides(a, b) for a, b in zip(chain, chain[1:]))


def chain_at(chain, i: int):
    """1-based chain access with the unit/zero index conventions."""
    if i < 1:
        return HOMOG_ONE
    if i <= len(chain):
        return chain[i - 1]
    return HOMOG_ZERO
