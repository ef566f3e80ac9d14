"""Homogeneous invariant factors as (finite part, power of t) pairs.

A pair (alpha, e) stands for the monic homogeneous bivariate polynomial
t^e * t^deg(alpha) * alpha(s/t).  Divisibility of two pairs is
componentwise: finite parts divide and the t-powers are ordered.  The
checkers compare chains of pairs through a table of lcm degrees (see
`feasibility`), so no lcm of pairs is formed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import same_field
from .poly import Poly, poly_divides, poly_one
from .sequences import ensure_ints


@dataclass(frozen=True)
class HomogPoly:
    """Monic homogeneous polynomial, encoded as finite part + t-multiplicity."""

    alpha: Poly
    e: int

    def __post_init__(self):
        if not isinstance(self.alpha, Poly):
            raise ValueError(f"finite part must be a Poly, got {self.alpha!r}")
        ensure_ints((self.e,), "t-multiplicity")
        if self.alpha.is_zero:
            raise ValueError("finite part must be nonzero")
        if not self.alpha.is_monic:
            raise ValueError("finite part must be monic")
        if self.e < 0:
            raise ValueError("t-multiplicity must be nonnegative")

    @property
    def field(self):
        return self.alpha.field

    def __repr__(self):
        return f"({self.alpha}, t^{self.e})"


def homog_one(field) -> HomogPoly:
    """The unit chain entry (1, t^0)."""
    return HomogPoly(poly_one(field), 0)


def homog_deg(phi: HomogPoly) -> int:
    """Total homogeneous degree e + deg(alpha)."""
    return phi.e + phi.alpha.degree


def homog_divides(phi: HomogPoly, psi: HomogPoly) -> bool:
    same_field(phi.field, psi.field)
    return phi.e <= psi.e and poly_divides(phi.alpha, psi.alpha)


def is_divisibility_chain(chain) -> bool:
    return all(homog_divides(a, b) for a, b in zip(chain, chain[1:]))


def ensure_chain(chain, error=ValueError) -> None:
    """Raise `error` unless `chain` is a divisibility chain of HomogPoly."""
    for h in chain:
        if not isinstance(h, HomogPoly):
            raise error(f"homogeneous factors must be HomogPoly, got {h!r}")
    if not is_divisibility_chain(chain):
        raise error("homogeneous factors must form a divisibility chain")
