"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Rational scalars are `fractions.Fraction` values (always kept reduced);
GF(p) scalars are plain ints in [0, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sequences import ensure_ints


class FieldMismatchError(ValueError):
    """Operands live over different coefficient fields."""


# Miller-Rabin with the primes up to 41 as bases is exact below the least strong
# pseudoprime to all of them, MAX_CHARACTERISTIC + 1 (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961980


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p above MAX_CHARACTERISTIC is refused."""
    if p > MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic above {MAX_CHARACTERISTIC} is not supported, got {p}")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * d, d odd
    for b in _MR_BASES:
        x = pow(b, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldTag:
    """Coefficient field: the rationals when ``p is None``, otherwise GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        ensure_ints((self.p,), "characteristic")
        if not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    def coerce(self, value):
        """A field element from `value`: an int or a Fraction over Q, an int
        over GF(p).  Nothing is converted: 0.1, True and "5" are refused, and
        so is 1/2 over GF(p)."""
        if self.p is None:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ValueError(f"Q elements must be ints or Fractions, got {value!r}")
            return Fraction(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{self.name} elements must be ints, got {value!r}")
        return value % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)

    def elements(self):
        """All field elements; only available for finite fields."""
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        return range(self.p)

    def __repr__(self):
        return self.name


QQ = FieldTag()


def GF(p: int) -> FieldTag:
    return FieldTag(p)


def is_digits(text: str) -> bool:
    """Plain ASCII digits only: int() would also take "1_0", " 1" or "+1"."""
    return text.isascii() and text.isdigit()


def parse_gf(name: str) -> FieldTag:
    """GF(p) from its name gf<p>, in any case, with p in plain ASCII digits."""
    low = name.lower()
    if not low.startswith("gf") or not is_digits(low[2:]):
        raise ValueError(f"unknown field {name!r}: expected gf<p> with p in ASCII digits")
    return GF(int(low[2:]))


def same_field(*tags: FieldTag) -> FieldTag:
    first = tags[0]
    for t in tags[1:]:
        if t != first:
            raise FieldMismatchError(f"mixed fields: {first} vs {t}")
    return first
