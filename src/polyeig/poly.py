"""Dense univariate polynomials over an exact field.

Coefficients are stored in ascending degree order; the zero polynomial is
the empty tuple.  All operations return new values, inputs are never
mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldTag, same_field


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial; ``coeffs[k]`` is the coefficient of s^k.

    Invariant: the last stored coefficient is nonzero (zero polynomial is
    the empty tuple).
    """

    coeffs: tuple
    field: FieldTag

    @staticmethod
    def make(coeffs, field: FieldTag) -> "Poly":
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(tuple(cs), field)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.lead == self.field.one

    def __add__(self, other: "Poly") -> "Poly":
        f = same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly.make(out, f)

    def __neg__(self) -> "Poly":
        return Poly(tuple(self.field.neg(c) for c in self.coeffs), self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = same_field(self.field, other.field)
        if self.is_zero or other.is_zero:
            return Poly((), f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly.make(out, f)

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly.make([self.field.mul(c, a) for a in self.coeffs], self.field)

    def shift(self, k: int) -> "Poly":
        """Multiply by s^k."""
        if self.is_zero:
            return self
        return Poly((self.field.zero,) * k + self.coeffs, self.field)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.lead))

    def __divmod__(self, other: "Poly"):
        f = same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly((), f), self
        quot = [f.zero] * (dq + 1)
        inv_lead = f.inv(other.lead)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if not c:
                continue
            q = f.mul(c, inv_lead)
            quot[k] = q
            for i, b in enumerate(other.coeffs):
                rem[k + i] = f.sub(rem[k + i], f.mul(q, b))
        return Poly.make(quot, f), Poly.make(rem, f)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def eval(self, x):
        x = self.field.coerce(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*s" if c != self.field.one else "s")
            else:
                terms.append(f"{c}*s^{k}" if c != self.field.one else f"s^{k}")
        return " + ".join(terms)


def poly_zero(field: FieldTag) -> Poly:
    return Poly((), field)


def poly_one(field: FieldTag) -> Poly:
    return Poly((field.one,), field)


def poly_s(field: FieldTag) -> Poly:
    return Poly((field.zero, field.one), field)


def poly_divides(p: Poly, q: Poly) -> bool:
    """Whether p | q.  Everything divides zero; zero divides only zero; a
    nonzero constant divides everything, with no division."""
    same_field(p.field, q.field)
    if q.is_zero:
        return True
    if p.is_zero:
        return False
    return len(p.coeffs) == 1 or (q % p).is_zero


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    same_field(p.field, q.field)
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()
