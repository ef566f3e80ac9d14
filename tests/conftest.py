import random
from functools import cache
from itertools import combinations

import pytest

from polyeig import GF, QQ, HomogPoly, Poly, PolyMatrix, homog_deg, poly_gcd, poly_one, poly_zero


@pytest.fixture
def rng():
    return random.Random(20260823)


def random_matrix(rng, m, n, d, field, coeff_range=(-3, 3)):
    """Random m x n matrix of degree exactly d."""
    while True:
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                if field.is_rational:
                    coeffs = [rng.randint(*coeff_range) for _ in range(d + 1)]
                else:
                    coeffs = [rng.randrange(field.p) for _ in range(d + 1)]
                row.append(Poly.make(coeffs, field))
            rows.append(row)
        P = PolyMatrix.make(rows, field)
        if not P.is_zero and max(e.degree for r in P.entries for e in r) == d:
            return P


FIELDS = [QQ, GF(2), GF(3)]


def product(A, B, field):
    """The product of two matrices given as lists of rows of Poly."""
    return [[sum((a * b for a, b in zip(row, col)), poly_zero(field)) for col in zip(*B)] for row in A]


def ref_lcm(f, g):
    """lcm of two HomogPoly in polynomial arithmetic: the lcm of the finite
    parts with the larger t-power."""
    alpha = (f.alpha * g.alpha) // poly_gcd(f.alpha, g.alpha)
    return HomogPoly(alpha.monic(), max(f.e, g.e))


def ref_dls(phi, gamma, offset, upper):
    """Sum over i = 1..upper of deg lcm(phi_{i+offset}, gamma_i) on the
    HomogPoly chains, a position below phi being the unit: the reference
    for the checkers' sums over their lcm-degree table."""
    total = 0
    for i in range(1, upper + 1):
        k = i + offset
        total += homog_deg(ref_lcm(phi[k - 1], gamma[i - 1]) if k >= 1 else gamma[i - 1])
    return total


def ref_det(rows, field):
    """Determinant of a square matrix of Poly by Laplace expansion along
    the rows, memoised on the columns left."""
    n = len(rows)

    @cache
    def minor(cols):
        if not cols:
            return poly_one(field)
        total = poly_zero(field)
        for k, j in enumerate(cols):
            term = rows[n - len(cols)][j] * minor(cols[:k] + cols[k + 1:])
            total = total + term if k % 2 == 0 else total - term
        return total

    return minor(tuple(range(n)))


def ref_invariant_factors(P):
    """Smith form by determinantal divisors: d_k is the monic gcd of all
    k x k minors, a_k = d_k / d_(k-1), up to the largest k with a nonzero
    minor."""
    f = P.field
    divisors = [poly_one(f)]
    for k in range(1, min(P.rows, P.cols) + 1):
        d = poly_zero(f)
        for rs in combinations(range(P.rows), k):
            for cs in combinations(range(P.cols), k):
                minor = ref_det([[P.entries[r][c] for c in cs] for r in rs], f)
                if not minor.is_zero:
                    d = poly_gcd(d, minor)
        if d.is_zero:
            break
        divisors.append(d)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))
