"""Reference computations that do not use polyeig.

Matrices here are lists of rows of ascending integer coefficient lists,
the form in which the benchmark generates them.  Arithmetic is exact
(`fractions.Fraction` over Q, plain ints mod p over GF(p)).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def degree(mat) -> int:
    """Largest entry degree; -1 for the zero matrix."""
    best = -1
    for row in mat:
        for cs in row:
            for k in range(len(cs) - 1, -1, -1):
                if cs[k]:
                    best = max(best, k)
                    break
    return best


def evaluate(mat, x):
    """The constant matrix P(x) over Q."""
    out = []
    for row in mat:
        vals = []
        for cs in row:
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * x + c
            vals.append(acc)
        out.append(vals)
    return out


def _eliminate(rows):
    """Rank and determinant (of the leading square block) by Gaussian
    elimination over Q."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    rank, det = 0, Fraction(1)
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        p = a[rank][col]
        det *= p
        for i in range(rank + 1, m):
            if a[i][col]:
                f = a[i][col] / p
                a[i] = [u - f * v for u, v in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank, det


def normal_rank(mat) -> int:
    """Normal rank over Q(s): the largest rank of P(x) over
    min(m, n) * d + 1 distinct rational points.  A nonzero minor of order r
    has degree at most r * d, so it cannot vanish at all of them."""
    m, n, d = len(mat), len(mat[0]), max(degree(mat), 0)
    return max(_eliminate(evaluate(mat, Fraction(x)))[0] for x in range(min(m, n) * d + 1))


def det_degree(mat) -> int:
    """Degree of det P for square P, from values at 0..n*d and Newton
    forward differences: the degree is the last order whose difference at
    0 is nonzero.  -1 when det P is zero."""
    n, d = len(mat), max(degree(mat), 0)
    vals = [_eliminate(evaluate(mat, Fraction(x)))[1] for x in range(n * d + 1)]
    deg = -1
    for k in range(len(vals)):
        if vals[0]:
            deg = k
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return deg


def matmul(a, b):
    """Product of two integer polynomial matrices."""
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = [0] * max(len(x) + len(b[k][j]) - 1 for k, x in enumerate(row))
            for k, x in enumerate(row):
                for i, u in enumerate(x):
                    for l, v in enumerate(b[k][j]):
                        acc[i + l] += u * v
            new_row.append(acc)
        out.append(new_row)
    return out


def completions(p: int, z: int, n: int, d: int):
    """Every z x n matrix over GF(p) with entry degrees at most d."""
    entry = list(itertools.product(range(p), repeat=d + 1))
    for flat in itertools.product(entry, repeat=z * n):
        yield [[list(flat[i * n + j]) for j in range(n)] for i in range(z)]
