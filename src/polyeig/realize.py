"""Constructive realization and exhaustive finite-field search.

A direct sum of companion and bidiagonal pencils realizes any feasible
eigenstructure of degree at most 1; for higher degrees over GF(p) an
exhaustive, budget-guarded enumeration serves as ground truth for the
feasibility checkers.
"""

from __future__ import annotations

import itertools

from .feasibility import check_existence
from .fields import FieldTag, same_field
from .homog import HomogPoly
from .matrix import (
    Eigenstructure,
    PolyMatrix,
    companion_form,
    eigenstructure,
)
from .poly import Poly, poly_one, poly_s
from .sequences import InternalError


class BudgetExceededError(RuntimeError):
    """Enumeration space larger than the allowed budget.  `size` is a count,
    a power such as "2^20000" for a search space, or a bound such as
    "at least 2^20198" for an oracle grid."""

    def __init__(self, size, budget):
        super().__init__(f"enumeration of {size} candidates exceeds budget {budget}")
        self.size = size
        self.budget = budget


def _bidiagonal(rows: int, cols: int, diag: Poly, sup: Poly) -> PolyMatrix:
    """rows x cols matrix with `diag` on the diagonal, `sup` just above it."""
    zero = Poly((), diag.field)
    grid = [[diag if j == i else sup if j == i + 1 else zero for j in range(cols)] for i in range(rows)]
    return PolyMatrix.make(grid, diag.field)


def _block_diag(blocks, m: int, n: int, field: FieldTag) -> PolyMatrix:
    """Direct sum of the blocks, zero-padded to m x n."""
    if sum(b.rows for b in blocks) > m or sum(b.cols for b in blocks) > n:
        raise InternalError("blocks exceed the requested dimensions")
    zero = Poly((), field)
    grid = [[zero] * n for _ in range(m)]
    i = j = 0
    for blk in blocks:
        for bi, row in enumerate(blk.entries):
            grid[i + bi][j : j + blk.cols] = row
        i += blk.rows
        j += blk.cols
    return PolyMatrix.make(grid, field)


def realize_low_degree(target: Eigenstructure, field: FieldTag) -> PolyMatrix:
    """Matrix of degree 0 or 1 with exactly the given eigenstructure: the
    direct sum of a companion pencil per finite part, I + sN per
    multiplicity at infinity, and an s/1 bidiagonal block per positive
    column minimal index (its transpose per positive row index)."""
    same_field(field, *(h.field for h in target.hom_factors))
    rep = check_existence(target)
    if not rep.feasible:
        raise ValueError(f"target is not realizable: {', '.join(rep.violations)}")
    if target.degree not in (0, 1):
        raise ValueError("direct realization covers degrees 0 and 1 only")
    one, s = poly_one(field), poly_s(field)
    if target.degree == 0:
        # only all-unit factors and zero indices pass the existence check
        blocks = [PolyMatrix(((one,),), field)] * target.rank
    else:
        factors = target.hom_factors
        blocks = [companion_form(PolyMatrix(((h.alpha,),), field)) for h in factors if h.alpha.degree >= 1]
        blocks += [_bidiagonal(h.e, h.e, one, s) for h in factors if h.e > 0]
        blocks += [_bidiagonal(k, k + 1, s, one) for k in target.col_indices if k > 0]
        blocks += [_bidiagonal(k, k + 1, s, one).transpose() for k in target.row_indices if k > 0]
    P = _block_diag(blocks, target.nrows, target.ncols, field)
    if eigenstructure(P) != target:
        raise InternalError("realization round-trip failed")
    return P


# --- exhaustive search over GF(p) -------------------------------------------


def _all_polys_up_to(field: FieldTag, dmax: int):
    """All polynomials of degree <= dmax, in lexicographic coefficient order."""
    for coeffs in itertools.product(field.elements(), repeat=dmax + 1):
        yield Poly.make(coeffs, field)


def all_completion_rows(field: FieldTag, z: int, n: int, dmax: int):
    """All z x n matrices with entry degrees <= dmax, lexicographic order.

    The entries are normalised polynomials over `field` made here, so the
    matrices are built directly, without the coercion and field checks of
    `PolyMatrix.make`."""
    if z < 1 or n < 1:
        raise ValueError("matrix must have at least one row and column")
    polys = list(_all_polys_up_to(field, dmax))
    for flat in itertools.product(polys, repeat=z * n):
        yield PolyMatrix(tuple(flat[i * n : (i + 1) * n] for i in range(z)), field)


def all_matrices(m: int, n: int, d: int, field: FieldTag):
    """All m x n matrices over GF(p) of degree exactly d, lexicographic."""
    for P in all_completion_rows(field, m, n, d):
        if max(e.degree for row in P.entries for e in row) == d:
            yield P


def search_space_size(field: FieldTag, z: int, n: int, dmax: int) -> int:
    return field.p ** (z * n * (dmax + 1))


def _ensure_budget(field: FieldTag, z: int, n: int, dmax: int, budget: int) -> None:
    """Raise BudgetExceededError unless the p^e matrices counted by
    `search_space_size` fit the budget.  p^e >= 2^(e (bits(p) - 1)), which
    exceeds the budget once that exponent reaches the budget's bit length;
    below it p^e has under twice the budget's bits."""
    p, e = field.p, z * n * (dmax + 1)
    if e * (p.bit_length() - 1) >= budget.bit_length() or p**e > budget:
        raise BudgetExceededError(f"{p}^{e}", budget)


def search_realization(target: Eigenstructure, field: FieldTag, budget: int):
    """First matrix of the target's shape and degree (lexicographic
    coefficient order) whose eigenstructure is `target`; None if none is."""
    same_field(field, *(h.field for h in target.hom_factors))
    if field.is_rational:
        raise ValueError("exhaustive search requires a finite field")
    m, n, d = target.nrows, target.ncols, target.degree
    _ensure_budget(field, m, n, d, budget)
    for P in all_matrices(m, n, d, field):
        if eigenstructure(P) == target:
            return P
    return None


# --- enumeration of candidate targets ---------------------------------------


def _monic_polys(field: FieldTag, deg: int, coeff_pool=None):
    if deg == 0:
        return [Poly.make([field.one], field)]
    pool = coeff_pool if coeff_pool is not None else field.elements()
    out = []
    for tail in itertools.product(pool, repeat=deg):
        out.append(Poly.make(list(tail) + [field.one], field))
    return out


def _partitions(total: int, parts: int):
    """Nonincreasing nonnegative integer sequences of given length and sum."""

    def rec(remaining, parts_left, cap):
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(min(remaining, cap), -1, -1):
            if first * parts_left < remaining:
                break
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    yield from rec(total, parts, total)


def _hom_chains(field: FieldTag, r: int, total: int, coeff_pool=None):
    """All divisibility chains of r homogeneous factors with e_1 = 0 and
    homogeneous degrees summing to the given total."""

    def rec(pos, alpha, e, remaining):
        if pos > r:
            if remaining == 0:
                yield ()
            return
        weight = r - pos + 1  # each increment at position pos recurs in all later factors
        max_step = remaining // weight
        for step in range(max_step + 1):
            de_max = 0 if pos == 1 else step
            for de in range(de_max + 1):
                dm = step - de
                for mult in _monic_polys(field, dm, coeff_pool):
                    new_alpha = alpha * mult if dm > 0 else alpha
                    entry = HomogPoly(new_alpha, e + de)
                    for rest in rec(pos + 1, new_alpha, e + de, remaining - weight * step):
                        yield (entry,) + rest

    yield from rec(1, poly_one(field), 0, total)


def enumerate_targets(
    m: int,
    n: int,
    z: int,
    d: int,
    field: FieldTag,
    budget: int | None = None,
    coeff_pool=None,
):
    """All a-priori admissible full eigenstructures of an (m+z) x n matrix
    of degree d: positive rank, divisibility chain with no root of the
    first factor at infinity, and the index sum identity.

    Over the rationals a finite coefficient pool must be supplied for the
    monic finite parts; over GF(p) the whole field is used by default.
    """
    if field.is_rational and coeff_pool is None:
        raise ValueError("enumeration over the rationals needs a coefficient pool")
    count = 0
    for r in range(1, min(m + z, n) + 1):
        total = r * d
        for s_hom in range(total + 1):
            for chain in _hom_chains(field, r, s_hom, coeff_pool):
                for s_col in range(total - s_hom + 1):
                    s_row = total - s_hom - s_col
                    for cols in _partitions(s_col, n - r):
                        for rows_idx in _partitions(s_row, m + z - r):
                            count += 1
                            if budget is not None and count > budget:
                                raise BudgetExceededError(count, budget)
                            yield Eigenstructure(
                                degree=d,
                                rank=r,
                                hom_factors=chain,
                                col_indices=cols,
                                row_indices=rows_idx,
                            )
