"""Constructive realization and exhaustive finite-field search.

The canonical Kronecker building blocks realize any feasible eigenstructure
of degree at most 1; for higher degrees over GF(p) an exhaustive,
budget-guarded enumeration serves as ground truth for the feasibility
checkers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .feasibility import check_existence
from .fields import FieldTag
from .homog import HomogPoly
from .matrix import Eigenstructure, PolyMatrix, degree_of, eigenstructure, stack_rows
from .poly import Poly, poly_one


class BudgetExceededError(RuntimeError):
    """Enumeration space larger than the allowed budget."""

    def __init__(self, size, budget):
        super().__init__(f"enumeration of {size} candidates exceeds budget {budget}")
        self.size = size
        self.budget = budget


@dataclass(frozen=True)
class Companion:
    alpha: Poly

    def __post_init__(self):
        if not self.alpha.is_monic or self.alpha.degree < 1:
            raise ValueError("companion block needs a monic polynomial of positive degree")


@dataclass(frozen=True)
class InfinityBlock:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("infinity block size must be at least 1")


@dataclass(frozen=True)
class ColumnSingular:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("singular block index must be nonnegative")


@dataclass(frozen=True)
class RowSingular:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("singular block index must be nonnegative")


@dataclass(frozen=True)
class SearchBudget:
    """Cap on exhaustive enumeration size; refused up front when exceeded."""

    limit: int


def _companion_pencil(alpha: Poly) -> PolyMatrix:
    """k x k pencil with single nontrivial invariant factor alpha."""
    f = alpha.field
    k = alpha.degree
    a = alpha.coeffs  # ascending; monic, so a[k] == 1
    rows = []
    first = [Poly.make([a[k - 1], f.one], f)]
    first += [Poly.make([a[k - 1 - j]], f) for j in range(1, k)]
    rows.append(tuple(first))
    for i in range(1, k):
        row = []
        for j in range(k):
            if j == i - 1:
                row.append(Poly.make([f.neg(f.one)], f))
            elif j == i:
                row.append(Poly.make([f.zero, f.one], f))
            else:
                row.append(Poly((), f))
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows), f)


def kronecker_block(kind, field: FieldTag | None = None) -> PolyMatrix:
    """The canonical pencil block for the given kind.

    Singular blocks of index 0 are degenerate (a single zero row or
    column) and are rejected here; the realization handles zero indices
    by zero padding instead.
    """
    if isinstance(kind, Companion):
        return _companion_pencil(kind.alpha)
    if field is None:
        raise ValueError("field required for parameterized blocks")
    f = field
    s, one, zero = Poly.make([f.zero, f.one], f), Poly.make([f.one], f), Poly((), f)
    if isinstance(kind, InfinityBlock):
        k = kind.k
        return PolyMatrix.make(
            [[one if i == j else s if j == i + 1 else zero for j in range(k)] for i in range(k)],
            f,
        )
    if isinstance(kind, ColumnSingular):
        k = kind.k
        if k == 0:
            raise ValueError("index-0 singular block is a bare zero column")
        return PolyMatrix.make(
            [[s if i == j else one if j == i + 1 else zero for j in range(k + 1)] for i in range(k)],
            f,
        )
    if isinstance(kind, RowSingular):
        k = kind.k
        if k == 0:
            raise ValueError("index-0 singular block is a bare zero row")
        return kronecker_block(ColumnSingular(k), f).transpose()
    raise ValueError(f"unknown block kind: {kind!r}")


def _block_diag(blocks, m: int, n: int, field: FieldTag) -> PolyMatrix:
    """Direct sum of the blocks, zero-padded to m x n."""
    zero = Poly((), field)
    grid = [[zero] * n for _ in range(m)]
    i = j = 0
    for blk in blocks:
        for bi in range(blk.rows):
            for bj in range(blk.cols):
                grid[i + bi][j + bj] = blk.entry(bi, bj)
        i += blk.rows
        j += blk.cols
    if i > m or j > n:
        raise ValueError("blocks exceed the requested dimensions")
    return PolyMatrix.make(grid, field)


def realize_low_degree(target: Eigenstructure, field: FieldTag) -> PolyMatrix:
    """Matrix of degree 0 or 1 with exactly the given eigenstructure."""
    rep = check_existence(target)
    if not rep.feasible:
        raise ValueError(f"target is not realizable: {', '.join(rep.violations)}")
    if target.degree not in (0, 1):
        raise ValueError("direct realization covers degrees 0 and 1 only")
    m, n, r = target.nrows, target.ncols, target.rank
    f = field
    if target.degree == 0:
        # only all-unit factors and zero indices pass the existence check
        one, zero = Poly.make([f.one], f), Poly((), f)
        grid = [[one if i == j and i < r else zero for j in range(n)] for i in range(m)]
        P = PolyMatrix.make(grid, f)
    else:
        blocks = []
        for h in target.hom_factors:
            if h.alpha.degree >= 1:
                blocks.append(kronecker_block(Companion(h.alpha), f))
        for h in target.hom_factors:
            if h.e > 0:
                blocks.append(kronecker_block(InfinityBlock(h.e), f))
        for k in target.col_indices:
            if k > 0:
                blocks.append(kronecker_block(ColumnSingular(k), f))
        for k in target.row_indices:
            if k > 0:
                blocks.append(kronecker_block(RowSingular(k), f))
        P = _block_diag(blocks, m, n, f)
        assert degree_of(P) == 1
    got = eigenstructure(P)
    assert got == target, "realization round-trip failed (internal bug)"
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


def search_space_size(field: FieldTag, z: int, n: int, dmax: int) -> int:
    return field.p ** (z * n * (dmax + 1))


def search_completion(P: PolyMatrix, z: int, dmax: int, predicate, budget: SearchBudget):
    """First completion W (lexicographic coefficient order) such that the
    eigenstructure of [P; W] satisfies the predicate; None if exhausted."""
    if P.field.is_rational:
        raise ValueError("exhaustive search requires a finite field")
    size = search_space_size(P.field, z, P.cols, dmax)
    if size > budget.limit:
        raise BudgetExceededError(size, budget.limit)
    for W in all_completion_rows(P.field, z, P.cols, dmax):
        if predicate(eigenstructure(stack_rows(P, W))):
            return W
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
    if parts == 0:
        if total == 0:
            yield ()
        return

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
                                nrows=m + z,
                                ncols=n,
                            )
