"""Polynomial matrices over an exact field and their eigenstructure.

Covers degree, normal rank, reversal, Smith form, multiplicities at
infinity, minimal bases / minimal indices, the assembled eigenstructure,
and the first Frobenius companion linearization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldTag, same_field
from .homog import HomogPoly, is_divisibility_chain
from .poly import Poly, poly_zero
from .sequences import ensure_partition


class ZeroMatrixError(ValueError):
    """Operation undefined for the identically zero matrix."""


@dataclass(frozen=True)
class PolyMatrix:
    """m x n grid of polynomials over a common field."""

    entries: tuple  # tuple of row tuples of Poly
    field: FieldTag

    @staticmethod
    def make(rows, field: FieldTag) -> "PolyMatrix":
        ents = []
        width = None
        for row in rows:
            r = tuple(e if isinstance(e, Poly) else Poly.make(e, field) for e in row)
            for e in r:
                same_field(e.field, field)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("ragged rows")
            ents.append(r)
        if not ents or width == 0:
            raise ValueError("matrix must have at least one row and column")
        return PolyMatrix(tuple(ents), field)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(tuple(zip(*self.entries)), self.field)

    def coefficient_matrix(self, k: int):
        """Constant matrix of the s^k coefficients."""
        z = self.field.zero
        return [
            [e.coeffs[k] if k <= e.degree else z for e in row]
            for row in self.entries
        ]

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


@dataclass(frozen=True)
class MinimalBasis:
    """Polynomial vectors of least order spanning a rational null space."""

    vectors: tuple  # tuple of polynomial vectors (tuples of Poly)
    orders: tuple   # their degrees, nonincreasing

    def __post_init__(self):
        if len(self.vectors) != len(self.orders):
            raise ValueError("one order per vector")
        if any(a < b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("orders must be nonincreasing")


@dataclass(frozen=True)
class Eigenstructure:
    """Complete structural data of a nonzero polynomial matrix."""

    degree: int
    rank: int
    hom_factors: tuple  # divisibility chain of HomogPoly, length rank
    col_indices: tuple  # partition, length cols - rank
    row_indices: tuple  # partition, length rows - rank
    nrows: int
    ncols: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.rank < 0 or self.rank > min(self.nrows, self.ncols):
            raise ValueError("rank out of range")
        if len(self.hom_factors) != self.rank:
            raise ValueError("chain length must equal the rank")
        if len(self.col_indices) != self.ncols - self.rank:
            raise ValueError("column index count must be cols - rank")
        if len(self.row_indices) != self.nrows - self.rank:
            raise ValueError("row index count must be rows - rank")
        if not is_divisibility_chain(self.hom_factors):
            raise ValueError("homogeneous factors must form a divisibility chain")
        ensure_partition(self.col_indices, "column minimal indices")
        ensure_partition(self.row_indices, "row minimal indices")

    @property
    def alphas(self) -> tuple:
        return tuple(h.alpha for h in self.hom_factors)

    @property
    def inf_mults(self) -> tuple:
        return tuple(h.e for h in self.hom_factors)

    def index_sum_holds(self) -> bool:
        total = sum(h.e + h.alpha.degree for h in self.hom_factors)
        total += sum(self.col_indices) + sum(self.row_indices)
        return total == self.rank * self.degree


def degree_of(P: PolyMatrix) -> int:
    """Maximum entry degree; undefined for the zero matrix."""
    if P.is_zero:
        raise ZeroMatrixError("degree of the zero matrix is undefined")
    return max(e.degree for row in P.entries for e in row)


def stack_rows(P: PolyMatrix, W: PolyMatrix) -> PolyMatrix:
    same_field(P.field, W.field)
    if P.cols != W.cols:
        raise ValueError(f"column mismatch: {P.cols} vs {W.cols}")
    return PolyMatrix(P.entries + W.entries, P.field)


def reversal(P: PolyMatrix) -> PolyMatrix:
    """rev P(t) = t^d P(1/t) with d the matrix degree."""
    d = degree_of(P)
    rows = []
    for row in P.entries:
        new_row = []
        for e in row:
            cs = [P.field.zero] * (d + 1)
            for i, c in enumerate(e.coeffs):
                cs[d - i] = c
            new_row.append(Poly.make(cs, P.field))
        rows.append(tuple(new_row))
    return PolyMatrix(tuple(rows), P.field)


def smith_form(P: PolyMatrix) -> tuple:
    """Monic invariant factors a_1 | ... | a_r (r = rank), by gcd-pivot elimination."""
    A = [list(row) for row in P.entries]
    m, n = P.rows, P.cols
    diag = []
    for k in range(min(m, n)):
        while True:
            # locate a minimal-degree nonzero pivot in the trailing block
            pivot = None
            for i in range(k, m):
                for j in range(k, n):
                    if not A[i][j].is_zero and (
                        pivot is None or A[i][j].degree < A[pivot[0]][pivot[1]].degree
                    ):
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            A[k], A[pi] = A[pi], A[k]
            if pj != k:
                for row in A:
                    row[k], row[pj] = row[pj], row[k]
            piv = A[k][k]
            reduced = False
            for i in range(k + 1, m):
                if not A[i][k].is_zero:
                    q = A[i][k] // piv
                    if not q.is_zero:
                        A[i] = [A[i][j] - q * A[k][j] for j in range(n)]
                    if not A[i][k].is_zero:
                        reduced = True  # remainder of smaller degree remains
            for j in range(k + 1, n):
                if not A[k][j].is_zero:
                    q = A[k][j] // piv
                    if not q.is_zero:
                        for i in range(m):
                            A[i][j] = A[i][j] - q * A[i][k]
                    if not A[k][j].is_zero:
                        reduced = True
            if reduced:
                continue
            # pivot cleared its row and column; enforce divisibility below
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if not (A[i][j] % piv).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[k] = [A[k][j] + A[offender][j] for j in range(n)]
        if A[k][k].is_zero:
            break
        diag.append(A[k][k].monic())
    for a, b in zip(diag, diag[1:]):
        assert (b % a).is_zero, "invariant factors must form a divisibility chain"
    return tuple(diag)


def rank_of(P: PolyMatrix) -> int:
    """Normal rank over the rational function field."""
    return len(smith_form(P))


def infinite_multiplicities(P: PolyMatrix) -> tuple:
    """Partial multiplicities of infinity: t-adic valuations of the Smith
    form of the reversal."""
    revs = smith_form(reversal(P))
    mults = []
    for a in revs:
        e = 0
        while not a.coeffs[e]:
            e += 1
        mults.append(e)
    assert all(x <= y for x, y in zip(mults, mults[1:]))
    assert not mults or mults[0] == 0
    return tuple(mults)


# --- exact linear algebra over the base field -------------------------------


class _Span:
    """Incremental row space over the field, kept in echelon form."""

    def __init__(self, field: FieldTag):
        self.field = field
        self.rows = []  # (pivot column, row list)

    def reduce(self, vec):
        f = self.field
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                for i in range(pivot, len(v)):
                    if row[i]:
                        v[i] = f.sub(v[i], f.mul(c, row[i]))
        return v

    def add(self, vec):
        """Reduce vec against the span; if independent, absorb it and
        return the reduced representative, else return None."""
        f = self.field
        v = self.reduce(vec)
        pivot = next((i for i, c in enumerate(v) if c), None)
        if pivot is None:
            return None
        inv = f.inv(v[pivot])
        norm = [f.mul(inv, c) for c in v]
        self.rows.append((pivot, norm))
        self.rows.sort(key=lambda pr: pr[0])
        return v


def nullspace(rows, ncols: int, field: FieldTag):
    """Basis of the right nullspace of a constant matrix (list of rows)."""
    f = field
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = f.inv(mat[rank][col])
        mat[rank] = [f.mul(inv, c) for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [f.zero] * ncols
        v[free] = f.one
        for prow, pcol in zip(mat[:rank], pivots):
            v[pcol] = f.neg(prow[free])
        basis.append(v)
    return basis


def matrix_rank_constant(rows, field: FieldTag) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    return ncols - len(nullspace(rows, ncols, field))


# --- minimal bases ----------------------------------------------------------


def _convolution_rows(P: PolyMatrix, delta: int, d: int):
    """Linear system over the field expressing P(s) x(s) = 0 with
    deg x <= delta; unknowns are the n(delta+1) coefficients of x,
    ascending degree blocks."""
    f = P.field
    m, n = P.rows, P.cols
    coeff = [P.coefficient_matrix(k) for k in range(d + 1)]
    rows = []
    for k in range(d + delta + 1):
        for i in range(m):
            row = [f.zero] * (n * (delta + 1))
            for j in range(max(0, k - d), min(delta, k) + 1):
                ck = coeff[k - j]
                for col in range(n):
                    row[j * n + col] = ck[i][col]
            rows.append(row)
    return rows


def _flat_to_polyvec(flat, n: int, field: FieldTag):
    nblocks = len(flat) // n
    vec = []
    for col in range(n):
        vec.append(Poly.make([flat[b * n + col] for b in range(nblocks)], field))
    return tuple(vec)


def right_minimal_basis(P: PolyMatrix, rank: int | None = None):
    """Minimal basis of the right nullspace.

    Returns a list of polynomial column vectors (tuples of Poly) sorted by
    nonincreasing degree; the degrees are the column minimal indices.
    Vectors are gathered degree by degree from the coefficient-space
    nullspaces, keeping only those independent from all shifts of the
    vectors already chosen, which yields least orders and a column-reduced
    basis.  A known normal rank may be passed to skip its Smith form.
    """
    f = P.field
    n = P.cols
    r = rank_of(P) if rank is None else rank
    want = n - r
    if want == 0:
        return []
    d = 0 if P.is_zero else degree_of(P)
    chosen = []  # (flat coeffs at its own delta, polyvec, degree)
    cap = max(0, r * d)
    for delta in range(cap + 1):
        span = _Span(f)
        for vec, deg in chosen:
            flat = [c for b in range(delta + 1) for c in _coeff_block(vec, b, f)]
            for j in range(delta - deg + 1):
                shifted = _shift_flat(flat, j, n, f) if j else flat
                span.add(shifted)
        for w in nullspace(_convolution_rows(P, delta, d), n * (delta + 1), f):
            res = span.add(w)
            if res is not None:
                pv = _flat_to_polyvec(res, n, f)
                deg = max(e.degree for e in pv)
                chosen.append((pv, deg))
        if len(chosen) == want:
            break
    assert len(chosen) == want, "kernel dimension not reached within the degree cap"
    chosen.sort(key=lambda t: -t[1])
    return [vec for vec, _ in chosen]


def _coeff_block(vec, k: int, field: FieldTag):
    return [e.coeffs[k] if k <= e.degree else field.zero for e in vec]


def _shift_flat(flat, j: int, n: int, field: FieldTag):
    return [field.zero] * (j * n) + flat[: len(flat) - j * n]


def is_column_reduced(vectors, field: FieldTag) -> bool:
    """Forney criterion: the matrix of per-column leading coefficient
    vectors has full column rank."""
    if not vectors:
        return True
    n = len(vectors[0])
    cols = []
    for vec in vectors:
        deg = max(e.degree for e in vec)
        cols.append(_coeff_block(vec, deg, field))
    rows = [[col[i] for col in cols] for i in range(n)]
    return matrix_rank_constant(rows, field) == len(vectors)


def apply_matrix(P: PolyMatrix, vec) -> tuple:
    out = []
    for row in P.entries:
        acc = poly_zero(P.field)
        for e, v in zip(row, vec):
            acc = acc + e * v
        out.append(acc)
    return tuple(out)


def minimal_indices(P: PolyMatrix, rank: int | None = None):
    """Column and row minimal indices with their witnessing minimal bases.

    `rank`, the normal rank of P (and of its transpose), is computed when
    not given."""
    if rank is None:
        rank = rank_of(P)
    right = right_minimal_basis(P, rank)
    left = right_minimal_basis(P.transpose(), rank)
    col = tuple(max(e.degree for e in v) for v in right)
    row = tuple(max(e.degree for e in v) for v in left)
    return col, row, MinimalBasis(tuple(right), col), MinimalBasis(tuple(left), row)


def eigenstructure(P: PolyMatrix) -> Eigenstructure:
    """Degree, rank, homogeneous invariant factor chain and minimal indices."""
    d = degree_of(P)
    alphas = smith_form(P)
    mults = infinite_multiplicities(P)
    hom = tuple(HomogPoly(a, e) for a, e in zip(alphas, mults))
    col, row, _, _ = minimal_indices(P, len(alphas))
    es = Eigenstructure(
        degree=d,
        rank=len(alphas),
        hom_factors=hom,
        col_indices=col,
        row_indices=row,
        nrows=P.rows,
        ncols=P.cols,
    )
    assert es.index_sum_holds(), "index sum identity violated (internal bug)"
    return es


def companion_form(P: PolyMatrix) -> PolyMatrix:
    """First Frobenius companion linearization; the identity when d = 1."""
    d = degree_of(P)
    if d < 1:
        raise ValueError("companion form requires degree >= 1")
    if d == 1:
        return P
    f = P.field
    m, n = P.rows, P.cols
    coeff = [P.coefficient_matrix(k) for k in range(d + 1)]
    nrows, ncols = m + (d - 1) * n, d * n
    one, zero = f.one, f.zero

    def pencil_entry(x1, y1):
        return Poly.make([y1, x1], f)

    rows = []
    for i in range(m):
        row = []
        for b in range(d):
            blk = coeff[d] if b == 0 else None
            for j in range(n):
                x1 = coeff[d][i][j] if b == 0 else zero
                y1 = coeff[d - 1 - b][i][j]
                row.append(pencil_entry(x1, y1))
        rows.append(tuple(row))
    for b in range(1, d):
        for i in range(n):
            row = []
            for bb in range(d):
                for j in range(n):
                    x1 = one if (bb == b and i == j) else zero
                    y1 = f.neg(one) if (bb == b - 1 and i == j) else zero
                    row.append(pencil_entry(x1, y1))
            rows.append(tuple(row))
    assert len(rows) == nrows and all(len(r) == ncols for r in rows)
    return PolyMatrix(tuple(rows), f)


def companion_transform(es: Eigenstructure, field: FieldTag) -> Eigenstructure:
    """Eigenstructure of the companion form, derived from the matrix's own:
    (d-1)n unit factors are prepended, column indices grow by d-1, row
    indices are unchanged."""
    from .homog import homog_one

    d, n = es.degree, es.ncols
    units = tuple(homog_one(field) for _ in range((d - 1) * n))
    return Eigenstructure(
        degree=1,
        rank=(d - 1) * n + es.rank,
        hom_factors=units + es.hom_factors,
        col_indices=tuple(c + d - 1 for c in es.col_indices),
        row_indices=es.row_indices,
        nrows=es.nrows + (d - 1) * n,
        ncols=d * n,
    )
