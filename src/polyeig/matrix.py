"""Polynomial matrices over an exact field and their eigenstructure.

Covers degree, normal rank, Smith form, multiplicities at infinity and
minimal indices (read off the ranks of block-Toeplitz systems, one growing
elimination per side, with no basis built), the assembled eigenstructure,
and the first Frobenius companion linearization.

One kernel, `echelon`, does the linear algebra over the base field.  The
oracle's row-space keys take its reduced row echelon form.  The rank passes
keep a row echelon form with no back-substitution: a new row reduced by
the kept rows in list order ends zero at every pivot, so it is zero
exactly when it lies in their span, and the rank after each block is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, count
from math import gcd, lcm

from .fields import FieldTag, same_field
from .homog import HomogPoly, ensure_chain, homog_one
from .poly import Poly, poly_one
from .sequences import InternalError, ensure_ints, ensure_partition


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
class Eigenstructure:
    """Complete structural data of a nonzero polynomial matrix.  Each row
    and column beyond the rank carries one minimal index: the shape."""

    degree: int
    rank: int
    hom_factors: tuple  # divisibility chain of HomogPoly, length rank
    col_indices: tuple  # partition, length cols - rank
    row_indices: tuple  # partition, length rows - rank

    def __post_init__(self):
        ensure_ints((self.degree, self.rank), "degree and rank")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for name in ("hom_factors", "col_indices", "row_indices"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple, got {getattr(self, name)!r}")
        if len(self.hom_factors) != self.rank:
            raise ValueError("chain length must equal the rank")
        ensure_chain(self.hom_factors)
        ensure_partition(self.col_indices, "column minimal indices")
        ensure_partition(self.row_indices, "row minimal indices")

    @property
    def nrows(self) -> int:
        return self.rank + len(self.row_indices)

    @property
    def ncols(self) -> int:
        return self.rank + len(self.col_indices)

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


def _coefficient_lists(P: PolyMatrix):
    """P's entries as ascending coefficient lists, the one form in which
    every elimination reads P.  Over Q each row is scaled by a positive
    constant to primitive integer polynomials: a unit of Q[s], so no
    invariant factor and no rank changes."""
    A = [[list(e.coeffs) for e in row] for row in P.entries]
    if P.field.p is None:
        for i, row in enumerate(A):
            den = reduce(lcm, (c.denominator for e in row for c in e), 1)
            A[i] = _content_free([[c.numerator * (den // c.denominator) for c in e] for e in row])
    return A


def _coefficient_stack(A, d: int):
    """The rows of [M_0 M_1 ... M_d] for the matrix M with coefficient
    lists A (rows of lists of length at most d + 1), columns in (power,
    entry) order: entry j of a row of an n-column M is row[j::n]."""
    return [[c for power in zip(*[e + [0] * (d + 1 - len(e)) for e in row]) for c in power] for row in A]


def smith_form(P: PolyMatrix) -> tuple:
    """Monic invariant factors a_1 | ... | a_r (r = rank), by gcd-pivot
    elimination on coefficient lists.

    A nonzero entry of least degree moves to the corner and reduces its
    column by row operations and its row by column operations; a nonzero
    remainder becomes the next pivot.  Once the corner has cleared both, a
    row holding an entry it does not divide is added to the pivot row.
    Each step cancels one leading term c s^(t + deg piv): over GF(p),
    row -= c lc(piv)^-1 s^t pivot_row.  Over Q it is fraction free: rows
    start as primitive integer polynomials, a step is row := (lc(piv) / g)
    row - (c / g) s^t pivot_row with g = gcd(lc(piv), c), and the row
    content (the column content, in a column step) is divided out once the
    entry is reduced.  These scalings are units of Q[s], so the invariant
    factors stay those of P; divisibility is tested by pseudo-remainder.
    Only the diagonal becomes `Poly`.
    """
    field = P.field
    p = field.p
    A = _coefficient_lists(P)
    diag = []
    while A and A[0]:
        while True:
            # a minimal-degree nonzero pivot in the trailing block, first in row order
            pivot = min(((len(e), i, j) for i, row in enumerate(A) for j, e in enumerate(row) if e), default=None)
            if pivot is None:
                break
            _, pi, pj = pivot
            A[0], A[pi] = A[pi], A[0]
            for row in A:
                row[0], row[pj] = row[pj], row[0]
            reduced = _reduce_first_column(A, p)
            A = [list(col) for col in zip(*A)]  # the column step is the row step on the transpose
            reduced = _reduce_first_column(A, p) or reduced
            A = [list(col) for col in zip(*A)]
            if reduced:
                continue
            # pivot cleared its row and column; enforce divisibility below
            piv = A[0][0]
            offender = next((row for row in A[1:] if not all(_divides(piv, e, p) for e in row[1:])), None)
            if offender is None:
                break
            A[0] = [_comb(1, a, -1, 0, b, p) for a, b in zip(A[0], offender)]
        if pivot is None:
            break
        diag.append(Poly.make(A[0][0], field).monic())
        A = [row[1:] for row in A[1:]]
    for a, b in zip(diag, diag[1:]):
        if a.degree > 0 and not (b % a).is_zero:
            raise InternalError("invariant factors must form a divisibility chain")
    return tuple(diag)


def _comb(x, a, y, t, b, p):
    """x a - y s^t b on ascending coefficient lists, reduced mod p over
    GF(p) and without trailing zeros; x is 1 over GF(p)."""
    if not (y and b):
        return a if x == 1 else [x * c for c in a]
    out = [x * c for c in a] if x != 1 else list(a)
    if len(out) < len(b) + t:
        out += [0] * (len(b) + t - len(out))
    for i, c in enumerate(b, t):
        out[i] -= y * c
    if p is not None:
        out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _content_free(polys):
    """Integer polynomials divided by the gcd of all their coefficients."""
    g = reduce(gcd, (c for e in polys for c in e), 0)
    return [[c // g for c in e] for e in polys] if g > 1 else polys


def _reduce_first_column(A, p):
    """Reduce each A[i][0], i >= 1, by the pivot A[0][0] with row
    operations, one leading term at a time; over Q each reduced row is made
    primitive.  Whether a nonzero remainder is left."""
    prow = A[0]
    lp = len(prow[0])
    x, u = (prow[0][-1], 1) if p is None else (1, pow(prow[0][-1], -1, p))
    left = False
    for i in range(1, len(A)):
        row = A[i]
        if not row[0]:
            continue
        while len(row[0]) >= lp:
            y, t = row[0][-1] * u, len(row[0]) - lp
            g = gcd(x, y)
            row = [_comb(x // g, a, y // g, t, b, p) for a, b in zip(row, prow)]
        A[i] = _content_free(row) if p is None else row
        left = left or bool(row[0])
    return left


def _divides(b, a, p):
    """Whether the nonzero b divides a: a nonzero constant always does,
    otherwise a's pseudo-remainder by b is zero."""
    return len(b) == 1 or not _reduce_first_column([[b], [a]], p)


def rank_of(P: PolyMatrix) -> int:
    """Normal rank over the rational function field: min(m, n) when the
    leading coefficient certifies it (see `_reading`), otherwise the length
    of the Smith form."""
    *_, r, _ = _reading(P, zero_ok=True)
    return r


# --- exact linear algebra over the base field -------------------------------


# reduce, not gcd(*row) or lcm(*...): star-unpacking builds a tuple per
# row, and tuples of every row length then pile up on the interpreter's
# free lists (about 2 MB more peak RSS on the eig-q benchmark).
def _primitive(row):
    """An integer row divided by its content, the gcd of its entries."""
    g = reduce(gcd, row, 0)
    return [a // g for a in row] if g > 1 else row


def echelon(rows, field: FieldTag, basis=None, *, reduced: bool = True):
    """Reduced row echelon form of the span of `rows` (lists of field
    elements) as (pivot column, row) pairs in pivot order, built one row at
    a time: a new row is reduced by the kept rows, and the kept rows by its
    pivot.  Zero rows are dropped.  Over GF(p) each pivot is 1.  Over Q the
    rows are integers and the elimination is fraction free (Bareiss 1968):
    rows updated as piv * row - c * prow and made primitive, so each kept
    row is its reduced row times a nonzero integer, with the same zero
    pattern and the same ratios to its pivot as in Gauss-Jordan over
    `Fraction`.

    Given `basis`, a form returned earlier, the block `rows` extends it in
    place, so its length is the rank after each block; the block may add
    columns, zero in every kept row, which are padded to its width.

    With `reduced=False` the kept rows are not reduced by a new pivot, and
    the result is a row echelon form with the same pivot columns, so the
    same rank.  Each kept row is zero at the pivot of every row before it
    in the list: in pivot order because a pivot is its row's first nonzero
    entry, and among the rows a block appends because each was reduced by
    the rows before it.  So a new row reduced by the kept rows in list order
    ends zero at every pivot, and it is zero exactly when it lies in their
    span.  The rank passes read only the length; the oracle's keys need the
    reduced form, the one canonical form of a row space.
    """
    # The field branches stay inline: a helper call per reduction made the
    # oracle's row-space keys about a fifth slower.
    p = field.p
    basis = [] if basis is None else basis
    if basis and rows:
        pad = [0] * (len(rows[0]) - len(basis[0][1]))
        basis[:] = [(col, prow + pad) for col, prow in basis]
    for row in rows:
        for col, prow in basis:
            c = row[col]
            if c:
                if p is None:
                    piv = prow[col]
                    row = [piv * a - c * b for a, b in zip(row, prow)]
                else:
                    row = [(a - c * b) % p for a, b in zip(row, prow)]
        if p is None:
            row = _primitive(row)
        col = next((i for i, c in enumerate(row) if c), None)
        if col is None:
            continue
        piv = row[col]
        if p is not None and piv != 1:
            inv = pow(piv, -1, p)
            row = [c * inv % p for c in row]
        if reduced:
            for k, (qcol, qrow) in enumerate(basis):
                c = qrow[col]
                if c:
                    if p is None:
                        qrow = _primitive([piv * a - c * b for a, b in zip(qrow, row)])
                    else:
                        qrow = [(a - c * b) % p for a, b in zip(qrow, row)]
                    basis[k] = (qcol, qrow)
        basis.append((col, row))
    basis.sort()  # the pivot columns differ, so no two rows are compared
    return basis


# --- block-Toeplitz systems: multiplicities at infinity, minimal indices ----


def _ranks(base, step: int, field: FieldTag, skip: int = 0):
    """Ranks after blocks 0, 1, 2, ... of one elimination: block j is `base`
    shifted right by j * step zero columns, its first `skip` columns dropped.
    Only the rank is read, so the form is not reduced."""
    basis = []
    for j in count():
        echelon([([0] * (j * step) + row)[skip:] for row in base], field, basis, reduced=False)
        yield len(basis)


def _reading(P: PolyMatrix, zero_ok: bool = False):
    """P read once for the rank passes: its coefficient lists A, its degree
    d taken from them, the stack of the rows of [P_0 ... P_d] (the base of
    the pass at infinity and of the row pass), the ranks of the pass at
    infinity, the normal rank r, and the Smith form if it was run for r,
    else None.

    Block 0 of the pass at infinity is the leading coefficient P_d, and
    rank P_d = #{e_i = 0} <= r <= min(m, n).  So rank P_d = min(m, n) gives
    r with no elimination past that block; otherwise r is the length of the
    Smith form.  The zero matrix has no degree; with `zero_ok` it is read
    as degree 0.
    """
    A = _coefficient_lists(P)
    d = max(len(e) for row in A for e in row) - 1
    if d < 0:
        if not zero_ok:
            raise ZeroMatrixError("degree of the zero matrix is undefined")
        d = 0
    stack = _coefficient_stack(A, d)
    ranks = _ranks(stack, P.cols, P.field, P.cols * d)
    lead, full = next(ranks), min(P.rows, P.cols)
    alphas = None if lead == full else smith_form(P)
    return A, d, stack, chain([lead], ranks), (full if alphas is None else len(alphas)), alphas


def _read_off(count, total, cap, what):
    """The values v_1 <= ... <= v_total, ascending, of a count
    k -> sum max(0, k - v_i).  Its step from k - 1 to k is #{v_i < k}: the
    values found so far and one per v_i = k - 1.  The count is taken for
    k = 1, 2, ... until `total` values are found, and not past k = cap."""
    values, last = [], 0
    for k in range(1, cap + 1):
        if len(values) >= total:
            break
        now = count(k)
        values += [k - 1] * (now - last - len(values))
        last = now
    if len(values) != total:
        raise InternalError(f"expected {total} {what} by k = {cap}, found {values}")
    return tuple(values)


def infinite_multiplicities(P: PolyMatrix, *, _read=None) -> tuple:
    """Partial multiplicities of infinity: the t-adic valuations e_i of the
    Smith form of rev P(t) = t^d P(1/t), read off constant ranks.

    The block-Toeplitz matrix T_k of the first k coefficients of rev P has
    rank sum max(0, k - e_i) (Gohberg, Lancaster & Rodman 1982).  Its block
    row i holds P_(d-i+j) at block column j <= i, so one elimination fed the
    block rows in turn gives every rank.  Every e_i is at most r * d, so k
    stops by r * d + 1.  `_read`: P's `_reading`, if made.
    """
    _, d, _, ranks, r, _ = _read or _reading(P)
    mults = _read_off(lambda k: next(ranks), r, r * d + 1, "multiplicities at infinity")
    if mults and mults[0] != 0:
        raise InternalError(f"multiplicities at infinity must rise from 0, found {mults}")
    return mults


def minimal_indices(P: PolyMatrix, *, _read=None):
    """Column and row minimal indices, each nonincreasing: those of P and
    of its transpose.

    The polynomial vectors x with P x = 0 and deg x <= delta are the kernel
    of the convolution system C_delta.  A minimal basis has the
    predictable-degree property (Forney 1975), so with k = delta + 1,
    dim ker C_delta = n k - rank C_delta = sum max(0, k - eps_i) over the
    column minimal indices eps_i, each at most r * d.  C_(delta+1)^T adds n
    rows to C_delta^T, [P_0^T ... P_d^T] shifted by (delta + 1) m columns,
    so one elimination per side gives every rank.  `_read` is as for
    `infinite_multiplicities`.
    """
    A, d, stack, _, r, _ = _read or _reading(P, zero_ok=True)
    col_ranks = _ranks(_coefficient_stack(zip(*A), d), P.rows, P.field)
    row_ranks = _ranks(stack, P.cols, P.field)
    return (
        _read_off(lambda k: P.cols * k - next(col_ranks), P.cols - r, r * d + 1, "column minimal indices")[::-1],
        _read_off(lambda k: P.rows * k - next(row_ranks), P.rows - r, r * d + 1, "row minimal indices")[::-1],
    )


def eigenstructure(P: PolyMatrix) -> Eigenstructure:
    """Degree, rank, homogeneous invariant factor chain and minimal indices.

    The Smith form runs only where there may be finite spectrum.  The
    leading coefficient bounds the normal rank: rank P_d <= r <= min(m, n).
    If rank P_d = min(m, n), that is r, and the index sum theorem (De Teran,
    Dopico & Mackey 2014) gives sum deg a_i = r d - sum e_i - sum eps_i -
    sum eta_i from the three rank passes.  When that sum is 0 every
    invariant factor is 1, and the Smith form is not run.  Without the
    certificate the Smith form runs first, to give r.
    """
    read = _reading(P)
    _, d, _, _, r, alphas = read
    # through the public names, so that a wrapper bound to them times the
    # passes; `_read` hands them the one reading of P
    mults = infinite_multiplicities(P, _read=read)
    col, row = minimal_indices(P, _read=read)
    if alphas is None:
        finite = r * d - sum(mults) - sum(col) - sum(row)
        if finite < 0:
            raise InternalError(f"index sum exceeds r * d = {r * d} by {-finite}")
        alphas = (poly_one(P.field),) * r if finite == 0 else smith_form(P)
        if len(alphas) != r:
            raise InternalError(f"Smith form has {len(alphas)} factors, certified rank {r}")
    es = Eigenstructure(
        degree=d,
        rank=r,
        hom_factors=tuple(HomogPoly(a, e) for a, e in zip(alphas, mults)),
        col_indices=col,
        row_indices=row,
    )
    if not es.index_sum_holds():
        raise InternalError("index sum identity violated")
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
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise InternalError("companion form has the wrong shape")
    return PolyMatrix(tuple(rows), f)


def companion_transform(es: Eigenstructure, field: FieldTag) -> Eigenstructure:
    """Eigenstructure of the companion form, derived from the matrix's own:
    (d-1)n unit factors are prepended, column indices grow by d-1, row
    indices are unchanged."""
    d, n = es.degree, es.ncols
    units = tuple(homog_one(field) for _ in range((d - 1) * n))
    return Eigenstructure(
        degree=1,
        rank=(d - 1) * n + es.rank,
        hom_factors=units + es.hom_factors,
        col_indices=tuple(c + d - 1 for c in es.col_indices),
        row_indices=es.row_indices,
    )
