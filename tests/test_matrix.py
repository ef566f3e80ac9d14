import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import polyeig
from polyeig import (
    GF,
    QQ,
    Eigenstructure,
    FieldMismatchError,
    HomogPoly,
    Poly,
    PolyMatrix,
    ZeroMatrixError,
    companion_form,
    companion_transform,
    degree_of,
    eigenstructure,
    infinite_multiplicities,
    minimal_indices,
    poly_zero,
    rank_of,
    smith_form,
    stack_rows,
)
from polyeig.matrix import echelon

from conftest import FIELDS, product, random_matrix, ref_det, ref_invariant_factors

S = [0, 1]


def M(rows, field=QQ):
    return PolyMatrix.make(rows, field)


def apply_matrix(P, vec):
    """P times the polynomial vector vec."""
    out = []
    for row in P.entries:
        acc = poly_zero(P.field)
        for e, v in zip(row, vec):
            acc = acc + e * v
        out.append(acc)
    return tuple(out)


def is_column_reduced(vectors, field):
    """Forney criterion: the matrix of per-column leading coefficient
    vectors has full column rank, by the reference Gauss-Jordan."""
    if not vectors:
        return True
    cols = []
    for vec in vectors:
        deg = max(e.degree for e in vec)
        cols.append([e.coeffs[deg] if deg <= e.degree else field.zero for e in vec])
    rows = [[col[i] for col in cols] for i in range(len(vectors[0]))]
    return len(_gauss_jordan_rref(rows, len(vectors), field)[1]) == len(vectors)


def chain_repr(es):
    return [(str(h.alpha), h.e) for h in es.hom_factors]


def test_degree():
    assert degree_of(M([[[1, 0, 1]]])) == 2
    assert degree_of(M([[S, [1]], [[], S]])) == 1
    assert degree_of(M([[[3]]])) == 0
    with pytest.raises(ZeroMatrixError):
        degree_of(M([[[]]]))


def test_rank():
    assert rank_of(M([[S, [1]], [[0, 0, 1], S]])) == 1  # row 2 = s * row 1
    assert rank_of(M([[[], []], [[], []]])) == 0
    assert rank_of(M([[S, []], [[], [1]]])) == 2


def test_smith_examples():
    assert [str(a) for a in smith_form(M([[S, [1]], [[], S]]))] == ["1", "s^2"]
    assert [str(a) for a in smith_form(M([[S, []], [[], [0, 0, 1]]]))] == ["s", "s^2"]
    assert [str(a) for a in smith_form(M([[[1]]]))] == ["1"]


def test_smith_chain_property(rng):
    for _ in range(60):
        field = FIELDS[rng.randrange(len(FIELDS))]
        P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2), field)
        factors = smith_form(P)
        for a, b in zip(factors, factors[1:]):
            assert (b % a).is_zero
        assert all(a.is_monic for a in factors)


def _smith_cases(seed, count):
    """Matrices up to 3 x 4 of degree <= 2 over Q (integer and non-integer
    rational coefficients), GF(2), GF(3), GF(5) and GF(10007).  A third
    are A D B with constant A, B and a diagonal D whose entries share a
    factor but need not divide each other, and a third are products
    through a thinner inner dimension, so rank deficient."""
    rng = random.Random(seed)
    fields = [QQ, QQ, GF(2), GF(3), GF(5), GF(10007)]
    pool = [-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-5, 3)]

    def entry(field, d):
        if field.is_rational:
            return Poly.make([rng.choice(pool) for _ in range(d + 1)], field)
        return Poly.make([rng.randrange(field.p) for _ in range(d + 1)], field)

    for _ in range(count):
        field = rng.choice(fields)
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        kind = rng.randrange(3)
        if kind == 0:
            d = rng.randint(0, 2)
            yield PolyMatrix.make([[entry(field, d) for _ in range(n)] for _ in range(m)], field)
            continue
        k = min(m, n) if kind == 1 else rng.randint(1, max(1, min(m, n) - 1))
        A = [[entry(field, 0 if kind == 1 else rng.randint(0, 1)) for _ in range(k)] for _ in range(m)]
        B = [[entry(field, 0 if kind == 1 else 1) for _ in range(n)] for _ in range(k)]
        if kind == 1:
            shared = entry(field, 1)
            D = [[shared * entry(field, rng.randint(0, 1)) if i == j else poly_zero(field) for j in range(k)]
                 for i in range(k)]
            A = product(A, D, field)
        P = PolyMatrix.make(product(A, B, field), field)
        if not P.is_zero:
            yield P


def test_smith_form_matches_determinantal_divisors():
    deficient = nontrivial = 0
    for P in _smith_cases("smith-vs-minors", 1000):
        want = ref_invariant_factors(P)
        assert smith_form(P) == want, str(P)
        deficient += len(want) < min(P.rows, P.cols)
        nontrivial += len(want) > 1 and want[-2].degree > 0
    assert deficient >= 150 and nontrivial >= 90


def test_smith_form_of_the_6x6_degree_3_matrix():
    # a_1 = ... = a_5 = 1, so a_6 is the whole determinant, made monic
    rng = random.Random("6x6d3")
    P = M([[[rng.randint(-3, 3) for _ in range(4)] for _ in range(6)] for _ in range(6)])
    factors = smith_form(P)
    assert tuple(a.degree for a in factors) == (0, 0, 0, 0, 0, 18)
    det = ref_det([list(row) for row in P.entries], QQ)
    assert factors[-1] == det.monic()


def test_infinite_multiplicities():
    assert infinite_multiplicities(M([[S, []], [[], [1]]])) == (0, 1)
    assert infinite_multiplicities(M([[[1], S], [[], [1]]])) == (0, 2)
    assert infinite_multiplicities(M([[S]])) == (0,)
    # [[1, s^d], [0, 1]] reaches the cap: e = (0, 2d) = (0, r * d)
    for d in (1, 2, 3):
        assert infinite_multiplicities(M([[[1], [0] * d + [1]], [[], [1]]])) == (0, 2 * d)
    U = M([[[1], [0, 0, 1], [0, 0, 0, 1]], [[], [1], [0, 0, 1]], [[], [], [1]]], GF(3))
    assert infinite_multiplicities(U) == (0, 2, 7)
    with pytest.raises(ZeroMatrixError):
        infinite_multiplicities(M([[[]]]))


def test_minimal_indices_examples():
    assert minimal_indices(M([[S, [1]]])) == ((1,), ())
    assert minimal_indices(M([[[]]])) == ((0,), (0,))
    assert minimal_indices(M([[S, []], [[], [1]]])) == ((), ())
    assert minimal_indices(M([[S, [1]], [S, [1]]])) == ((1,), (0,))
    # [[1, s, s^2]] has the minimal basis (s, -1, 0), (0, s, -1)
    assert minimal_indices(M([[[1], S, [0, 0, 1]]])) == ((1, 1), ())


def test_rank_is_not_a_public_option():
    # a wrong rank would give a wrong answer with no error, so each reads
    # the rank off P itself
    P = M([[S, [1]], [S, [1]]])
    for fn in (minimal_indices, infinite_multiplicities):
        with pytest.raises(TypeError):
            fn(P, 2)
        for keyword in ("rank", "_rank"):
            with pytest.raises(TypeError):
                fn(P, **{keyword: 1})
    assert minimal_indices(P) == ((1,), (0,))
    assert infinite_multiplicities(P) == (0,)


def _ref_minimal_basis(P):
    """A minimal basis of the right nullspace, built with no rank count.
    For delta = 0, 1, ..., min(m, n) d the reference Gauss-Jordan gives the
    kernel of the system P x = 0, deg x <= delta, with the coefficients of
    x as unknowns in ascending blocks: one vector per non-pivot column,
    which is its last nonzero entry.  A column j of block delta that is
    non-pivot for the first time keeps its vector, of degree delta; a
    non-pivot column stays so one block later.  The kept vectors have
    triangular leading coefficients and the least degree sum (Forney
    1975).  Sorted by nonincreasing degree."""
    f, m, n = P.field, P.rows, P.cols
    d = 0 if P.is_zero else degree_of(P)
    chosen = {}  # column -> (degree, polynomial vector)
    for delta in range(min(m, n) * d + 1):
        rows = []
        for k in range(d + delta + 1):
            blocks = [P.coefficient_matrix(k - j) if 0 <= k - j <= d else [[f.zero] * n] * m for j in range(delta + 1)]
            rows += [[c for block in blocks for c in block[i]] for i in range(m)]
        for w in _gauss_jordan_nullspace(rows, n * (delta + 1), f):
            j = max(i for i, c in enumerate(w) if c) - delta * n
            if j >= 0 and j not in chosen:
                chosen[j] = (delta, tuple(Poly.make(w[col::n], f) for col in range(n)))
    return [vec for _, vec in sorted(chosen.values(), key=lambda t: -t[0])]


def _assert_minimal_basis(P, vectors, indices):
    """Forney's criteria: null vectors of P, column reduced, and the basis
    matrix has no finite zeros (its Smith form is all ones)."""
    for v in vectors:
        assert all(e.is_zero for e in apply_matrix(P, v))
    assert is_column_reduced(list(vectors), P.field)
    assert tuple(max(e.degree for e in v) for v in vectors) == indices
    assert indices == tuple(sorted(indices, reverse=True))
    if vectors:
        B = PolyMatrix.make([[v[i] for v in vectors] for i in range(P.cols)], P.field)
        assert [a.degree for a in smith_form(B)] == [0] * len(vectors)


def test_minimal_basis_forney(rng):
    cases = []
    for _ in range(40):
        field = FIELDS[rng.randrange(len(FIELDS))]
        cases.append(random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2), field))
    for m, n in ((2, 4), (3, 4), (3, 5), (4, 5), (5, 4)):
        cases.append(random_matrix(rng, m, n, 2, QQ))
    # rank-deficient over Q: a polynomial multiple of a row, and a repeated column
    cases.append(M([[[1, 2], [0, 1], [3], [1, 1]], [[0, 1, 2], [0, 0, 1], [0, 3], [0, 1, 1]], [[1], [1, 1], [0, 0, 1], [2]]]))
    cases.append(M([[[1, 1, 1], [1, 1, 1], [0, 2], [1]], [[0, 1], [0, 1], [1], [0, 0, 3]]]))
    # rank-deficient products A(s) B(s) through an inner size below min(m, n)
    for field in (QQ, QQ, GF(2), GF(3), GF(5), GF(10007)):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        k = rng.randint(1, min(m, n) - 1)
        left = random_matrix(rng, m, k, rng.randint(0, 1), field).entries
        right = random_matrix(rng, k, n, rng.randint(1, 2), field).entries
        P = PolyMatrix.make(product(left, right, field), field)
        if not P.is_zero:
            cases.append(P)
    cases.append(M([[[]]]))
    for P in cases:
        for A, indices in zip((P, P.transpose()), minimal_indices(P)):
            vectors = _ref_minimal_basis(A)
            assert len(vectors) == A.cols - rank_of(A)
            _assert_minimal_basis(A, vectors, indices)


def test_minimal_indices_permutation_invariant(rng):
    for _ in range(20):
        field = FIELDS[rng.randrange(len(FIELDS))]
        P = random_matrix(rng, 2, 3, 1, field)
        perm = [2, 0, 1]
        Q = PolyMatrix.make(
            [[P.entries[i][j] for j in perm] for i in range(2)], field
        )
        assert minimal_indices(P)[0] == minimal_indices(Q)[0]


def test_eigenstructure_examples():
    es = eigenstructure(M([[S, []], [[], [1]]]))
    assert es.rank == 2 and chain_repr(es) == [("1", 0), ("s", 1)]
    assert es.col_indices == () and es.row_indices == ()
    es2 = eigenstructure(M([[S, [1]]]))
    assert (es2.rank, chain_repr(es2), es2.col_indices, es2.row_indices) == (
        1,
        [("1", 0)],
        (1,),
        (),
    )
    es3 = eigenstructure(M([[[0, 0, 1]]]))
    assert es3.degree == 2 and chain_repr(es3) == [("s^2", 0)]
    with pytest.raises(ZeroMatrixError):
        eigenstructure(M([[[]]]))


def test_index_sum_random(rng):
    for _ in range(120):
        field = FIELDS[rng.randrange(len(FIELDS))]
        P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3), field)
        es = eigenstructure(P)
        assert es.index_sum_holds()
        assert es.hom_factors[0].e == 0


def _certified_corpus(field):
    """Seeded matrices over `field` for the Smith-form cross-check: wide,
    tall and square full-rank ones, rank-deficient products, full-rank ones
    with a singular leading coefficient (one row or column of lower
    degree), and wide and tall ones with finite spectrum,
    diag(s - a, s - b) W or W diag(s - a, s - b)."""
    rng = random.Random(f"certified-rank/{field}")
    one, s = Poly.make([1], field), Poly.make([0, 1], field)

    def shifted():
        return s - Poly.make([rng.randrange(-2, 3) if field.p is None else rng.randrange(field.p)], field)

    out = []
    for m, n in ((1, 2), (2, 3), (2, 4), (3, 4), (2, 1), (3, 2), (4, 3), (2, 2), (3, 3)):
        for d in (1, 2):
            out.append(random_matrix(rng, m, n, d, field))
            low = random_matrix(rng, m, n, d, field).entries
            if m <= n:  # the last row loses its s^d terms
                low = low[:-1] + (tuple(Poly.make(e.coeffs[:d], field) for e in low[-1]),)
            else:  # the last column does
                low = tuple(row[:-1] + (Poly.make(row[-1].coeffs[:d], field),) for row in low)
            out.append(PolyMatrix.make(low, field))
    for m, k, n in ((2, 1, 2), (3, 1, 2), (3, 2, 3), (2, 1, 4), (4, 2, 3)):
        A, B = random_matrix(rng, m, k, 1, field), random_matrix(rng, k, n, 1, field)
        out.append(PolyMatrix.make(product(A.entries, B.entries, field), field))
    for _ in range(3):
        mid = [[shifted(), poly_zero(field)], [poly_zero(field), shifted()]]
        out.append(PolyMatrix.make(product(mid, random_matrix(rng, 2, 3, 1, field).entries, field), field))
        out.append(PolyMatrix.make(product(random_matrix(rng, 3, 2, 1, field).entries, mid, field), field))
    out.append(M([[s, one], [one, poly_zero(field)]], field))  # unimodular, P_1 of rank 1
    out.append(M([[s, one], [poly_zero(field), one]], field))  # det s, P_1 of rank 1
    return [P for P in out if not P.is_zero]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_eigenstructure_chain_is_the_smith_form(field):
    # eigenstructure runs the Smith form only when rank P_d < min(m, n) or
    # the index sum leaves finite degree; where it skips it, nothing else
    # checks the unit chain it builds
    ways = {"fallback": 0, "skipped": 0, "certified": 0}
    for P in _certified_corpus(field):
        es, alphas = eigenstructure(P), smith_form(P)
        assert es.alphas == alphas
        assert es.rank == len(alphas)
        lead = P.coefficient_matrix(es.degree)
        if len(_gauss_jordan_rref(lead, P.cols, field)[1]) < min(P.rows, P.cols):
            ways["fallback"] += 1
        else:
            ways["certified" if sum(a.degree for a in alphas) else "skipped"] += 1
    assert min(ways.values()) >= 2, ways


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_rank_and_index_lists_are_the_eigenstructure_parts(field):
    # each public reader works out the rank itself, certified or by the
    # Smith form, and reads the same lists as eigenstructure
    for P in _certified_corpus(field):
        es = eigenstructure(P)
        assert rank_of(P) == es.rank
        assert minimal_indices(P) == (es.col_indices, es.row_indices)
        assert infinite_multiplicities(P) == es.inf_mults


def test_smith_form_runs_only_where_there_is_finite_spectrum(monkeypatch):
    calls = []
    real = polyeig.matrix.smith_form
    monkeypatch.setattr(polyeig.matrix, "smith_form", lambda P: calls.append(P) or real(P))

    def count(fn, P):
        calls.clear()
        fn(P)
        return len(calls)

    wide = M([[S, [1], []], [[], S, [1]]])  # P_1 of rank 2, eps = (2,), sum deg a_i = 0
    tall = wide.transpose()  # eta = (2,)
    square = M([[S, [1]], [[1], S]])  # P_1 = I, det s^2 - 1
    low_lead = M([[S, [1]], [[1], []]])  # P_1 of rank 1, unimodular
    cases = (wide, tall, square, low_lead)
    assert [count(eigenstructure, P) for P in cases] == [0, 0, 1, 1]
    for fn in (rank_of, minimal_indices, infinite_multiplicities):
        assert [count(fn, P) for P in cases] == [0, 0, 0, 1]


def test_companion_examples():
    C = companion_form(M([[[0, 0, 1]]]))
    assert [[str(e) for e in r] for r in C.entries] == [["s", "0"], ["-1", "s"]]
    C2 = companion_form(M([[[1, 1, 1]]]))
    assert [[str(e) for e in r] for r in C2.entries] == [["1 + s", "1"], ["-1", "s"]]
    P = M([[S, [1]]])
    assert companion_form(P) is P
    with pytest.raises(ValueError):
        companion_form(M([[[1]]]))


def test_companion_correspondence(rng):
    for _ in range(40):
        field = FIELDS[rng.randrange(len(FIELDS))]
        P = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3), field)
        es = eigenstructure(P)
        assert eigenstructure(companion_form(P)) == companion_transform(es, field)


def test_companion_complete_invariant(rng):
    # two matrices of equal size and degree have equal eigenstructure
    # exactly when their companion pencils do
    for _ in range(25):
        field = FIELDS[rng.randrange(len(FIELDS))]
        d = rng.randint(1, 2)
        A = random_matrix(rng, 2, 2, d, field)
        B = random_matrix(rng, 2, 2, d, field)
        same_poly = eigenstructure(A) == eigenstructure(B)
        same_pencil = eigenstructure(companion_form(A)) == eigenstructure(companion_form(B))
        assert same_poly == same_pencil


def test_stack_rows():
    assert stack_rows(M([[S]]), M([[[1]]])).entries == M([[S], [[1]]]).entries
    with pytest.raises(ValueError):
        stack_rows(M([[S]]), M([[[1], [1]]]))
    with pytest.raises(FieldMismatchError):
        stack_rows(M([[S]]), PolyMatrix.make([[[1]]], GF(2)))


def test_make_validation():
    with pytest.raises(ValueError):
        PolyMatrix.make([], QQ)
    with pytest.raises(ValueError):
        PolyMatrix.make([[[1]], [[1], [1]]], QQ)


def test_eigenstructure_integer_fields_are_strict():
    good = dict(degree=1, rank=0, hom_factors=(), col_indices=(1,), row_indices=())
    Eigenstructure(**good)
    for bad in (
        dict(col_indices=(1.5,)),
        dict(col_indices=(True,)),
        dict(row_indices=(1.0,)),
        dict(degree=1.0),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            Eigenstructure(**{**good, **bad})


def test_eigenstructure_parts_are_tuples_and_shape_is_derived():
    one = HomogPoly(Poly.make([1], QQ), 0)
    es = Eigenstructure(1, 1, (one,), (1, 0), ())
    assert (es.nrows, es.ncols) == (1, 3)
    assert hash(es) == hash(Eigenstructure(1, 1, (one,), (1, 0), ()))
    for bad in (dict(hom_factors=[one]), dict(col_indices=[1, 0]), dict(row_indices=[])):
        with pytest.raises(ValueError, match="must be a tuple"):
            Eigenstructure(**{**dict(degree=1, rank=1, hom_factors=(one,), col_indices=(1, 0), row_indices=()), **bad})


def test_eigenstructure_chain_entries_are_homog():
    one = HomogPoly(Poly.make([1], QQ), 0)
    for chain in ((1,), ("x",), (one, 1), ("x", one)):
        with pytest.raises(ValueError, match="must be HomogPoly"):
            Eigenstructure(1, len(chain), chain, (), ())


# --- the field-generic Gauss-Jordan reference ----------------------------------


def _gauss_jordan_rref(rows, ncols, field):
    """Nonzero rows and pivot columns of the reduced row echelon form,
    computed by Gauss-Jordan elimination in the field's own arithmetic."""
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
    return mat[:rank], pivots


def _gauss_jordan_nullspace(rows, ncols, field):
    """Nullspace read off the reference reduced row echelon form."""
    f = field
    mat, pivots = _gauss_jordan_rref(rows, ncols, field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [f.zero] * ncols
        v[free] = f.one
        for prow, pcol in zip(mat, pivots):
            v[pcol] = f.neg(prow[free])
        basis.append(v)
    return basis


def _integer_rows(rows, field):
    """Over Q, each row times the lcm of its denominators, as `echelon`
    takes it: the row space is the same.  Over GF(p), the rows."""
    if not field.is_rational:
        return rows
    dens = [reduce(lcm, (c.denominator for c in row), 1) for row in rows]
    return [[c.numerator * (den // c.denominator) for c in row] for row, den in zip(rows, dens)]


@st.composite
def constant_matrices(draw):
    """Rows over Q (non-integer entries) or GF(2), GF(3), GF(10007), with
    random, zero and dependent rows; possibly no rows at all."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(10007)]))
    if field.is_rational:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    else:
        scalar = st.integers(0, field.p - 1)
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            rows.append([field.zero] * ncols)
        elif kind == "dependent" and rows:
            a, b = draw(scalar), draw(scalar)
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(r1, r2)])
        else:
            rows.append([field.coerce(draw(scalar)) for _ in range(ncols)])
    return rows, ncols, field


@st.composite
def invertible_matrices(draw, k, field):
    """A k x k matrix L U with L unit lower and U upper triangular with a
    nonzero diagonal, its rows then permuted: invertible by construction."""
    scalar = st.integers(0, field.p - 1)
    nonzero = st.integers(1, field.p - 1)
    L = [[field.one if i == j else draw(scalar) if j < i else field.zero for j in range(k)] for i in range(k)]
    U = [[draw(nonzero) if i == j else draw(scalar) if j > i else field.zero for j in range(k)] for i in range(k)]
    G = [[sum(L[i][t] * U[t][j] for t in range(k)) % field.p for j in range(k)] for i in range(k)]
    return draw(st.permutations(G))


@settings(max_examples=400, deadline=None)
@given(constant_matrices(), st.data())
def test_echelon_is_the_reduced_form_of_the_row_space(case, data):
    rows, ncols, field = case
    f = field
    form = echelon(_integer_rows(rows, f), f)
    mat, pivots = _gauss_jordan_rref(rows, ncols, f)
    assert [col for col, _ in form] == pivots
    assert [[f.mul(c, f.inv(row[col])) for c in row] for col, row in form] == mat
    if not f.is_rational:
        # a constant invertible G keeps the row space, and so the form: the
        # oracle keys its eigenstructure memo on this
        G = data.draw(invertible_matrices(len(rows), f))
        mixed = [[sum(g * r[j] for g, r in zip(grow, rows)) % f.p for j in range(ncols)] for grow in G]
        assert echelon(mixed, f) == form


@st.composite
def block_sequences(draw):
    """Row blocks over Q (non-integer entries) or GF(2), GF(3), GF(10007),
    each with its width: a block may add columns, zero in every earlier
    row, and holds random, zero and dependent rows, or none."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(10007)]))
    if field.is_rational:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    else:
        scalar = st.integers(0, field.p - 1)
    blocks, earlier, ncols = [], [], 0
    for _ in range(draw(st.integers(1, 5))):
        ncols += draw(st.integers(0 if ncols else 1, 3))
        earlier = [row + [field.zero] * (ncols - len(row)) for row in earlier]
        block = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["random", "zero", "dependent"]))
            if kind == "zero":
                block.append([field.zero] * ncols)
            elif kind == "dependent" and earlier + block:
                a, b = draw(scalar), draw(scalar)
                r1, r2 = draw(st.sampled_from(earlier + block)), draw(st.sampled_from(earlier + block))
                block.append([field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(r1, r2)])
            else:
                block.append([field.coerce(draw(scalar)) for _ in range(ncols)])
        earlier += block
        blocks.append((block, ncols))
    return blocks, field


@settings(max_examples=300, deadline=None)
@given(block_sequences())
def test_echelon_fed_in_blocks_gives_every_prefix_rank(case):
    blocks, field = case
    basis, unreduced, stacked = [], [], []
    for block, ncols in blocks:
        assert echelon(_integer_rows(block, field), field, basis) is basis
        # the rank passes keep a row echelon form: no back-substitution, the
        # same rank and pivot columns
        assert echelon(_integer_rows(block, field), field, unreduced, reduced=False) is unreduced
        stacked = [row + [field.zero] * (ncols - len(row)) for row in stacked] + block
        rref, pivots = _gauss_jordan_rref(stacked, ncols, field)
        assert len(basis) == len(unreduced) == len(rref)
        assert [col for col, _ in basis] == [col for col, _ in unreduced] == pivots
    # the grown form is the form of the whole stack in one block, once a
    # trailing block with no rows has had its columns padded on
    ncols = blocks[-1][1]
    assert [(col, row + [0] * (ncols - len(row))) for col, row in basis] == echelon(_integer_rows(stacked, field), field)


@st.composite
def rational_matrices(draw):
    """Q matrices up to 4 x 5 and degree 2 with non-integer coefficients,
    sometimes with a row that is a polynomial multiple of another."""
    m, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 2))
    coeff = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    rows = []
    for _ in range(m):
        if rows and draw(st.integers(0, 3)) == 0:
            mult = Poly.make(draw(st.lists(coeff, min_size=1, max_size=3 - d)), QQ)
            rows.append([mult * e for e in draw(st.sampled_from(rows))])
        else:
            rows.append([Poly.make(draw(st.lists(coeff, min_size=d + 1, max_size=d + 1)), QQ) for _ in range(n)])
    P = PolyMatrix.make(rows, QQ)
    assume(not P.is_zero)
    return P


def _dense_4x5_degree_2(seed):
    rng = random.Random(seed)
    pool = [-2, -1, 1, 3, Fraction(1, 2), Fraction(-5, 3)]
    return M([[[rng.choice(pool) for _ in range(3)] for _ in range(5)] for _ in range(4)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices())
@example(_dense_4x5_degree_2(1))
@example(_dense_4x5_degree_2(2))
def test_eigenstructure_metamorphic_over_q(P):
    es = eigenstructure(P)
    assert es.index_sum_holds()
    et = eigenstructure(P.transpose())
    assert et.hom_factors == es.hom_factors
    assert (et.col_indices, et.row_indices) == (es.row_indices, es.col_indices)


# --- multiplicities at infinity against the Smith form of the reversal --------


def _reversal_valuations(P):
    """Multiplicities at infinity by their definition: the t-adic valuations
    of the Smith form of rev P(t) = t^d P(1/t)."""
    d = degree_of(P)
    zero = P.field.zero
    rev = PolyMatrix.make(
        [[[zero] * (d + 1 - len(e.coeffs)) + list(e.coeffs[::-1]) for e in row] for row in P.entries],
        P.field,
    )
    return tuple(next(i for i, c in enumerate(a.coeffs) if c) for a in smith_form(rev))


@st.composite
def field_matrices(draw, max_m=4, max_n=5, max_d=3):
    """Matrices up to max_m x max_n and degree max_d over Q (non-integer
    coefficients) or GF(2), GF(3), GF(10007): dense ones with some zero
    rows, and products A(s) B(s) through an inner size below min(m, n),
    which are rank deficient."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(10007)]))
    if field.is_rational:
        scalar = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    else:
        scalar = st.integers(0, field.p - 1)

    def matrix(m, n, d, zero_rows=False):
        return [
            [poly_zero(field)] * n if zero_rows and draw(st.integers(0, 3)) == 0
            else [Poly.make(draw(st.lists(scalar, min_size=d + 1, max_size=d + 1)), field) for _ in range(n)]
            for _ in range(m)
        ]

    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    if min(m, n) > 1 and draw(st.booleans()):
        k = draw(st.integers(1, min(m, n) - 1))
        da = draw(st.integers(0, max_d))
        A, B = matrix(m, k, da), matrix(k, n, draw(st.integers(0, max_d - da)))
        rows = product(A, B, field)
    else:
        rows = matrix(m, n, draw(st.integers(0, max_d)), zero_rows=True)
    P = PolyMatrix.make(rows, field)
    assume(not P.is_zero)
    return P


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(field_matrices())
def test_infinite_multiplicities_match_reversal(P):
    assert infinite_multiplicities(P) == _reversal_valuations(P)


# --- invariance under equivalence ---------------------------------------------


@st.composite
def _equivalent(draw, deg):
    """(P, U P V) for P up to 3 x 3 of degree <= 2 and U, V unimodular with
    entries of degree <= deg: each is L R, L lower and R upper triangular
    with nonzero constants on the diagonal, so its determinant is a nonzero
    constant.  With deg = 0, U and V are constant invertible matrices."""
    P = draw(field_matrices(max_m=3, max_n=3, max_d=2))
    f = P.field
    unit = st.sampled_from([1, -1, 2, Fraction(-1, 3)]) if f.is_rational else st.integers(1, f.p - 1)
    coeff = st.sampled_from([0, 1, -1, Fraction(1, 2)]) if f.is_rational else st.integers(0, f.p - 1)

    def triangular(k, lower):
        return [
            [
                Poly.make([draw(unit)], f) if i == j
                else Poly.make(draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 1)), f)
                if (i > j) == lower else poly_zero(f)
                for j in range(k)
            ]
            for i in range(k)
        ]

    def unimodular(k):
        return product(triangular(k, True), triangular(k, False), f)

    rows = product(product(unimodular(P.rows), P.entries, f), unimodular(P.cols), f)
    return P, PolyMatrix.make(rows, f)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_equivalent(0))
def test_strict_equivalence_keeps_the_eigenstructure(case):
    P, Q = case
    assert eigenstructure(Q) == eigenstructure(P)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_equivalent(1))
def test_unimodular_equivalence_keeps_rank_and_finite_factors(case):
    P, Q = case
    assert rank_of(Q) == rank_of(P)
    assert smith_form(Q) == smith_form(P) == eigenstructure(P).alphas


# --- internal invariants under python -O ----------------------------------------

_NO_KERNEL_SEEN = """
import polyeig.matrix as mx
from polyeig import QQ, InternalError, PolyMatrix, eigenstructure

if __debug__:
    raise SystemExit("not running under -O")
real = mx._read_off
mx._read_off = lambda count, total, cap, what: real(
    (lambda k: 0) if "minimal indices" in what else count, total, cap, what
)
try:
    eigenstructure(PolyMatrix.make([[[0, 1], [1]]], QQ))
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_ZERO_CONSTANT_RANKS = """
import polyeig.matrix as mx
from polyeig import QQ, InternalError, PolyMatrix, eigenstructure

if __debug__:
    raise SystemExit("not running under -O")
# a kernel that keeps no row: every block-Toeplitz rank reads 0
mx.echelon = lambda rows, field, basis=None, **kw: [] if basis is None else basis
try:
    eigenstructure(PolyMatrix.make([[[0, 1], [1]]], QQ))
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_FEED_ONE_BLOCK_SHORT = """
import itertools
import polyeig.matrix as mx
from polyeig import QQ, InternalError, PolyMatrix, minimal_indices

if __debug__:
    raise SystemExit("not running under -O")
real = mx._ranks
# each count reads the rank of one block fewer than it asks for
mx._ranks = lambda *args: itertools.chain([0], real(*args))
try:
    minimal_indices(PolyMatrix.make([[[0, 1], [1]]], QQ))
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_EVERYTHING_DIVIDES = """
import polyeig.matrix as mx
from polyeig import QQ, InternalError, PolyMatrix, smith_form

if __debug__:
    raise SystemExit("not running under -O")
mx._divides = lambda b, a, p: True
try:
    smith_form(PolyMatrix.make([[[0, 1], []], [[], [1, 1]]], QQ))
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_WRONG_COMPANION = """
import polyeig.realize as rz
from polyeig import QQ, Eigenstructure, HomogPoly, InternalError, PolyMatrix, Poly, homog_one, realize_low_degree

if __debug__:
    raise SystemExit("not running under -O")
real = rz.companion_form
# the companion pencil of 1 + s^k in place of that of the finite part
rz.companion_form = lambda P: real(PolyMatrix.make([[[1] + [0] * (P.entry(0, 0).degree - 1) + [1]]], QQ))
try:
    realize_low_degree(Eigenstructure(1, 2, (homog_one(QQ), HomogPoly(Poly.make([0, 0, 1], QQ), 0)), (), ()), QQ)
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_OVERSIZE_COMPANION = """
import polyeig.realize as rz
from polyeig import QQ, Eigenstructure, HomogPoly, InternalError, PolyMatrix, Poly, homog_one, realize_low_degree

if __debug__:
    raise SystemExit("not running under -O")
# a 3 x 1 block where the 2 x 2 target has room for two rows
rz.companion_form = lambda P: PolyMatrix.make([[[1]]] * 3, QQ)
try:
    realize_low_degree(Eigenstructure(1, 2, (homog_one(QQ), HomogPoly(Poly.make([0, 0, 1], QQ), 0)), (), ()), QQ)
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_NEGATIVE_FINITE_DEGREE = """
import polyeig.matrix as mx
from polyeig import QQ, InternalError, PolyMatrix, eigenstructure

if __debug__:
    raise SystemExit("not running under -O")
real = mx._ranks
# the column pass (step m = 1, nothing skipped) reads every rank one too
# high, so eps = (1, 1) where it is (1, 0), past r * d = 1 in all
mx._ranks = lambda base, step, field, skip=0: (k + (step == 1 and not skip) for k in real(base, step, field, skip))
try:
    eigenstructure(PolyMatrix.make([[[0, 1], [1], []]], QQ))
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


_SMITH_FORM_SHORT = """
import polyeig.matrix as mx
from polyeig import QQ, InternalError, PolyMatrix, eigenstructure

if __debug__:
    raise SystemExit("not running under -O")
# [s] has rank P_d = 1 = min(m, n) and a finite factor s, so the Smith
# form runs after the rank is certified
mx.smith_form = lambda P: ()
try:
    eigenstructure(PolyMatrix.make([[[0, 1]]], QQ))
except InternalError as exc:
    print(exc)
else:
    raise SystemExit("no InternalError")
"""


def test_internal_invariants_survive_optimize():
    src = os.path.dirname(os.path.dirname(polyeig.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for script, message in (
        (_NO_KERNEL_SEEN, "expected 1 column minimal indices"),
        (_ZERO_CONSTANT_RANKS, "multiplicities at infinity"),
        (_FEED_ONE_BLOCK_SHORT, "expected 1 column minimal indices by k = 2"),
        (_EVERYTHING_DIVIDES, "divisibility chain"),
        (_WRONG_COMPANION, "realization round-trip failed"),
        (_OVERSIZE_COMPANION, "blocks exceed the requested dimensions"),
        (_NEGATIVE_FINITE_DEGREE, "index sum exceeds r * d = 1 by 1"),
        (_SMITH_FORM_SHORT, "Smith form has 0 factors, certified rank 1"),
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert message in proc.stdout
