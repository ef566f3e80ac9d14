import pytest

from polyeig import (
    GF,
    QQ,
    BudgetExceededError,
    Eigenstructure,
    FieldMismatchError,
    HomogPoly,
    Poly,
    eigenstructure,
    enumerate_targets,
    homog_one,
    realize_low_degree,
    search_realization,
)

S = [0, 1]
ONE = homog_one(QQ)


def H(coeffs, e=0, field=QQ):
    return HomogPoly(Poly.make(coeffs, field), e)


def grid(P):
    return [[str(e) for e in row] for row in P.entries]


def realized(rank, factors=(), cols=(), rows=()):
    """Grid of the degree-1 witness whose last factors are `factors`, the
    rest units."""
    chain = (ONE,) * (rank - len(factors)) + tuple(factors)
    return grid(realize_low_degree(Eigenstructure(1, rank, chain, tuple(cols), tuple(rows)), QQ))


def test_blocks():
    # one structural feature each: a column index, a multiplicity at
    # infinity, a finite part and a row index
    assert realized(1, cols=(1,)) == [["s", "1"]]
    assert realized(2, [H([1], 2)]) == [["1", "s"], ["0", "1"]]
    assert realized(2, [H([1, 0, 1])]) == [["s", "1"], ["-1", "s"]]
    assert realized(2, rows=(2,)) == [["s", "0"], ["1", "s"], ["0", "1"]]
    # block order: finite parts, infinity, column then row indices
    assert realized(4, [H(S, 1)], cols=(1,), rows=(1,)) == [
        ["s", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0"],
        ["0", "0", "s", "1", "0"],
        ["0", "0", "0", "0", "s"],
        ["0", "0", "0", "0", "1"],
    ]


def test_block_structures():
    assert realized(2, cols=(2,)) == [["s", "1", "0"], ["0", "s", "1"]]
    assert realized(2, [H([1, 1, 1])]) == [["1 + s", "1"], ["-1", "s"]]
    # degree 0: an identity block, zero-padded
    t = Eigenstructure(0, 2, (ONE, ONE), (0,), (0,))
    assert grid(realize_low_degree(t, QQ)) == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]


def test_realize_examples():
    t = Eigenstructure(1, 2, (H([1]), H(S, 1)), (), ())
    assert grid(realize_low_degree(t, QQ)) == [["s", "0"], ["0", "1"]]
    t2 = Eigenstructure(1, 2, (H([1]), H([1], 2)), (), ())
    assert grid(realize_low_degree(t2, QQ)) == [["1", "s"], ["0", "1"]]
    t3 = Eigenstructure(0, 1, (H([1]),), (0, 0), (0,))
    P = realize_low_degree(t3, QQ)
    assert eigenstructure(P) == t3


def test_realize_rejects():
    with pytest.raises(ValueError):
        realize_low_degree(Eigenstructure(1, 1, (H([1], 1),), (), ()), QQ)  # infeasible
    with pytest.raises(ValueError):
        realize_low_degree(Eigenstructure(2, 1, (H([0, 0, 1]),), (), ()), QQ)  # degree 2
    # a GF(2) target asked for over Q, with no finite part to carry its field
    with pytest.raises(FieldMismatchError):
        realize_low_degree(Eigenstructure(1, 1, (homog_one(GF(2)),), (1,), ()), QQ)


ROUND_TRIP_GRIDS = [(GF(2), 2, 2), (GF(2), 2, 3), (GF(2), 3, 2), (GF(2), 3, 3), (GF(3), 2, 2), (QQ, 2, 2), (QQ, 2, 3)]


@pytest.mark.parametrize(
    "field, m, n, d",
    [pytest.param(F, m, n, d, id=f"{F} {m}x{n} d={d}") for F, m, n in ROUND_TRIP_GRIDS for d in (0, 1)],
)
def test_realize_round_trip(field, m, n, d):
    pool = (-1, 0, 1) if field.is_rational else None
    count = 0
    for target in enumerate_targets(m, n, 0, d, field, coeff_pool=pool):
        assert eigenstructure(realize_low_degree(target, field)) == target
        count += 1
    assert count > 0


def test_search_examples():
    # the first 2 x 1 matrix of degree 1, in lexicographic coefficient
    # order, with each eigenstructure
    F = GF(2)
    s_h = HomogPoly(Poly.make(S, F), 0)
    P = search_realization(Eigenstructure(1, 1, (s_h,), (), (0,)), F, 10**6)
    assert grid(P) == [["0"], ["s"]]
    P2 = search_realization(Eigenstructure(1, 1, (homog_one(F),), (), (1,)), F, 10**6)
    assert grid(P2) == [["s"], ["1"]]
    # a degree-2 factor breaks the index sum of a degree-1 matrix
    s2 = HomogPoly(Poly.make([0, 0, 1], F), 0)
    assert search_realization(Eigenstructure(1, 1, (s2,), (), (0,)), F, 10**6) is None
    # a GF(2) target searched for over GF(3)
    with pytest.raises(FieldMismatchError):
        search_realization(Eigenstructure(1, 1, (s_h,), (), (0,)), GF(3), 10**6)


def test_search_budget():
    F = GF(2)
    target = Eigenstructure(1, 1, (homog_one(F),), (), (1,))
    with pytest.raises(BudgetExceededError):
        search_realization(target, F, 3)
    with pytest.raises(ValueError, match="finite field"):
        search_realization(Eigenstructure(1, 1, (ONE,), (), (1,)), QQ, 10)
    # 2^20000 candidates: the budget is read off the exponent, and the
    # message has no decimal expansion
    wide = Eigenstructure(1, 1, (homog_one(F),), (0,) * 99, (0,) * 99)
    with pytest.raises(BudgetExceededError, match=r"2\^20000 candidates"):
        search_realization(wide, F, 10**6)


def test_enumerate_targets_examples():
    F = GF(2)
    got = set()
    for es in enumerate_targets(1, 1, 1, 1, F):
        got.add((tuple((str(h.alpha), h.e) for h in es.hom_factors), es.col_indices, es.row_indices))
    assert ((("s", 0),), (), (0,)) in got
    assert ((("1 + s", 0),), (), (0,)) in got
    assert ((("1", 0),), (), (1,)) in got
    assert all(es.rank >= 1 for es in enumerate_targets(1, 1, 1, 1, F))
    # degree 0: only the all-unit structure
    zero_deg = list(enumerate_targets(1, 1, 1, 0, F))
    assert all(
        all(h == homog_one(F) for h in es.hom_factors)
        and set(es.col_indices) <= {0}
        and set(es.row_indices) <= {0}
        for es in zero_deg
    )


def test_enumerate_targets_are_realizable():
    from polyeig import check_existence

    F = GF(2)
    for es in enumerate_targets(2, 2, 0, 1, F):
        assert check_existence(es).feasible


def test_enumerate_budget():
    F = GF(2)
    with pytest.raises(BudgetExceededError):
        list(enumerate_targets(2, 2, 1, 2, F, budget=5))


def test_completion_rows_need_a_row():
    from polyeig.realize import all_completion_rows

    with pytest.raises(ValueError):
        next(all_completion_rows(GF(2), 0, 1, 1))
