import pytest

from polyeig import (
    GF,
    QQ,
    BudgetExceededError,
    ColumnSingular,
    Companion,
    Eigenstructure,
    HomogPoly,
    InfinityBlock,
    Poly,
    RowSingular,
    eigenstructure,
    enumerate_targets,
    kronecker_block,
    homog_one,
    realize_low_degree,
    search_realization,
)

S = [0, 1]


def H(coeffs, e=0, field=QQ):
    return HomogPoly(Poly.make(coeffs, field), e)


def grid(P):
    return [[str(e) for e in row] for row in P.entries]


def test_blocks():
    assert grid(kronecker_block(ColumnSingular(1), QQ)) == [["s", "1"]]
    assert grid(kronecker_block(InfinityBlock(2), QQ)) == [["1", "s"], ["0", "1"]]
    assert grid(kronecker_block(Companion(Poly.make([1, 0, 1], QQ)))) == [
        ["s", "1"],
        ["-1", "s"],
    ]
    assert grid(kronecker_block(RowSingular(2), QQ)) == [
        ["s", "0"],
        ["1", "s"],
        ["0", "1"],
    ]


def test_block_validation():
    with pytest.raises(ValueError):
        InfinityBlock(0)
    with pytest.raises(ValueError):
        ColumnSingular(-1)
    with pytest.raises(ValueError):
        Companion(Poly.make([2, 2], QQ))  # not monic
    with pytest.raises(ValueError):
        kronecker_block(ColumnSingular(0), QQ)  # degenerate shape


def test_block_structures():
    # each block realizes exactly one structural feature
    es = eigenstructure(kronecker_block(InfinityBlock(2), QQ))
    assert es.inf_mults == (0, 2)
    es = eigenstructure(kronecker_block(ColumnSingular(2), QQ))
    assert es.col_indices == (2,) and es.row_indices == ()
    es = eigenstructure(kronecker_block(Companion(Poly.make([1, 1, 1], QQ))))
    assert [str(a) for a in es.alphas] == ["1", "1 + s + s^2"]


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


def test_realize_round_trip_gf2():
    F = GF(2)
    count = 0
    for target in enumerate_targets(2, 2, 0, 1, F):
        assert eigenstructure(realize_low_degree(target, F)) == target
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


def test_search_budget():
    F = GF(2)
    target = Eigenstructure(1, 1, (homog_one(F),), (), (1,))
    with pytest.raises(BudgetExceededError):
        search_realization(target, F, 3)
    with pytest.raises(ValueError):
        search_realization(target, QQ, 10)


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
