import pytest

from polyeig import (
    GF,
    QQ,
    CompletionTarget,
    ConstantMatrixError,
    Eigenstructure,
    HomogPoly,
    InvalidTargetError,
    Poly,
    PolyMatrix,
    build_gaps_col_form,
    build_gaps_row_form,
    check_existence,
    check_finite_only,
    check_full,
    check_hom_only,
    check_hom_plus_cols,
    check_hom_plus_rows,
    check_infinite_only,
    construct_d,
    eigenstructure,
    gen_majorizes,
)
from polyeig.feasibility import check_full_colform

S = [0, 1]


def H(coeffs, e=0, field=QQ):
    return HomogPoly(Poly.make(coeffs, field), e)


def M(rows, field=QQ):
    return PolyMatrix.make(rows, field)


def ES(degree, rank, hom, col, row):
    return Eigenstructure(degree, rank, hom, col, row, rank + len(row), rank + len(col))


# --- gap builders ------------------------------------------------------------


def test_row_gaps_collapse_at_x0():
    phi = (H(S),)
    a, b = build_gaps_row_form(phi, (H(S),), (), (0,), 0, 1, 1)
    assert a == () and b == (0,)
    a, b = build_gaps_row_form(phi, (H([1]),), (), (1,), 0, 1, 1)
    assert a == () and b == (1,)


def test_col_gaps_example():
    phi = (H([1]),)
    a, b = build_gaps_col_form(phi, (H([1]), H([1])), (1,), (), 1, 1, 1)
    assert a == (1,) and b == ()


def test_col_gaps_unit_chain_collapse():
    # all-unit chains: a1 reduces to sum(c) - sum(dd) + (x-1)d
    phi = (H([1]), H([1]))
    gamma = (H([1]), H([1]), H([1]))
    a, b = build_gaps_col_form(phi, gamma, (2, 1), (1,), 1, 1, 2)
    assert a == (2 + 1 - 1 + 0 * 2,)


# --- existence ---------------------------------------------------------------


def test_existence():
    assert check_existence(eigenstructure(M([[S]]))).feasible
    rep = check_existence(ES(1, 1, (H([1], 1),), (), ()))
    assert rep.violations == ("gamma1-at-infinity",)
    rep = check_existence(ES(0, 1, (H(S),), (), ()))
    assert rep.violations == ("index-sum",)


def test_existence_rank_zero_rejected():
    with pytest.raises(InvalidTargetError):
        check_existence(Eigenstructure(1, 0, (), (0,), (0,), 1, 1))


# --- full prescription --------------------------------------------------------


def full_target(z, rank, hom, col, row):
    return CompletionTarget(z=z, rank=rank, hom_factors=hom, col_indices=col, row_indices=row)


def test_full_examples():
    pin = eigenstructure(M([[S]]))
    assert check_full(pin, full_target(1, 1, (H(S),), (), (0,))).feasible
    assert check_full(pin, full_target(1, 1, (H([1]),), (), (1,))).feasible
    rep = check_full(pin, full_target(1, 1, (H(S),), (), (1,)))
    assert rep.violations == ("degree-sum",)


def test_full_interlacing_and_eta():
    pin = eigenstructure(M([[S], [[1]]]))  # 2x1, rank 1, u=(0)
    bad = full_target(1, 1, (H([1, 1]),), (), (0, 0))
    rep = check_full(pin, bad)
    assert "interlacing" in rep.violations
    pin2 = eigenstructure(M([[[], S], [[], [1]]]))  # u=(1)
    rep2 = check_full(pin2, full_target(1, 1, (H([1]),), (1,), (0, 0)))
    assert "eta" in rep2.violations


def test_full_requires_all_parts():
    pin = eigenstructure(M([[S]]))
    for checker in (check_full, check_full_colform):
        with pytest.raises(InvalidTargetError):
            checker(pin, CompletionTarget(z=1, rank=1, hom_factors=(H(S),)))
        with pytest.raises(InvalidTargetError):
            checker(pin, full_target(1, 1, (H(S),), (9,), (0,)))  # wrong lengths
        with pytest.raises(InvalidTargetError):
            checker(pin, full_target(1, 1, (H(S),), (), (0, 0)))


def test_constant_matrix_rejected():
    pin = eigenstructure(M([[[1]]]))
    with pytest.raises(ConstantMatrixError):
        check_full(pin, full_target(1, 1, (H([1]),), (), (0,)))


def test_bad_x_rejected():
    pin = eigenstructure(M([[S]]))
    with pytest.raises(InvalidTargetError):
        check_full(pin, full_target(1, 2, (H([1]), H([1])), (), ()))  # x > n - r


# --- construct_d (Lemma 4.5) ---------------------------------------------------


def test_construct_d_examples():
    d = construct_d((2, 1, 1), (2,))
    assert d == (1, 1)
    assert gen_majorizes((2, 1, 1), d, (2,))
    assert construct_d((3, 2, 1), (4,)) is None
    assert construct_d((3, 1), ()) == (3, 1)
    with pytest.raises(ValueError):
        construct_d((1,), (1,))


# --- partial checkers: hand examples -------------------------------------------


def test_hom_plus_cols_trivial():
    pin = eigenstructure(M([[S, [1]]]))
    # x=0 with target equal to P's own structure
    t = CompletionTarget(z=1, rank=1, hom_factors=pin.hom_factors, col_indices=pin.col_indices)
    assert check_hom_plus_cols(pin, t).feasible
    bad = CompletionTarget(z=1, rank=1, hom_factors=(H([1, 1]),), col_indices=(1,))
    assert "interlacing" in check_hom_plus_cols(pin, bad).violations


def test_hom_plus_rows_spec_example_corrected():
    # a unit chain of length 2 for [s,1] with one added row is impossible:
    # the index sum identity forces total degree 2 but the target carries 0
    pin = eigenstructure(M([[S, [1]]]))
    t = CompletionTarget(z=1, rank=2, hom_factors=(H([1]), H([1])), row_indices=())
    rep = check_hom_plus_rows(pin, t)
    assert not rep.feasible
    # brute-force confirmation over GF(2)
    from polyeig.oracle import achieved_set, project

    F = GF(2)
    P2 = PolyMatrix.make([[S, [1]]], F)
    key = (2, (HomogPoly(Poly.make([1], F), 0),) * 2, ())
    assert key not in {project(es, "hom+rows") for es in achieved_set(P2, 1, 1)}


def test_finite_only_examples():
    pin = eigenstructure(M([[S]]))
    one, s = Poly.make([1], QQ), Poly.make(S, QQ)
    assert check_finite_only(pin, CompletionTarget(z=1, rank=1, finite_factors=(one,))).feasible
    assert check_finite_only(pin, CompletionTarget(z=1, rank=1, finite_factors=(s,))).feasible
    s2 = Poly.make([0, 0, 1], QQ)
    rep = check_finite_only(pin, CompletionTarget(z=1, rank=1, finite_factors=(s2,)))
    assert rep.violations == ("interlacing",)


def test_infinite_only_examples():
    pin = eigenstructure(M([[S, []], [[], [1]]]))  # e=(0,1)
    assert check_infinite_only(pin, CompletionTarget(z=1, rank=2, inf_mults=(0, 1))).feasible
    rep = check_infinite_only(pin, CompletionTarget(z=1, rank=2, inf_mults=(1, 1)))
    assert rep.violations == ("interlacing",)


def test_hom_only_x0():
    pin = eigenstructure(M([[S]]))
    assert check_hom_only(pin, CompletionTarget(z=1, rank=1, hom_factors=(H(S),))).feasible
    assert check_hom_only(pin, CompletionTarget(z=1, rank=1, hom_factors=(H([1]),))).feasible
    bad = CompletionTarget(z=1, rank=1, hom_factors=(H([0, 0, 1]),))
    assert "interlacing" in check_hom_only(pin, bad).violations


# --- consistency properties -----------------------------------------------------


def _projected_targets(es, z):
    return {
        check_hom_plus_cols: CompletionTarget(
            z=z, rank=es.rank, hom_factors=es.hom_factors, col_indices=es.col_indices
        ),
        check_hom_plus_rows: CompletionTarget(
            z=z, rank=es.rank, hom_factors=es.hom_factors, row_indices=es.row_indices
        ),
        check_hom_only: CompletionTarget(z=z, rank=es.rank, hom_factors=es.hom_factors),
        check_finite_only: CompletionTarget(z=z, rank=es.rank, finite_factors=es.alphas),
        check_infinite_only: CompletionTarget(z=z, rank=es.rank, inf_mults=es.inf_mults),
    }


def test_projection_self_consistency():
    # if the full checker accepts, every projection checker accepts too
    from polyeig.oracle import all_matrices
    from polyeig.realize import enumerate_targets

    F = GF(2)
    hits = 0
    for P in all_matrices(1, 2, 1, F):
        pin = eigenstructure(P)
        for cand in enumerate_targets(1, 2, 1, 1, F):
            x = cand.rank - pin.rank
            if not 0 <= x <= min(1, 2 - pin.rank):
                continue
            full = CompletionTarget(
                z=1,
                rank=cand.rank,
                hom_factors=cand.hom_factors,
                col_indices=cand.col_indices,
                row_indices=cand.row_indices,
            )
            if not check_full(pin, full).feasible:
                continue
            hits += 1
            for checker, target in _projected_targets(cand, 1).items():
                assert checker(pin, target).feasible, checker.__name__
    assert hits > 0


def test_unprescribed_parts_are_ignored():
    # a target carrying all five parts gets the report of one carrying only
    # the parts the theorem prescribes
    from polyeig.feasibility import CHECKERS, PRESCRIBES
    from polyeig.oracle import all_matrices, target_from_eigenstructure
    from polyeig.realize import enumerate_targets

    PARTS = ("hom_factors", "finite_factors", "inf_mults", "col_indices", "row_indices")
    F = GF(2)
    checkers = [*CHECKERS.items(), ("full", check_full_colform)]
    compared = 0
    for z in (1, 2):
        cands = list(enumerate_targets(1, 2, z, 1, F))
        for P in all_matrices(1, 2, 1, F):
            pin = eigenstructure(P)
            for cand in cands:
                if not 0 <= cand.rank - pin.rank <= min(z, 2 - pin.rank):
                    continue
                every = CompletionTarget(
                    z=z,
                    rank=cand.rank,
                    hom_factors=cand.hom_factors,
                    finite_factors=cand.alphas,
                    inf_mults=cand.inf_mults,
                    col_indices=cand.col_indices,
                    row_indices=cand.row_indices,
                )
                for theorem, checker in checkers:
                    only = target_from_eigenstructure(cand, z, theorem)
                    assert {f for f in PARTS if getattr(only, f) is not None} == set(PRESCRIBES[theorem])
                    assert checker(pin, every) == checker(pin, only), (theorem, checker.__name__)
                    compared += 1
    assert compared > 2000


def test_row_col_form_equivalence():
    from polyeig.oracle import all_matrices
    from polyeig.realize import enumerate_targets

    F = GF(2)
    for P in all_matrices(1, 2, 1, F):
        pin = eigenstructure(P)
        for cand in enumerate_targets(1, 2, 1, 1, F):
            x = cand.rank - pin.rank
            if not 0 <= x <= min(1, 2 - pin.rank):
                continue
            full = CompletionTarget(
                z=1,
                rank=cand.rank,
                hom_factors=cand.hom_factors,
                col_indices=cand.col_indices,
                row_indices=cand.row_indices,
            )
            assert check_full(pin, full).feasible == check_full_colform(pin, full).feasible


def test_existence_of_own_eigenstructure(rng):
    from conftest import FIELDS, random_matrix

    for _ in range(40):
        field = FIELDS[rng.randrange(len(FIELDS))]
        P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2), field)
        assert check_existence(eigenstructure(P)).feasible


def test_gap_shapes_on_feasible_instances():
    # on every oracle-feasible full target the gap sequences are
    # nonincreasing and b stays nonnegative
    from polyeig.oracle import achieved_set, all_matrices

    F = GF(2)
    for P in all_matrices(1, 2, 1, F):
        pin = eigenstructure(P)
        for es in achieved_set(P, 1, 1):
            x = es.rank - pin.rank
            a, b = build_gaps_row_form(
                pin.hom_factors, es.hom_factors, pin.row_indices, es.row_indices, x, 1, 1
            )
            assert all(p >= q for p, q in zip(a, a[1:]))
            assert all(p >= q for p, q in zip(b, b[1:]))
            assert not b or b[-1] >= 0
