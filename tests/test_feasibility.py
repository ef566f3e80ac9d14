from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

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
    check_existence,
    check_finite_only,
    check_full,
    check_hom_only,
    check_hom_plus_cols,
    check_hom_plus_rows,
    check_infinite_only,
    construct_d,
    degree_of,
    eigenstructure,
    gen_majorizes,
    stack_rows,
)
from polyeig import feasibility
from polyeig.feasibility import check_full_colform
from polyeig.oracle import target_from_eigenstructure

from conftest import product, ref_dls, ref_lcm

S = [0, 1]


def H(coeffs, e=0, field=QQ):
    return HomogPoly(Poly.make(coeffs, field), e)


def M(rows, field=QQ):
    return PolyMatrix.make(rows, field)


# --- gap builders ------------------------------------------------------------


def _row_gaps(phi, gamma, u, v, x, z, d):
    """Gap sequences of HomogPoly chains through the row minimal indices u
    of P and v of the completion, as the row-form checkers build them."""
    t = feasibility._lcm_table(phi, gamma)
    return feasibility._gaps(t, feasibility._row_lead(t[2], u, v), x, z, d)


def _col_gaps(phi, gamma, c, dd, x, z, d):
    """The same through the column minimal indices c of P and dd of the
    completion, as the column-form checkers build them."""
    t = feasibility._lcm_table(phi, gamma)
    return feasibility._gaps(t, feasibility._col_lead(t[1], c, dd, x, d), x, z, d)


def test_row_gaps_collapse_at_x0():
    phi = (H(S),)
    a, b = _row_gaps(phi, (H(S),), (), (0,), 0, 1, 1)
    assert a == () and b == (0,)
    a, b = _row_gaps(phi, (H([1]),), (), (1,), 0, 1, 1)
    assert a == () and b == (1,)


def test_col_gaps_example():
    phi = (H([1]),)
    a, b = _col_gaps(phi, (H([1]), H([1])), (1,), (), 1, 1, 1)
    assert a == (1,) and b == ()


def test_col_gaps_unit_chain_collapse():
    # all-unit chains: a1 reduces to sum(c) - sum(dd) + (x-1)d
    phi = (H([1]), H([1]))
    gamma = (H([1]), H([1]), H([1]))
    a, b = _col_gaps(phi, gamma, (2, 1), (1,), 1, 1, 2)
    assert a == (2 + 1 - 1 + 0 * 2,)


# --- existence ---------------------------------------------------------------


def test_existence():
    assert check_existence(eigenstructure(M([[S]]))).feasible
    rep = check_existence(Eigenstructure(1, 1, (H([1], 1),), (), ()))
    assert rep.violations == ("gamma1-at-infinity",)
    rep = check_existence(Eigenstructure(0, 1, (H(S),), (), ()))
    assert rep.violations == ("index-sum",)


def test_existence_rank_zero_rejected():
    with pytest.raises(InvalidTargetError):
        check_existence(Eigenstructure(1, 0, (), (0,), (0,)))


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
    assert key not in {project(es, "hom+rows") for es in achieved_set(P2, 1)}


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


def test_finite_and_infinite_only_on_rank_zero():
    # the checkers read no factor of a rank-0 P
    pin = Eigenstructure(1, 0, (), (0, 0), (0,))
    one = Poly.make([1], GF(2))
    assert check_finite_only(pin, CompletionTarget(z=1, rank=1, finite_factors=(one,))).feasible
    assert check_infinite_only(pin, CompletionTarget(z=1, rank=1, inf_mults=(0,))).feasible
    rep = check_infinite_only(pin, CompletionTarget(z=1, rank=1, inf_mults=(2,)))
    assert rep.violations == ("infinite-only-j",) and rep.details["failed_j"] == [0]


def test_target_integer_parts_are_strict():
    P = M([[S]], GF(2))
    with pytest.raises(InvalidTargetError):
        check_infinite_only(eigenstructure(P), CompletionTarget(z=1, rank=1, inf_mults=(0.5,)))
    for bad in (
        dict(inf_mults=(True,)),
        dict(col_indices=(1.5,)),
        dict(row_indices=(1.5,)),
        dict(row_indices=(False,)),
        dict(z=1.0),
        dict(rank=True),
    ):
        with pytest.raises(InvalidTargetError, match="must be integers"):
            CompletionTarget(**{"z": 1, "rank": 1, **bad})


_ONE, _S = Poly.make([1], QQ), Poly.make([0, 1], QQ)


@pytest.mark.parametrize(
    "parts, message",
    [
        (dict(z=-1), "nonnegative"),
        (dict(rank=0), "rank must be positive"),
        (dict(hom_factors=(H([1]), H([1]))), "homogeneous chain length"),
        (dict(finite_factors=(_ONE, _ONE)), "finite chain length"),
        (dict(finite_factors=(Poly.make([0, 2], QQ),)), "monic"),
        (dict(rank=2, finite_factors=(_S, _ONE)), "divisibility chain"),
        (dict(inf_mults=(0, 0)), "multiplicity list length"),
        (dict(rank=2, inf_mults=(1, 0)), "nondecreasing and nonnegative"),
        (dict(inf_mults=(-1,)), "nondecreasing and nonnegative"),
        (dict(col_indices=(0, 1)), "target column indices must be nonincreasing"),
        (dict(row_indices=(-1,)), "target row indices must be nonnegative"),
    ],
)
def test_target_refusals_are_invalid_target_errors(parts, message):
    with pytest.raises(InvalidTargetError, match=message):
        CompletionTarget(**{"z": 1, "rank": 1, **parts})


def test_target_chain_entries_are_homog():
    for chain in ((1,), ("x",), (H([1]), 1), ("x", H([1]))):
        with pytest.raises(InvalidTargetError, match="must be HomogPoly"):
            CompletionTarget(z=1, rank=len(chain), hom_factors=chain)


def test_hom_only_prefix_cuts_at_x_equal_z():
    # x = z < n - r: the prefix cuts of c against the gaps a with leading
    # term sum deg gamma, prefix(a, j) = sum deg gamma - dls_j - j d
    F = GF(2)
    s = H(S, field=F)
    pin = eigenstructure(M([[[], S, [1]]], F))  # c = (1, 0), chain (1)
    # gamma_1 = s does not divide phi_1 = 1; a = (2 - deg lcm(1, s) - 1,)
    # = (0,), and the cut prefix(c, 2) - c_1 = 0 >= 0 holds
    rep = check_hom_only(pin, CompletionTarget(z=1, rank=2, hom_factors=(s, s)))
    assert rep.violations == ("interlacing",) and rep.details == {"x": 1, "ell": 1}
    # interlacing chains over Q, so the cuts decide
    pin = Eigenstructure(2, 2, (H(S), H(S, 1)), (3, 2, 1), (2,))
    gamma = (H(S), H(S, 1), H([0, 0, 1], 2), H([0, 0, 1], 2))
    rep = check_hom_only(pin, CompletionTarget(z=2, rank=4, hom_factors=gamma))
    assert rep.violations == ("c-sum-ell", "c-sum-tail") and rep.details == {"x": 2, "ell": 1}
    pin = Eigenstructure(1, 2, (H(S, 1), H(S, 1)), (3, 3, 1, 0, 0), (1,))
    gamma = (H(S), H(S), H([0, 0, 1]), H([0, 0, 1], 1), H([0, 0, 1], 2))
    rep = check_hom_only(pin, CompletionTarget(z=3, rank=5, hom_factors=gamma))
    assert rep.violations == ("c-sum-tail",) and rep.details == {"x": 3, "ell": 1}


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
        for es in achieved_set(P, 1):
            x = es.rank - pin.rank
            a, b = _row_gaps(
                pin.hom_factors, es.hom_factors, pin.row_indices, es.row_indices, x, 1, 1
            )
            assert all(p >= q for p, q in zip(a, a[1:]))
            assert all(p >= q for p, q in zip(b, b[1:]))
            assert not b or b[-1] >= 0


def test_interlacing_evaluated_once_per_chain_check(monkeypatch):
    from polyeig import feasibility
    from polyeig.oracle import all_matrices, target_from_eigenstructure
    from polyeig.realize import enumerate_targets

    calls = []
    interlaces = feasibility._interlaces
    monkeypatch.setattr(feasibility, "_interlaces", lambda *a: calls.append(a) or interlaces(*a))
    F = GF(2)
    checks = 0
    cands = list(enumerate_targets(1, 2, 1, 1, F))
    for P in all_matrices(1, 2, 1, F):
        pin = eigenstructure(P)
        for cand in cands:
            if not 0 <= cand.rank - pin.rank <= min(1, 2 - pin.rank):
                continue
            for theorem in ("full", "hom+cols", "hom+rows"):
                feasibility.CHECKERS[theorem](pin, target_from_eigenstructure(cand, 1, theorem))
                checks += 1
    assert checks == len(calls) == 468


# --- chains as one lcm-degree table -----------------------------------------


def _ref_gaps(phi, gamma, lead, x, z, d):
    """Gap sequences a and b computed with polynomial lcms on HomogPoly
    chains: the reference for the checkers' gap sequences."""
    r = len(phi)
    a = []
    if x >= 1:
        a.append(lead - ref_dls(phi, gamma, -x + 1, r + x - 1) - d)
        for j in range(2, x + 1):
            a.append(ref_dls(phi, gamma, -x + j - 1, r + x - j + 1) - ref_dls(phi, gamma, -x + j, r + x - j) - d)
    b = []
    if z - x >= 1:
        b.append(lead - ref_dls(phi, gamma, -x - 1, r + x))
        for j in range(2, z - x + 1):
            b.append(ref_dls(phi, gamma, -x - j + 1, r + x) - ref_dls(phi, gamma, -x - j, r + x))
    return tuple(a), tuple(b)


# shared by every field: parts that meet each other non-trivially
_SHARED = ([0, 1], [0, 0, 1], [0, 1, 1], [1, 3, 3, 1])
_POOLS = {
    QQ: _SHARED + ([Fraction(1, 4), -1, 1], [1, 0, 1], [-2, 0, 1], [1, 1]),
    GF(2): _SHARED + ([1, 1, 1], [1, 1]),
    GF(3): _SHARED + ([1, 0, 1], [2, 1]),
    GF(10007): _SHARED + ([1, 0, 1], [10002, 1], [1, 1]),
}


@st.composite
def _chain(draw, field, length):
    """A divisibility chain of HomogPoly: each factor is the previous one
    times up to two parts from the field's pool and a power of t."""
    pool = _POOLS[field]
    alpha, e, out = Poly.make([1], field), 0, []
    for _ in range(length):
        for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=2)):
            alpha = (alpha * Poly.make(pool[k], field)).monic()
        e += draw(st.integers(0, 2))
        out.append(HomogPoly(alpha, e))
    return tuple(out)


@st.composite
def _chain_pair(draw):
    field = draw(st.sampled_from(list(_POOLS)))
    r = draw(st.integers(0, 3))
    z = draw(st.integers(1, 3))
    x = draw(st.integers(0, z))
    return field, draw(_chain(field, r)), draw(_chain(field, r + x)), x, z


@given(_chain_pair(), st.data())
def test_exponent_vectors_match_homog_arithmetic(pair, data):
    from polyeig import homog_deg, homog_divides

    field, phi, gamma, x, z = pair
    table, dphi, dgamma = feasibility._lcm_table(phi, gamma)
    assert dphi + dgamma == tuple(map(homog_deg, phi + gamma))
    for k, f in enumerate(phi):
        for i, g in enumerate(gamma):
            assert table[k][i] == homog_deg(ref_lcm(f, g))
            # monic factors: a | b exactly when deg lcm(a, b) = deg b
            assert (table[k][i] == dgamma[i]) == homog_divides(f, g)
            assert (table[k][i] == dphi[k]) == homog_divides(g, f)

    ints = st.lists(st.integers(0, 4), max_size=4).map(tuple)
    u, v, c, dd = (data.draw(ints) for _ in range(4))
    d = data.draw(st.integers(1, 3))
    row_lead = sum(v) - sum(u) + sum(map(homog_deg, gamma))
    col_lead = sum(c) - sum(dd) + sum(map(homog_deg, phi)) + x * d
    assert _row_gaps(phi, gamma, u, v, x, z, d) == _ref_gaps(phi, gamma, row_lead, x, z, d)
    assert _col_gaps(phi, gamma, c, dd, x, z, d) == _ref_gaps(phi, gamma, col_lead, x, z, d)


# --- achieved eigenstructures are feasible ----------------------------------


@st.composite
def _completions(draw):
    """P (up to 3 x 4, degree 1 or 2) and W (z <= 3 rows, degree <= deg P)
    over Q, GF(5) or GF(10007).  Either both are dense, with W at a drawn
    sparsity, or P = A B and W = C B share a right factor B through an inner
    size k <= min(m, n): rank deficient when k < min(m, n), and otherwise
    with finite factors that both chains share in part."""
    field = draw(st.sampled_from([QQ, GF(5), GF(10007)]))
    if field.is_rational:
        nonzero = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    else:
        nonzero = st.integers(1, field.p - 1)

    def matrix(rows, cols, d, zeros=0):
        # each coefficient is zero with probability zeros / 4
        def coeff():
            return 0 if draw(st.integers(0, 3)) < zeros else draw(nonzero)

        return [[Poly.make([coeff() for _ in range(d + 1)], field) for _ in range(cols)] for _ in range(rows)]

    m, n, z = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    zeros = draw(st.integers(0, 3))
    if draw(st.booleans()):
        da = draw(st.integers(0, 1))
        db = draw(st.integers(1 - da, 2 - da))
        k = draw(st.integers(1, min(m, n)))
        B = matrix(k, n, db)
        P, W = product(matrix(m, k, da), B, field), product(matrix(z, k, da, zeros), B, field)
    else:
        d = draw(st.integers(1, 2))
        P, W = matrix(m, n, d), matrix(z, n, d, zeros)
    P, W = PolyMatrix.make(P, field), PolyMatrix.make(W, field)
    assume(not P.is_zero and degree_of(P) >= 1)
    assume(W.is_zero or degree_of(W) <= degree_of(P))
    return P, W


@settings(max_examples=250, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_completions())
def test_achieved_eigenstructures_are_feasible(case):
    # the completion theorems' conditions are necessary: the eigenstructure
    # of [P; W] passes every checker
    P, W = case
    pinv, achieved = eigenstructure(P), eigenstructure(stack_rows(P, W))
    runs = [*feasibility.CHECKERS.items(), ("full", check_full_colform)]
    for theorem, checker in runs:
        rep = checker(pinv, target_from_eigenstructure(achieved, W.rows, theorem))
        assert rep.feasible, (theorem, rep)


def test_field_mismatch_is_a_domain_error():
    from polyeig import FieldMismatchError, feasibility
    from polyeig.oracle import target_from_eigenstructure
    from polyeig.realize import enumerate_targets

    pin = eigenstructure(M([[S, [1]]], GF(2)))  # rank 1, over GF(2)
    cands = [es for es in enumerate_targets(1, 2, 1, 1, GF(3)) if es.rank - pin.rank in (0, 1)]
    assert cands
    runs = [*feasibility.CHECKERS.items(), ("full", check_full_colform)]
    for cand in cands:
        for theorem, checker in runs:
            target = target_from_eigenstructure(cand, 1, theorem)
            if theorem == "infinite":
                # t-powers carry no field, so there is nothing to mismatch
                assert isinstance(checker(pin, target), feasibility.FeasibilityReport)
            else:
                with pytest.raises(FieldMismatchError):
                    checker(pin, target)


def test_target_parts_are_tuples():
    one = HomogPoly(Poly.make([1], QQ), 0)
    target = CompletionTarget(z=1, rank=1, hom_factors=(one,), col_indices=(0,))
    assert hash(target) == hash(CompletionTarget(z=1, rank=1, hom_factors=(one,), col_indices=(0,)))
    for bad in (
        dict(hom_factors=[one]),
        dict(finite_factors=[one.alpha]),
        dict(inf_mults=[0]),
        dict(col_indices=[0]),
        dict(row_indices=[]),
    ):
        with pytest.raises(InvalidTargetError, match="must be a tuple"):
            CompletionTarget(z=1, rank=1, **bad)
