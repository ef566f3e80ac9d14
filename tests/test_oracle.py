"""The memoised oracle against plain exhaustive search and planted checkers,
plus zero-mismatch runs on the first GF(3) grid, the first grid with rank
excess 2, the first GF(3) grid with gap sequences of length 2, two grids
with m = 2 and z = 2, and the grids the orbits of GL_n(p) bring in reach:
GF(2) 3 x 3, GF(3) 2 x 3 and GF(2) 2 x 2 with z = 2 and d = 2."""

import hashlib
import itertools
import random
import re

import pytest

import polyeig.oracle as oracle
from polyeig import GF, QQ, Poly, PolyMatrix, eigenstructure, stack_rows
from polyeig.feasibility import FeasibilityReport
from polyeig.matrix import _coefficient_lists, _coefficient_stack, degree_of, echelon
from polyeig.oracle import GridSpec, achieved_set, all_matrices, run_grid
from polyeig.realize import all_completion_rows, enumerate_targets

from conftest import product, random_matrix, ref_det

# the criterion-3 grids, the two benchmark grids, then GF(3) with z = 2
ACHIEVED_GRIDS = [f"gf2 m={m} n={n} z=1 d={d}" for m, n, d in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1)]]
ACHIEVED_GRIDS += ["gf3 m=1 n=2 z=1 d=1", "gf2 m=1 n=2 z=2 d=1", "gf3 m=1 n=1 z=2 d=1"]

PLANT_GRID = GridSpec.parse("gf2 m=1 n=2 z=1 d=1")


def always_feasible(pinv, target):
    return FeasibilityReport(())


@pytest.mark.parametrize("grid", ACHIEVED_GRIDS)
def test_memoised_achieved_set_equals_exhaustive(grid):
    g = GridSpec.parse(grid)
    ctx = oracle._GridContext(g)  # one memo across the grid, as run_grid has
    for P in all_matrices(g.m, g.n, g.d, g.field):
        plain = {eigenstructure(stack_rows(P, W)) for W in all_completion_rows(g.field, g.z, g.n, g.d)}
        assert achieved_set(P, g.z, _ctx=ctx) == plain
        assert achieved_set(P, g.z) == plain


def test_planted_checker_is_seen_and_not_cached(monkeypatch):
    monkeypatch.setitem(oracle.CHECKERS, "full", always_feasible)
    planted = run_grid(PLANT_GRID)
    assert planted and {rec["theorem"] for rec in planted} == {"full"}
    assert all(rec["checker"] and not rec["search"] for rec in planted)
    monkeypatch.undo()
    assert run_grid(PLANT_GRID) == []


WIDE_GRIDS = ["gf3 m=2 n=2 z=2 d=1", "gf2 m=2 n=3 z=2 d=1"]
# the first grid with m >= 2, z >= 2 and d >= 2, the first over GF(5), then
# two of 261,632 and 530,712 matrices that the orbits of GL_n(p) bring in
# reach; a planted checker lists every record, millions on the last two, so
# it is planted on the first two only
ORBIT_GRIDS = ["gf2 m=2 n=2 z=2 d=2", "gf5 m=1 n=2 z=2 d=1", "gf2 m=3 n=3 z=1 d=1", "gf3 m=2 n=3 z=1 d=1"]


@pytest.mark.parametrize(
    "grid", ["gf3 m=1 n=2 z=1 d=1", "gf2 m=2 n=2 z=2 d=1", "gf3 m=1 n=2 z=2 d=1", *WIDE_GRIDS, *ORBIT_GRIDS]
)
def test_no_mismatches_on_wider_grid(grid):
    assert run_grid(GridSpec.parse(grid)) == []


@pytest.mark.parametrize("grid", [*WIDE_GRIDS, *ORBIT_GRIDS[:2]])
def test_planted_checker_is_seen_on_wide_grid(grid, monkeypatch):
    monkeypatch.setitem(oracle.CHECKERS, "full", always_feasible)
    planted = run_grid(GridSpec.parse(grid), theorems=("full",))
    assert planted and all(rec["checker"] and not rec["search"] for rec in planted)


def negated(check):
    return lambda pinv, target: FeasibilityReport(("negated",) if check(pinv, target).feasible else ())


def plain_records(P, z, checkers):
    """`check_instance`'s records with no memo and every W: each admissible
    target whose projection is new, in target order, then the checker."""
    d, n = degree_of(P), P.cols
    pinv = eigenstructure(P)
    achieved = [eigenstructure(stack_rows(P, W)) for W in all_completion_rows(P.field, z, n, d)]
    records = []
    for theorem in oracle.THEOREMS:
        truth = [oracle.project(es, theorem) for es in achieved]
        seen = []
        for cand in enumerate_targets(P.rows, n, z, d, P.field):
            key = oracle.project(cand, theorem)
            if not 0 <= cand.rank - pinv.rank <= min(z, n - pinv.rank) or key in seen:
                continue
            seen.append(key)
            verdict = checkers[theorem](pinv, oracle.target_from_eigenstructure(cand, z, theorem)).feasible
            if verdict != (key in truth):
                records.append(
                    {"matrix": P, "theorem": theorem, "target": cand, "checker": verdict, "search": key in truth}
                )
    return records


@pytest.mark.parametrize("grid", ["gf2 m=1 n=2 z=1 d=1", "gf3 m=1 n=1 z=2 d=1", "gf3 m=1 n=2 z=1 d=1"])
def test_records_follow_target_order_without_memo(grid, monkeypatch):
    # negated checkers disagree with brute force on every admissible target,
    # so the records list each (theorem, distinct projection) in order; on
    # GF(3) P and 2P share a class, and each keeps its own records
    checkers = {theorem: negated(check) for theorem, check in oracle.CHECKERS.items()}
    g = GridSpec.parse(grid)
    expected = [rec for P in all_matrices(g.m, g.n, g.d, g.field) for rec in plain_records(P, g.z, checkers)]
    for theorem, check in checkers.items():
        monkeypatch.setitem(oracle.CHECKERS, theorem, check)
    assert expected and run_grid(g) == expected


def test_records_leave_out_targets_past_the_window(monkeypatch):
    # rank-deficient P with n - r > z: targets of rank r + z + 1 exist, and
    # only the admissibility window leaves them out
    checkers = {theorem: negated(check) for theorem, check in oracle.CHECKERS.items()}
    mats = list(itertools.islice((P for P in all_matrices(2, 3, 1, GF(2)) if eigenstructure(P).rank == 1), 4))
    expected = [plain_records(P, 1, checkers) for P in mats]
    for theorem, check in checkers.items():
        monkeypatch.setitem(oracle.CHECKERS, theorem, check)
    ctx = oracle._GridContext(GridSpec(GF(2), 2, 3, 1, 1))
    assert all(expected) and [oracle.check_instance(P, 1, _ctx=ctx) for P in mats] == expected


def _refusal(asked):
    """The message of a memo for the GF(2) 1 x 2 z=1 d=1 grid refusing the
    grid `asked`, in `GridSpec.parse` form."""
    return re.escape(f"memo serves {GridSpec.parse('gf2 m=1 n=2 z=1 d=1')!r}, not {GridSpec.parse(asked)!r}")


def test_memo_serves_one_z(monkeypatch):
    # a memo shared across z = 1 and z = 2 used to answer z = 2 from the
    # z = 1 targets: 67 records where a fresh memo gives 83
    checkers = {theorem: negated(check) for theorem, check in oracle.CHECKERS.items()}
    P = next(all_matrices(1, 2, 1, GF(2)))
    expected = plain_records(P, 2, checkers)
    for theorem, check in checkers.items():
        monkeypatch.setitem(oracle.CHECKERS, theorem, check)
    ctx = oracle._GridContext(GridSpec.parse("gf2 m=1 n=2 z=1 d=1"))
    assert oracle.check_instance(P, 1, _ctx=ctx)
    with pytest.raises(ValueError, match=_refusal("gf2 m=1 n=2 z=2 d=1")):
        oracle.check_instance(P, 2, _ctx=ctx)
    assert len(expected) == 83 and oracle.check_instance(P, 2) == expected
    # nor another shape or degree, whose stack forms it would mistake for its own
    wide, deep = PolyMatrix.make([[[1], [0, 1], []]], GF(2)), PolyMatrix.make([[[1], [0, 0, 1]]], GF(2))
    for other, grid in ((wide, "gf2 m=1 n=3 z=1 d=1"), (deep, "gf2 m=1 n=2 z=1 d=2")):
        with pytest.raises(ValueError, match=_refusal(grid)):
            oracle.check_instance(other, 1, _ctx=ctx)
    with pytest.raises(ValueError, match="grid needs z >= 1, got 0"):
        oracle.check_instance(P, 0)


def test_memo_serves_one_field():
    # [1, s] has one stack form over GF(2) and GF(3): a shared memo used to
    # return the GF(2) eigenstructures for the GF(3) matrix
    P2, P3 = (PolyMatrix.make([[[1], [0, 1]]], GF(p)) for p in (2, 3))
    plain2, plain3 = ({eigenstructure(stack_rows(P, W)) for W in all_completion_rows(P.field, 1, 2, 1)} for P in (P2, P3))
    ctx = oracle._GridContext(GridSpec.parse("gf2 m=1 n=2 z=1 d=1"))
    assert achieved_set(P2, 1, _ctx=ctx) == plain2
    with pytest.raises(ValueError, match=_refusal("gf3 m=1 n=2 z=1 d=1")):
        achieved_set(P3, 1, _ctx=ctx)
    assert achieved_set(P3, 1) == plain3 != plain2
    # nor another shape or degree
    tall, deep = PolyMatrix.make([[[1], [0, 1]], [[], [1]]], GF(2)), PolyMatrix.make([[[1], [0, 0, 1]]], GF(2))
    for other, grid in ((tall, "gf2 m=2 n=2 z=1 d=1"), (deep, "gf2 m=1 n=2 z=1 d=2")):
        with pytest.raises(ValueError, match=_refusal(grid)):
            achieved_set(other, 1, _ctx=ctx)
    with pytest.raises(ValueError, match="grid needs z >= 1, got 0"):
        achieved_set(P2, 0)


def subspaces(q, k, p):
    """[q choose k]_p by brute force: the ordered k-tuples of independent
    vectors of GF(p)^q over the ordered bases of one k-space."""
    vectors = [v for v in itertools.product(range(p), repeat=q) if any(v)]
    bases = sum(1 for rows in itertools.permutations(vectors, k) if len(echelon([list(r) for r in rows], GF(p))) == k)
    per_space = 1
    for i in range(k):
        per_space *= p**k - p**i
    return bases // per_space


@pytest.mark.parametrize("grid", ["gf3 m=1 n=2 z=1 d=1", "gf2 m=2 n=2 z=1 d=1", "gf2 m=1 n=2 z=2 d=1"])
def test_completions_enumerated_modulo_row_space(grid, monkeypatch):
    # one row-space key per subspace V of dimension <= z over P's stack row
    # space U: sum_{k <= z} [q choose k]_p of them, q = n (d+1) - rho for
    # a stack of rank rho, fewer than the p^(z q) W zero at U's pivots
    g = GridSpec.parse(grid)
    keys = []

    def counting(rows, field, basis=None):
        keys.append(basis is not None)
        return echelon(rows, field, basis)

    monkeypatch.setattr(oracle, "echelon", counting)
    ranks = set()
    for P in all_matrices(g.m, g.n, g.d, g.field):
        rho = len(echelon(_coefficient_stack(_coefficient_lists(P), g.d), g.field))
        ranks.add(rho)
        keys.clear()
        achieved_set(P, g.z)
        q = g.n * (g.d + 1) - rho
        assert sum(keys) == sum(subspaces(q, k, g.field.p) for k in range(min(g.z, q) + 1)), str(P)
    assert len(ranks) == (1 if g.m == 1 else 2)
    if g.z == 2:  # one rank, q = 3: 1 + 7 + 7 subspaces against 2^6 W
        assert sum(keys) == 15 < g.field.p ** (g.z * 3)


def test_achieved_set_once_per_orbit(monkeypatch):
    # the 72 GF(3) 1 x 2 pencils have 36 stack row spaces (P and 2P share
    # one), which GL_2(3) joins into p + 1 = 4 orbits: [1 s] and [s - a 0]
    # for the three a
    calls = []

    def counting(P, z, **kwargs):
        calls.append(P)
        return achieved_set(P, z, **kwargs)

    monkeypatch.setattr(oracle, "achieved_set", counting)
    g = GridSpec.parse("gf3 m=1 n=2 z=1 d=1")
    assert run_grid(g) == []
    assert len(list(all_matrices(g.m, g.n, g.d, g.field))) == 72 and len(calls) == 4


def test_clean_grid_lists_no_matrix(monkeypatch):
    def refused(*args):
        raise AssertionError("a grid with no mismatch listed its matrices")

    monkeypatch.setattr(oracle, "all_matrices", refused)
    for grid in ("gf3 m=1 n=2 z=1 d=1", "gf2 m=2 n=2 z=2 d=1", "gf2 m=1 n=2 z=1 d=2"):
        assert run_grid(GridSpec.parse(grid)) == []


@pytest.mark.parametrize("grid", ["gf2 m=2 n=2 z=1 d=1", "gf3 m=1 n=2 z=1 d=1", "gf2 m=1 n=3 z=1 d=1", "gf2 m=1 n=2 z=1 d=2"])
def test_orbits_keep_the_eigenstructure(grid):
    # every class the orbit walk joins has its representative's
    # eigenstructure, every class of the grid is reached, and at d = 1 the
    # orbits are the eigenstructures, as for pencils under strict equivalence
    g = GridSpec.parse(grid)
    ctx = oracle._GridContext(g)
    mats = list(all_matrices(g.m, g.n, g.d, g.field))
    for P in mats:
        oracle.check_instance(P, g.z, _ctx=ctx)
    forms = {tuple(tuple(row) for _, row in oracle._stack_form(P, g.d)) for P in mats}
    assert {form for _, form in ctx.orbits} == forms
    for key, (rep, _) in ctx.orbits.items():
        assert eigenstructure(ctx.matrix(*key)) == eigenstructure(ctx.matrix(*rep)), key
    reps = {rep for rep, _ in ctx.orbits.values()}
    if g.d == 1:
        assert len(reps) == len({eigenstructure(P) for P in mats})


def _generator_matrices(n, p):
    """The n-cycle, the transposition (1 2), the transvection col_2 += col_1
    and diag(lam, 1, ...), lam = 2..p-1, as n x n integer matrices."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    cycle = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
    swap = [row[:] for row in eye]
    swap[0], swap[1] = swap[1], swap[0]
    shear = [row[:] for row in eye]
    shear[0][1] = 1
    scales = []
    for lam in range(2, p):
        scale = [row[:] for row in eye]
        scale[0][0] = lam
        scales.append(scale)
    return [cycle, swap, shear, *scales]


def _constant(Q, field):
    return [[Poly.make([c], field) for c in row] for row in Q]


# (field, m, n, d, z): every shape has n >= 2, so that GL_n(p) moves row spaces
FACT_2_SHAPES = [
    (GF(2), 1, 3, 2, 1), (GF(2), 2, 3, 1, 1), (GF(2), 2, 2, 1, 2),
    (GF(3), 1, 3, 1, 1), (GF(3), 2, 2, 1, 1),
    (GF(5), 1, 2, 1, 1), (GF(5), 2, 2, 1, 1),
]


def test_right_factor_keeps_eigenstructure_and_achieved_set():
    # Fact 2 on matrices and Q drawn at random, through no orbit memo:
    # P Q has P's eigenstructure and P's achieved set
    rng = random.Random(20261022)
    for field, m, n, d, z in FACT_2_SHAPES:
        p = field.p
        gens = _generator_matrices(n, p)
        for _ in range(2):
            P = random_matrix(rng, m, n, d, field)
            word = [rng.choice(gens) for _ in range(6)]
            Q = _constant(word[0], field)
            for gen in word[1:]:
                Q = product(Q, _constant(gen, field), field)
            while True:
                R = _constant([[rng.randrange(p) for _ in range(n)] for _ in range(n)], field)
                if not ref_det(R, field).is_zero:
                    break
            es, achieved = eigenstructure(P), achieved_set(P, z)
            for factor in (Q, R):
                PQ = PolyMatrix.make(product(P.entries, factor, field), field)
                assert eigenstructure(PQ) == es, (P, factor)
                assert achieved_set(PQ, z) == achieved, (P, factor)


# With all six checkers negated, the records of these grids, in order, hash
# as recorded in CHANGES.md: the first 16 hex of SHA-256 fed each record's
# repr, and the record count.
RECORD_HASHES = {
    "gf2 m=1 n=2 z=1 d=1": ("358d05ea89c53334", 804),
    "gf2 m=1 n=2 z=2 d=1": ("e72472c95d53d03e", 996),
    "gf3 m=1 n=2 z=1 d=1": ("ae3633143da74414", 7_704),
    "gf2 m=2 n=2 z=1 d=1": ("67525cfd091fd9bc", 16_386),
    "gf2 m=2 n=2 z=2 d=1": ("3dd4f3b86f99bbf3", 16_866),
    "gf3 m=1 n=2 z=2 d=1": ("6a913a547b97da92", 9_144),
    "gf2 m=1 n=3 z=1 d=1": ("d8c6f1e23584b8c0", 4_648),
    "gf2 m=1 n=2 z=1 d=2": ("7c5db64c0fde9de0", 14_304),
    "gf2 m=2 n=1 z=1 d=1": ("2542a92bb41c6a16", 192),
}


def test_negated_records_hash_as_recorded(monkeypatch):
    for theorem, check in oracle.CHECKERS.items():
        monkeypatch.setitem(oracle.CHECKERS, theorem, negated(check))
    found = {}
    for grid in RECORD_HASHES:
        digest, count = hashlib.sha256(), 0
        for rec in run_grid(GridSpec.parse(grid)):
            digest.update(repr(rec).encode())
            count += 1
        found[grid] = (digest.hexdigest()[:16], count)
    assert found == RECORD_HASHES


def test_achieved_set_completes_up_to_deg_p():
    # P = [s^2, 1]: completed by rows of degree <= 1 it gave 8 of the 16
    # eigenstructures of the completions by rows of degree <= deg P = 2
    P = PolyMatrix.make([[[0, 0, 1], [1]]], GF(2))
    assert achieved_set(P, 1) == {eigenstructure(stack_rows(P, W)) for W in all_completion_rows(GF(2), 1, 2, 2)}


def test_oracle_refuses_a_matrix_over_q():
    # it used to end in a TypeError deep in the subspace enumeration
    P = PolyMatrix.make([[[1], [0, 1]]], QQ)
    for call in (achieved_set, oracle.check_instance):
        with pytest.raises(ValueError, match="grid field must be a GF"):
            call(P, 1)


def test_repeated_theorem_counted_once(monkeypatch):
    # ("full", "full") used to give each record twice: 312 where "full" gives 156
    monkeypatch.setitem(oracle.CHECKERS, "full", negated(oracle.CHECKERS["full"]))
    once = run_grid(PLANT_GRID, theorems=("full",))
    assert len(once) == 156 and run_grid(PLANT_GRID, theorems=("full", "full")) == once
    P = next(all_matrices(1, 2, 1, GF(2)))
    assert oracle.check_instance(P, 1, ("hom", "full", "hom")) == oracle.check_instance(P, 1, ("hom", "full"))


def test_one_theorem_table():
    from polyeig import feasibility

    assert oracle.CHECKERS is feasibility.CHECKERS
    assert oracle.THEOREMS == tuple(feasibility.PRESCRIBES) == tuple(feasibility.CHECKERS)
    P = next(all_matrices(1, 2, 1, PLANT_GRID.field))
    es = eigenstructure(P)
    assert oracle.project(es, "full") == (es.rank, es.hom_factors, es.col_indices, es.row_indices)
    assert oracle.project(es, "hom+rows") == (es.rank, es.hom_factors, es.row_indices)
    assert oracle.project(es, "finite") == (es.rank, es.alphas)
    assert oracle.project(es, "infinite") == (es.rank, es.inf_mults)
    with pytest.raises(ValueError):
        oracle.project(es, "exists")


def test_run_grid_runs_in_one_process():
    assert run_grid(PLANT_GRID, jobs=1) == []
    for jobs in (0, 2):
        with pytest.raises(ValueError, match="jobs must be 1"):
            run_grid(PLANT_GRID, jobs=jobs)


def test_grid_spec_field_must_be_a_prime_field():
    # a name or Q used to construct, and run_grid then died inside the grid
    for bad in ("gf2", 2, None, QQ):
        with pytest.raises(ValueError, match="grid field must be a GF"):
            GridSpec(bad, 1, 1, 1, 1)
    assert GridSpec(GF(3), 1, 1, 1, 1) == GridSpec.parse("gf3 m=1 n=1 z=1 d=1")
