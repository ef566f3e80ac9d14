"""Acceptance gate: one test per criterion, exact (zero-tolerance) checks.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""

import random
from fractions import Fraction

import pytest

from polyeig import (
    GF,
    QQ,
    CompletionTarget,
    check_existence,
    check_full,
    companion_form,
    companion_transform,
    construct_d,
    eigenstructure,
    enumerate_targets,
    gen_majorizes,
    homog_deg,
    realize_low_degree,
    stack_rows,
)
from polyeig.feasibility import check_full_colform
from polyeig.oracle import THEOREMS, achieved_set, all_matrices, check_instance, project
from polyeig.sequences import prefix_sum

from conftest import random_matrix, ref_dls

SEED = 20260823

# grid from criterion 3: (m, n, d), all with z = 1, over GF(2)
GRID = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1)]


@pytest.fixture(scope="module")
def grid_mismatches():
    """Checker-vs-exhaustive-search disagreements over the whole grid,
    keyed by theorem.  Computed once and shared by criteria 3 and 4."""
    F = GF(2)
    by_theorem = {t: [] for t in THEOREMS}
    for m, n, d in GRID:
        for P in all_matrices(m, n, d, F):
            for rec in check_instance(P, 1, THEOREMS):
                by_theorem[rec["theorem"]].append(rec)
    return by_theorem


def test_criterion_1_index_sum_identity():
    rng = random.Random(SEED)
    for field in (QQ, GF(2), GF(3)):
        for _ in range(1000):
            P = random_matrix(
                rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3), field
            )
            es = eigenstructure(P)
            total = sum(homog_deg(h) for h in es.hom_factors)
            total += sum(es.col_indices) + sum(es.row_indices)
            assert total == es.rank * es.degree


def test_criterion_2_companion_correspondence():
    rng = random.Random(SEED + 1)
    fields = (QQ, GF(2), GF(3))
    for i in range(300):
        field = fields[i % 3]
        d = rng.choice((1, 2, 3))
        P = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 2), d, field)
        assert eigenstructure(companion_form(P)) == companion_transform(
            eigenstructure(P), field
        )


def test_criterion_3_full_prescription_oracle(grid_mismatches):
    assert grid_mismatches["full"] == []


def test_criterion_4_partial_prescription_oracle(grid_mismatches):
    for theorem in ("hom+cols", "hom+rows", "hom", "finite", "infinite"):
        assert grid_mismatches[theorem] == [], theorem


def test_criterion_5_realization_round_trip():
    q_pool = (Fraction(-1), Fraction(0), Fraction(1))
    checked = 0
    for field, pool in ((GF(2), None), (QQ, q_pool)):
        for m in range(1, 4):
            for n in range(1, 4):
                for d in (0, 1):
                    for target in enumerate_targets(m, n, 0, d, field, coeff_pool=pool):
                        if target.rank * d > 4:
                            continue
                        assert check_existence(target).feasible
                        P = realize_low_degree(target, field)
                        assert eigenstructure(P) == target
                        checked += 1
    assert checked >= 300


def _random_nonincreasing(rng, length, lo=-5, hi=5):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(length)), reverse=True))


def _exists_d_brute(c, a):
    """Whether some integer sequence d gives c <' (d, a), by direct search."""
    q, x = len(c), len(a)
    length = q - x
    total = sum(c) - sum(a)

    # enumeration of nonincreasing d; any witness must dominate the shifted
    # tail of c entrywise, which bounds the search space
    def gen(pos, prev, remaining, acc):
        if pos == length:
            if remaining == 0:
                yield tuple(acc)
            return
        lo = c[pos + x]
        hi = min(prev, remaining - sum(c[i + x] for i in range(pos + 1, length)))
        for val in range(hi, lo - 1, -1):
            yield from gen(pos + 1, val, remaining - val, acc + [val])

    for d in gen(0, 10**6, total, []):
        if gen_majorizes(c, d, a):
            return True
    return False


def test_criterion_6_lemma_suite():
    rng = random.Random(SEED + 2)
    # union lemma: the merged sequence is generalized-majorized by its parts
    for _ in range(10_000):
        u = _random_nonincreasing(rng, rng.randint(0, 4))
        b = _random_nonincreasing(rng, rng.randint(0, 4))
        assert gen_majorizes(tuple(sorted(u + b, reverse=True)), u, b)
    # existence lemma: prefix-cut conditions hold iff some d works, and the
    # explicit construction is a witness
    for _ in range(2000):
        q = rng.randint(1, 4)
        x = rng.randint(0, q - 1)
        c = _random_nonincreasing(rng, q, 0, 4)
        a = _random_nonincreasing(rng, x, -3, 3)
        d = construct_d(c, a)
        exists = _exists_d_brute(c, a)
        assert (d is not None) == exists, (c, a, d)
        if d is not None:
            assert gen_majorizes(c, d, a)
    # prefix implication: c <' (d, a) forces plain prefix domination of the
    # leading block by (a1 + K, a2, ..., ax)
    checked = 0
    while checked < 10_000:
        q = rng.randint(1, 5)
        x = rng.randint(0, q - 1)
        c = _random_nonincreasing(rng, q, 0, 5)
        a = _random_nonincreasing(rng, x, -3, 3)
        d = construct_d(c, a)
        if d is None:
            continue
        K = sum(d[i] - c[i + x] for i in range(q - x))
        bound = (a[0] + K,) + a[1:] if x else ()
        for j in range(1, x + 1):
            lhs = prefix_sum(c[:x], j)
            rhs = sum(bound[:j])
            assert lhs <= rhs if j < x else lhs == rhs, (c, d, a)
        checked += 1


def _condition_415(pinv, gamma, x, z, d, n):
    """The j-indexed degree-sum family of the homogeneous-only theorem,
    case x < z or x = z = n - r (non-strict form, no equality clause)."""
    phi, u, c = pinv.hom_factors, pinv.row_indices, pinv.col_indices
    r = pinv.rank
    su, tail_c = sum(u), sum(c[x:])
    for j in range(x):
        lhs = ref_dls(phi, gamma, j - x, r + x - j) + su + prefix_sum(c, j) + tail_c
        if lhs > (r + x - j) * d:
            return False
    return True


def test_criterion_7_remark_cross_checks():
    from polyeig.feasibility import check_hom_only

    F = GF(2)
    # row/column-form equivalence for full targets
    checked_forms = 0
    for m, n, d in GRID + [(1, 3, 1), (2, 3, 1), (1, 3, 2)]:
        if checked_forms >= 10_000:
            break
        cands = list(enumerate_targets(m, n, 1, d, F))
        for P in all_matrices(m, n, d, F):
            pinv = eigenstructure(P)
            for cand in cands:
                x = cand.rank - pinv.rank
                if not 0 <= x <= min(1, n - pinv.rank):
                    continue
                t = CompletionTarget(
                    z=1,
                    rank=cand.rank,
                    hom_factors=cand.hom_factors,
                    col_indices=cand.col_indices,
                    row_indices=cand.row_indices,
                )
                assert check_full(pinv, t).feasible == check_full_colform(pinv, t).feasible
                checked_forms += 1
    assert checked_forms >= 10_000
    # homogeneous-only case 2 conditions imply the case 1 family
    rng = random.Random(SEED + 3)
    checked_hom = 0
    for m, n, d in ((1, 3, 1), (1, 3, 2), (2, 3, 1)):
        mats = list(all_matrices(m, n, d, F))
        cands = list(enumerate_targets(m, n, 1, d, F))
        for P in rng.sample(mats, min(80, len(mats))):
            pinv = eigenstructure(P)
            for cand in cands:
                x = cand.rank - pinv.rank
                z = x  # case 2 requires x = z
                if not 0 <= x <= min(z, n - pinv.rank) or x >= n - pinv.rank:
                    continue
                t = CompletionTarget(z=z, rank=cand.rank, hom_factors=cand.hom_factors)
                rep = check_hom_only(pinv, t)
                checked_hom += 1
                if rep.feasible:
                    assert _condition_415(pinv, cand.hom_factors, x, z, d, n)
    assert checked_hom >= 10_000


def test_criterion_8_pencil_vs_polynomial_completions():
    F = GF(2)
    for m, n, d in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)):
        for P in all_matrices(m, n, d, F):
            poly_achieved = achieved_set(P, 1)
            transformed = {companion_transform(es, F) for es in poly_achieved}
            pencil_achieved = achieved_set(companion_form(P), 1)
            assert transformed == pencil_achieved, str(P)
