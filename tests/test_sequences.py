import pytest
from hypothesis import given, strategies as st

from polyeig import construct_d, gen_majorizes, majorizes
from polyeig.sequences import (
    NEG_INF,
    POS_INF,
    ensure_nonincreasing,
    ensure_partition,
    h_threshold,
    prefix_sum,
    seq_get,
)


def test_seq_get_conventions():
    assert seq_get((3, 1), 0) == POS_INF
    assert seq_get((3, 1), 1) == 3
    assert seq_get((3, 1), 2) == 1
    assert seq_get((3, 1), 3) == NEG_INF


def test_ensure_helpers():
    assert ensure_nonincreasing([3, 1, 1]) == (3, 1, 1)
    with pytest.raises(ValueError):
        ensure_nonincreasing([1, 2])
    with pytest.raises(ValueError):
        ensure_partition([1, -1])
    assert ensure_nonincreasing([2, -1]) == (2, -1)
    # non-integers and bools are rejected, never truncated
    for bad in ([1.5], [True], [2.0, 1], [3, 1.0]):
        with pytest.raises(ValueError):
            ensure_nonincreasing(bad)
    with pytest.raises(ValueError):
        construct_d((2.5, 1), (1,))


def test_prefix_sum_bounds():
    assert prefix_sum((2, 1), 0) == 0
    assert prefix_sum((2, 1), 2) == 3
    with pytest.raises(ValueError):
        prefix_sum((2, 1), 3)


def test_majorizes_basics():
    assert majorizes((2, 2), (3, 1))
    assert not majorizes((3, 1), (2, 2))
    assert majorizes((), ())
    assert not majorizes((1, 1), (3, 1))  # totals differ
    with pytest.raises(ValueError):
        majorizes((1,), (1, 0))
    with pytest.raises(ValueError):
        majorizes((1.5,), (1,))
    with pytest.raises(ValueError):
        majorizes((True,), (1,))
    with pytest.raises(ValueError):
        gen_majorizes((2.7, 0), (2,), (0,))


def test_gen_majorizes_examples():
    # merged (3,2,1) against sources (3,1) and (2): threshold cut holds
    assert gen_majorizes((3, 2, 1), (3, 1), (2,))
    assert not gen_majorizes((3, 2, 1), (1, 1), (4,))
    # with no extra entries the relation degenerates to equality
    assert gen_majorizes((2, 1), (2, 1), ())
    assert not gen_majorizes((2, 1), (1, 1), ())
    # with no base sequence it degenerates to plain majorization
    assert gen_majorizes((2, 2), (), (3, 1))
    assert not gen_majorizes((3, 1), (), (2, 2))


def test_h_threshold_example():
    assert h_threshold((3, 2, 1), (3, 1), 1) == 2
    # sentinel d_{m+1} = -inf always terminates the scan
    assert h_threshold((1, 1), (1,), 1) == 2


def test_length_mismatch():
    with pytest.raises(ValueError):
        gen_majorizes((1, 1), (1,), (1, 1))


seqs = st.lists(st.integers(-5, 5), min_size=0, max_size=5).map(
    lambda v: tuple(sorted(v, reverse=True))
)


@given(seqs, seqs)
def test_union_gen_majorizes(u, b):
    # the merged sequence is always generalized-majorized by its sources
    assert gen_majorizes(tuple(sorted(u + b, reverse=True)), u, b)


@given(seqs, seqs, st.data(), st.integers(-3, 3))
def test_shift_invariance(d, a, data, t):
    # adding a constant to every entry of all three sequences preserves the
    # relation in both directions
    k = len(d) + len(a)
    g = tuple(
        sorted(data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k)), reverse=True)
    )
    shift = lambda seq: tuple(v + t for v in seq)
    assert gen_majorizes(g, d, a) == gen_majorizes(shift(g), shift(d), shift(a))


@given(seqs)
def test_majorizes_reflexive(a):
    assert majorizes(a, a)


@given(seqs, seqs)
def test_majorizes_vs_sorted_merge(u, b):
    # plain majorization special case: empty base sequence
    g = tuple(sorted(u + b, reverse=True))
    assert gen_majorizes(g, (), g)
