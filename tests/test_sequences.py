import pytest
from hypothesis import given, strategies as st

from polyeig import construct_d, gen_majorizes, majorizes
from polyeig.sequences import ensure_nonincreasing, ensure_partition, h_threshold, prefix_sum


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
    # the caller names the error class, as in ensure_ints
    for bad in ([1, 2], [1.5], [1, -1]):
        with pytest.raises(KeyError):
            ensure_partition(bad, "p", KeyError)


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
    # with d_{m+1} = -inf the scan ends at m + j
    assert h_threshold((1, 1), (1,), 1) == 2
    assert h_threshold((1, 1, 1), (1,), 2) == 3
    # positions i < j compare against d_{i-j+1} = +inf and never stop it
    assert h_threshold((9, 0, 0), (1,), 2) == 3
    assert h_threshold((9, 5, 0), (1,), 2) == 2


def test_length_mismatch():
    with pytest.raises(ValueError):
        gen_majorizes((1, 1), (1,), (1, 1))


def nonincreasing(min_size=0, max_size=5):
    return st.lists(st.integers(-5, 5), min_size=min_size, max_size=max_size).map(
        lambda v: tuple(sorted(v, reverse=True))
    )


seqs = nonincreasing()


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


@given(seqs, st.booleans(), st.booleans(), st.data())
def test_majorizes_is_the_prefix_sum_definition(a, same_length, balance, data):
    k = len(a)
    if not same_length:
        b = data.draw(seqs.filter(lambda b: len(b) != k))
        with pytest.raises(ValueError, match="length mismatch"):
            majorizes(a, b)
        return
    b = data.draw(nonincreasing(k, k))
    if balance and k:
        # equal totals: raise b's first entry or lower its last, which
        # keeps b nonincreasing
        diff = sum(a) - sum(b)
        b = (b[0] + diff,) + b[1:] if diff >= 0 else b[:-1] + (b[-1] + diff,)
    prefix_ok = all(sum(a[:j]) <= sum(b[:j]) for j in range(1, k + 1))
    assert majorizes(a, b) == (prefix_ok and sum(a) == sum(b))


@given(seqs)
def test_majorizes_reflexive(a):
    assert majorizes(a, a)


@given(seqs, seqs)
def test_majorizes_vs_sorted_merge(u, b):
    # plain majorization special case: empty base sequence
    g = tuple(sorted(u + b, reverse=True))
    assert gen_majorizes(g, (), g)
