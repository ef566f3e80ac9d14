"""Nonincreasing integer sequences, majorization and generalized majorization.

Sequences are plain tuples sorted nonincreasingly.  The formulas index them
from 1, as the paper does, so entry i of a sequence is ``seq[i - 1]``.
Plain majorization is generalized majorization with an empty base sequence.
"""

from __future__ import annotations


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in polyeig, not bad input.

    Raised instead of `assert` so that the checks survive ``python -O``."""


def ensure_ints(values, what: str, error=ValueError) -> None:
    """Raise `error` unless every value is an int.  Bools and integral
    floats are rejected, never truncated, as in the JSON parsers."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise error(f"{what} must be integers, got {v!r}")


def ensure_nonincreasing(values, name: str = "sequence", error=ValueError) -> tuple:
    vals = tuple(values)
    ensure_ints(vals, name, error)
    if any(a < b for a, b in zip(vals, vals[1:])):
        raise error(f"{name} must be nonincreasing: {vals}")
    return vals


def ensure_partition(values, name: str = "partition", error=ValueError) -> tuple:
    vals = ensure_nonincreasing(values, name, error)
    if vals and vals[-1] < 0:
        raise error(f"{name} must be nonnegative: {vals}")
    return vals


def prefix_sum(seq, k: int) -> int:
    """Sum of the first k entries (k may exceed the length only if k <= len)."""
    if k < 0 or k > len(seq):
        raise ValueError(f"prefix length {k} out of range for {seq}")
    return sum(seq[:k])


def majorizes(a, b) -> bool:
    """Whether a is majorized by b (prefix sums of a bounded, totals equal):
    the empty-base case a <' ((), b) of `gen_majorizes`."""
    return _gen_majorizes(ensure_nonincreasing(a, "a"), (), ensure_nonincreasing(b, "b"))


def h_threshold(g, d, j: int) -> int:
    """Least i with d_{i-j+1} < g_i, taking d_{m+1} = -inf.

    Needs j >= 1 and len(g) >= len(d) + j.  Taking d_k = +inf for k < 1,
    no i < j qualifies, so the scan starts at j; the result lies in
    [j, len(d) + j].
    """
    m = len(d)
    for i in range(j, m + j):
        if d[i - j] < g[i - 1]:
            return i
    return m + j


def gen_majorizes(g, d, a) -> bool:
    """Generalized majorization g <' (d, a).

    Requires len(g) == len(d) + len(a); checks the interlacing bound
    d_i >= g_{i+s}, the threshold-cut inequalities, and equal totals.
    """
    return _gen_majorizes(ensure_nonincreasing(g, "g"), ensure_nonincreasing(d, "d"), a)


def _gen_majorizes(g, d, a) -> bool:
    """`gen_majorizes` for g and d already validated as nonincreasing
    integer tuples, as the index lists of an `Eigenstructure` and a
    `CompletionTarget` are.  Only a is validated here."""
    a = ensure_nonincreasing(a, "a")
    m, s = len(d), len(a)
    if len(g) != m + s:
        raise ValueError(f"length mismatch: {len(g)} != {m} + {s}")
    if any(d[i - 1] < g[i + s - 1] for i in range(1, m + 1)):
        return False
    for j in range(1, s + 1):
        h = h_threshold(g, d, j)
        if prefix_sum(g, h) - prefix_sum(d, h - j) > prefix_sum(a, j):
            return False
    return sum(g) == sum(d) + sum(a)
