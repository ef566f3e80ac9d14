"""Nonincreasing integer sequences, majorization and generalized majorization.

Sequences are plain tuples sorted nonincreasingly.  Index conventions are
handled by the accessor `seq_get`: entries are +inf before the start and
-inf past the end, so comparisons against out-of-range positions stay
exact without padding the stored data.
"""

from __future__ import annotations

POS_INF = float("inf")
NEG_INF = float("-inf")


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in polyeig, not bad input.

    Raised instead of `assert` so that the checks survive ``python -O``."""


def ensure_ints(values, what: str, error=ValueError) -> None:
    """Raise `error` unless every value is an int.  Bools and integral
    floats are rejected, never truncated, as in the JSON parsers."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise error(f"{what} must be integers, got {v!r}")


def ensure_nonincreasing(values, name: str = "sequence") -> tuple:
    vals = tuple(values)
    ensure_ints(vals, name)
    if any(a < b for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} must be nonincreasing: {vals}")
    return vals


def ensure_partition(values, name: str = "partition") -> tuple:
    vals = ensure_nonincreasing(values, name)
    if vals and vals[-1] < 0:
        raise ValueError(f"{name} must be nonnegative: {vals}")
    return vals


def seq_get(seq, i: int):
    """1-based access; +inf for i < 1 and -inf past the end."""
    if i < 1:
        return POS_INF
    if i > len(seq):
        return NEG_INF
    return seq[i - 1]


def prefix_sum(seq, k: int) -> int:
    """Sum of the first k entries (k may exceed the length only if k <= len)."""
    if k < 0 or k > len(seq):
        raise ValueError(f"prefix length {k} out of range for {seq}")
    return sum(seq[:k])


def majorizes(a, b) -> bool:
    """Whether a is majorized by b (prefix sums of a bounded, totals equal)."""
    a = ensure_nonincreasing(a, "a")
    b = ensure_nonincreasing(b, "b")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    total_a = total_b = 0
    for k in range(len(a) - 1):
        total_a += a[k]
        total_b += b[k]
        if total_a > total_b:
            return False
    return sum(a) == sum(b)


def h_threshold(g, d, j: int) -> int:
    """Least i with d_{i-j+1} < g_i, taking d_{m+1} = -inf.

    Well defined whenever len(g) >= len(d) + j; the result always lies in
    [j, len(d) + j].
    """
    m = len(d)
    for i in range(1, m + j + 1):
        if seq_get(d, i - j + 1) < seq_get(g, i):
            if not j <= i <= m + j:
                raise InternalError(f"threshold {i} outside [{j}, {m + j}]")
            return i
    raise InternalError("threshold scan must terminate by the -inf sentinel")


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
    if any(d[i - 1] < seq_get(g, i + s) for i in range(1, m + 1)):
        return False
    for j in range(1, s + 1):
        h = h_threshold(g, d, j)
        if prefix_sum(g, h) - prefix_sum(d, h - j) > prefix_sum(a, j):
            return False
    return sum(g) == sum(d) + sum(a)
