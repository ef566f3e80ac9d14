from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyeig import (
    GF,
    QQ,
    FieldMismatchError,
    Poly,
    poly_divides,
    poly_gcd,
    poly_one,
    poly_s,
    poly_zero,
)


def P(coeffs, field=QQ):
    return Poly.make(coeffs, field)


def test_make_strips_trailing_zeros():
    assert P([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert P([0, 0]).is_zero
    assert P([]).degree == -1


def test_gf_coercion_wraps_mod_p():
    p = Poly.make([5, -1], GF(3))
    assert p.coeffs == (2, 2)


def test_gf_coercion_refuses_non_integers():
    # int() would truncate: 1/2 is 2 in GF(3), not 0
    F = GF(3)
    for bad in (Fraction(1, 2), Fraction(4, 2), 2.7, 2.0, True, False, "5", None):
        with pytest.raises(ValueError, match=r"GF\(3\) elements must be ints"):
            Poly.make([bad, 1], F)
    with pytest.raises(ValueError):
        Poly.make([1, 1], F).eval(Fraction(1, 2))
    with pytest.raises(ValueError):
        Poly.make([1, 1], F).scale(1.0)
    assert P([Fraction(1, 2), 3]).coeffs == (Fraction(1, 2), Fraction(3))


def test_q_coercion_refuses_floats_bools_and_strings():
    # Fraction(value) took 0.1 as 3602879701896397/36028797018963968 and True as 1
    for bad in (0.1, 2.5, 2.0, True, False, "5", "3/4", None, 1j):
        with pytest.raises(ValueError, match="Q elements must be ints or Fractions"):
            P([bad, 1])
        with pytest.raises(ValueError):
            P([1, 1]).eval(bad)
        with pytest.raises(ValueError):
            P([1, 1]).scale(bad)
    assert P([-2, Fraction(3, 4)]).coeffs == (Fraction(-2), Fraction(3, 4))
    assert QQ.coerce(Fraction(6, 4)) == Fraction(3, 2) and type(QQ.coerce(7)) is Fraction


def test_characteristic_must_be_an_int():
    for bad in (3.0, "3", True, Fraction(3)):
        with pytest.raises(ValueError, match="characteristic must be integers"):
            GF(bad)
    assert GF(3) == GF(3) and GF(3).coerce(7) == 1


def test_arithmetic_basics():
    a, b = P([1, 1]), P([-1, 1])
    assert (a * b).coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert (a + b).coeffs == (Fraction(0), Fraction(2))
    assert (a - a).is_zero
    assert a.shift(2).degree == 3


def test_divmod():
    num = P([-1, 0, 0, 1])  # s^3 - 1
    den = P([-1, 1])        # s - 1
    q, r = divmod(num, den)
    assert r.is_zero
    assert q.coeffs == (Fraction(1), Fraction(1), Fraction(1))
    q2, r2 = divmod(P([1, 1]), P([0, 0, 1]))
    assert q2.is_zero and r2 == P([1, 1])


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(P([1]), P([]))


def test_monic_normalization():
    assert P([2, 4]).monic().coeffs == (Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        P([]).monic()


def test_divides_zero_conventions():
    z, one = poly_zero(QQ), poly_one(QQ)
    assert poly_divides(one, z)
    assert poly_divides(z, z)
    assert not poly_divides(z, one)
    assert poly_divides(P([0, 1]), P([0, 0, 1]))
    assert not poly_divides(P([0, 0, 1]), P([0, 1]))


def test_gcd_lcm():
    a = P([-1, 1]) * P([1, 1])
    b = P([-1, 1]) * P([2, 1])
    g = poly_gcd(a, b)
    assert g == P([-1, 1])
    l = a * b // g
    assert (l % a).is_zero and (l % b).is_zero
    assert l.degree == 3
    assert poly_gcd(poly_zero(QQ), P([2, 2])) == P([1, 1])
    with pytest.raises(ValueError):
        poly_gcd(poly_zero(QQ), poly_zero(QQ))


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        P([1]) + Poly.make([1], GF(2))


def test_eval():
    assert P([1, 2, 1]).eval(2) == Fraction(9)
    assert Poly.make([1, 1], GF(2)).eval(1) == 0


coeffs_q = st.lists(st.integers(-4, 4), min_size=0, max_size=5)


@given(coeffs_q, coeffs_q, coeffs_q)
def test_ring_axioms(a, b, c):
    pa, pb, pc = P(a), P(b), P(c)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)


@given(coeffs_q, coeffs_q)
def test_divmod_identity(a, b):
    pa, pb = P(a), P(b)
    if pb.is_zero:
        return
    q, r = divmod(pa, pb)
    assert pa == q * pb + r
    assert r.degree < pb.degree or r.is_zero


@given(coeffs_q, coeffs_q)
def test_gcd_divides_both(a, b):
    pa, pb = P(a), P(b)
    if pa.is_zero and pb.is_zero:
        return
    g = poly_gcd(pa, pb)
    assert poly_divides(g, pa) and poly_divides(g, pb)
    assert g.is_monic


@given(st.sampled_from([(QQ, 2), (QQ, Fraction(-1, 3)), (GF(5), 3), (GF(5), 1), (GF(2), 1)]), coeffs_q)
def test_nonzero_constant_divides_everything(constant, q):
    field, c = constant
    p, pq = P([c], field), P(q, field)
    assert poly_divides(p, pq) == (pq % p).is_zero


def test_str_and_s():
    assert str(poly_s(QQ)) == "s"
    assert str(P([1, 0, 2])) == "1 + 2*s^2"
    assert str(poly_zero(QQ)) == "0"


def _trial_division(p):
    return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))


def test_primality_matches_trial_division():
    from polyeig.fields import _is_prime

    assert [p for p in range(10**4) if _is_prime(p)] == [p for p in range(10**4) if _trial_division(p)]
    # strong pseudoprimes to base 2, to bases 2 to 7 and to bases 2 to 37, and
    # a Carmichael number with no prime factor below 43
    for n in (2047, 3215031751, 318665857834031151167461, 211 * 421 * 631):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="must be prime"):
            GF(n)


def test_large_characteristic_is_fast_and_bounded():
    import time

    from polyeig.fields import MAX_CHARACTERISTIC

    start = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="not supported"):
        GF(MAX_CHARACTERISTIC + 2)
