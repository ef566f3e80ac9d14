import pytest

from polyeig import (
    HOMOG_ONE,
    HOMOG_ZERO,
    GF,
    QQ,
    HomogPoly,
    Poly,
    chain_at,
    homog_deg,
    homog_divides,
    homog_lcm,
    homog_one,
    is_divisibility_chain,
)


def H(coeffs, e=0, field=QQ):
    return HomogPoly(Poly.make(coeffs, field), e)


def test_validation():
    with pytest.raises(ValueError):
        HomogPoly(Poly.make([], QQ), 0)  # zero finite part
    with pytest.raises(ValueError):
        HomogPoly(Poly.make([2], QQ), 0)  # not monic
    with pytest.raises(ValueError):
        H([1], -1)


def test_unit_and_degree():
    assert homog_one(QQ).is_unit
    assert homog_deg(H([1])) == 0
    assert homog_deg(H([0, 1], 2)) == 3
    assert homog_deg(HOMOG_ONE) == 0
    with pytest.raises(ValueError):
        homog_deg(HOMOG_ZERO)


def test_divides_componentwise():
    assert homog_divides(H([0, 1], 1), H([0, 0, 1], 2))
    assert not homog_divides(H([0, 1], 2), H([0, 0, 1], 1))  # e decreases
    assert not homog_divides(H([1, 1]), H([0, 1], 3))  # finite parts


def test_sentinel_table():
    x = H([0, 1], 1)
    assert homog_divides(HOMOG_ONE, x)
    assert homog_divides(HOMOG_ONE, HOMOG_ZERO)
    assert homog_divides(HOMOG_ONE, HOMOG_ONE)
    assert homog_divides(x, HOMOG_ZERO)
    assert homog_divides(HOMOG_ZERO, HOMOG_ZERO)
    assert not homog_divides(HOMOG_ZERO, x)
    assert not homog_divides(HOMOG_ZERO, HOMOG_ONE)
    assert not homog_divides(x, HOMOG_ONE)
    assert homog_divides(homog_one(QQ), HOMOG_ONE)  # concrete unit vs sentinel


def test_lcm():
    a, b = H([0, 1], 1), H([1, 1], 2)
    l = homog_lcm(a, b)
    assert l.e == 2 and l.alpha.degree == 2
    assert homog_lcm(HOMOG_ONE, a) == a
    assert homog_lcm(a, HOMOG_ZERO) is HOMOG_ZERO
    assert homog_lcm(HOMOG_ONE, HOMOG_ONE) is HOMOG_ONE
    # equal finite parts: the lcm keeps that part and the larger t-power
    assert homog_lcm(a, H([0, 1], 3)) == homog_lcm(H([0, 1], 3), a) == H([0, 1], 3)


def test_chain_access():
    chain = (H([1]), H([0, 1], 1))
    assert chain_at(chain, 0) is HOMOG_ONE
    assert chain_at(chain, -3) is HOMOG_ONE
    assert chain_at(chain, 1) == chain[0]
    assert chain_at(chain, 2) == chain[1]
    assert chain_at(chain, 3) is HOMOG_ZERO


def test_chain_predicate():
    assert is_divisibility_chain(())
    assert is_divisibility_chain((H([1]), H([0, 1]), H([0, 1], 2)))
    assert not is_divisibility_chain((H([1], 1), H([0, 1], 0)))


def test_gf_field():
    a = HomogPoly(Poly.make([1, 1], GF(2)), 0)
    assert homog_divides(a, HomogPoly(Poly.make([1, 0, 1], GF(2)), 1))
