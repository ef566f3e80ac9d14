import pytest

from polyeig import (
    GF,
    QQ,
    HomogPoly,
    Poly,
    homog_deg,
    homog_divides,
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
    # the t-multiplicity is an int, never truncated or read as a bool
    for e in (1.5, True, 1.0, "1"):
        with pytest.raises(ValueError):
            H([1], e)
    with pytest.raises(ValueError):
        HomogPoly((1,), 0)  # finite part not a Poly


def test_unit_and_degree():
    assert homog_one(QQ) == H([1])
    assert homog_deg(homog_one(GF(3))) == 0
    assert homog_deg(H([1])) == 0
    assert homog_deg(H([0, 1], 2)) == 3


def test_divides_componentwise():
    assert homog_divides(H([0, 1], 1), H([0, 0, 1], 2))
    assert not homog_divides(H([0, 1], 2), H([0, 0, 1], 1))  # e decreases
    assert not homog_divides(H([1, 1]), H([0, 1], 3))  # finite parts


def test_chain_predicate():
    assert is_divisibility_chain(())
    assert is_divisibility_chain((H([1]), H([0, 1]), H([0, 1], 2)))
    assert not is_divisibility_chain((H([1], 1), H([0, 1], 0)))


def test_gf_field():
    a = HomogPoly(Poly.make([1, 1], GF(2)), 0)
    assert homog_divides(a, HomogPoly(Poly.make([1, 0, 1], GF(2)), 1))
