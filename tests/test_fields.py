from fractions import Fraction

import pytest

from nchodge.fields import GF, QQ, Field, format_scalar, parse_field, parse_scalar


def test_rationals_descriptor():
    assert QQ.p is None
    assert QQ.characteristic == 0
    assert str(QQ) == "Q"
    assert QQ.zero() == Fraction(0)
    assert QQ.one() == Fraction(1)
    # Q scalars are ints or Fractions, never floats; integral values may be
    # plain ints, and reports still spell them "n/1"
    assert QQ.from_int(3) == 3 and type(QQ.from_int(3)) in (int, Fraction)
    assert QQ.inv(3) == Fraction(1, 3) and not isinstance(QQ.inv(3), float)
    assert QQ.inv(Fraction(1, 3)) == 3
    assert format_scalar(3, QQ) == "3/1"
    assert format_scalar(3, GF(5)) == "3"


def test_prime_field_arithmetic():
    F = GF(5)
    assert F.characteristic == 5
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.neg(2) == 3
    assert F.mul(F.inv(3), 3) == 1
    assert F.is_zero(10)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_parse_and_format():
    assert parse_field("Q") == QQ
    assert parse_field("F7") == GF(7)
    with pytest.raises(ValueError):
        parse_field("R")
    assert format_scalar(Fraction(-3, 2), QQ) == "-3/2"
    assert parse_scalar("-3/2", QQ) == Fraction(-3, 2)
    assert parse_scalar("7", GF(5)) == 2


def test_from_fraction_mod_p():
    F = GF(3)
    assert F.from_fraction(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
    with pytest.raises(ZeroDivisionError):
        F.from_fraction(Fraction(1, 3))
