from fractions import Fraction

import pytest

from nchodge.fields import (GF, PRIME_LIMIT, QQ, Field, _is_prime, format_scalar,
                            parse_field, parse_scalar, prime_field)


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


@pytest.mark.parametrize("F, zero", [(QQ, 0), (QQ, Fraction(0)), (GF(5), 0), (GF(5), 10)],
                         ids=["Q-int", "Q-fraction", "F5-0", "F5-10"])
def test_inverse_of_zero_raises(F, zero):
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        F.inv(zero)


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


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(100_000))


@pytest.mark.parametrize("n", [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 9 + 7,
                               998244353, 2 ** 64 - 59, 10 ** 24 + 7])
def test_is_prime_known_primes(n):
    assert _is_prime(n)


@pytest.mark.parametrize("n", [
    # Carmichael numbers
    561, 1105, 1729, 2465, 41041, 825265, 321197185, 5394826801, 232250619601,
    9746347772161,
    # the least strong pseudoprimes to the first k prime bases, k = 1 .. 12
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    # products of two large primes
    (2 ** 31 - 1) * (10 ** 9 + 7), (10 ** 9 + 7) * (10 ** 9 + 9), (2 ** 61 - 1) * 65537,
])
def test_is_prime_rejects_composites(n):
    assert not _is_prime(n)


def test_is_prime_refuses_above_its_limit():
    # PRIME_LIMIT is itself the least strong pseudoprime to all 13 bases
    for n in (PRIME_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="PRIME_LIMIT"):
            _is_prime(n)
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        parse_field(f"F{2 ** 89 - 1}")
    # a label past the interpreter's int/str cap is refused by its length
    with pytest.raises(ValueError, match="5000 digits: .*PRIME_LIMIT"):
        parse_field("F" + "1" * 5000)
    assert parse_field("F" + "0" * 30 + "3") == GF(3)
    assert not _is_prime(PRIME_LIMIT + 1)  # even: decided without the test


def test_prime_field_refuses_a_p_at_or_above_prime_limit_by_its_size():
    # the 25-digit ones are as long as PRIME_LIMIT: their value decides,
    # before any test of them, and no message spells p
    for p in (PRIME_LIMIT, PRIME_LIMIT + 1, PRIME_LIMIT + 2, 10 ** 30 + 57):
        with pytest.raises(ValueError, match=r"p has \d+ digits: .*PRIME_LIMIT") as err:
            prime_field(str(p), "p has")
        assert str(p) not in str(err.value).replace(str(PRIME_LIMIT), "")
    assert prime_field("1000000000000000003", "p has") == GF(10 ** 18 + 3)
    with pytest.raises(ValueError, match="is not prime"):
        prime_field("0" * 40 + "9", "p has")


def test_fields_are_immutable_values():
    # equal and hashed by p, as field descriptors are compared across inputs
    assert Field() == QQ and GF(3) == Field(3) and GF(3) != GF(5) and GF(3) != QQ
    assert len({QQ, Field(), GF(3), Field(3)}) == 2
    with pytest.raises(AttributeError):
        GF(3).p = 5
    with pytest.raises(AttributeError):
        del QQ.p
    assert GF(3).p == 3 and QQ.p is None
