from fractions import Fraction

import pytest

from tourmat.fields import (
    GF,
    QQ,
    Field,
    FieldMismatchError,
    FieldParseError,
    NotPrimeError,
    Scalar,
    ScalarParseError,
    UnsupportedModulusError,
    format_field,
    format_scalar,
    is_prime,
    parse_field,
    parse_scalar,
)
from tourmat.matrices import WeightSeq
from tourmat.rng import ByteStream


def test_make_field():
    assert GF(7).char == 7
    assert QQ.char == 0
    with pytest.raises(NotPrimeError):
        GF(9)
    with pytest.raises(NotPrimeError):
        GF(1)
    with pytest.raises(UnsupportedModulusError):
        GF(2**31 + 11)


def test_is_prime_exhaustive_small():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in sieve)


def test_canonicalization_idempotent():
    x = Scalar(GF(5), -3)
    assert x.value == 2
    assert Scalar(GF(5), x.value) == x
    assert Scalar(GF(5), x) == x
    y = Scalar(QQ, Fraction(6, 4))
    assert y.value == Fraction(3, 2)
    assert Scalar(QQ, y.value) == y
    assert Scalar(QQ, Fraction(5, -10)).value == Fraction(-1, 2)
    assert Scalar(QQ, 7).value == Fraction(7) and type(Scalar(QQ, 7).value) is Fraction


def test_characteristic():
    for p in (2, 3, 5, 7, 13):
        assert Scalar(GF(p), p).is_zero()
        assert not any(Scalar(GF(p), k).is_zero() for k in range(1, p))
    assert QQ.char == 0
    assert not Scalar(QQ, 13).is_zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        GF(7).reduce(Scalar(GF(5), 1))
    with pytest.raises(FieldMismatchError):
        QQ.scalar(Scalar(GF(5), 1))
    with pytest.raises(FieldMismatchError):
        WeightSeq(GF(5), (Scalar(GF(5), 1), Scalar(GF(7), 1)))
    with pytest.raises(FieldMismatchError):
        WeightSeq.of(QQ, [1, Scalar(GF(5), 2)])


def test_parse_scalar():
    assert parse_scalar(GF(5), "-3") == Scalar(GF(5), 2)
    assert parse_scalar(QQ, "6/4") == Scalar(QQ, Fraction(3, 2))
    assert parse_scalar(QQ, "7") == Scalar(QQ, 7)
    with pytest.raises(ZeroDivisionError):
        parse_scalar(QQ, "1/0")
    with pytest.raises(ScalarParseError):
        parse_scalar(QQ, "1.5")
    with pytest.raises(ScalarParseError):
        parse_scalar(GF(5), "1/2")


def test_scalar_round_trip():
    stream = ByteStream(7, "roundtrip")
    for field in (GF(101), QQ):
        for _ in range(30):
            if field.is_prime_field:
                x = Scalar(field, stream.randrange(field.char))
            else:
                x = Scalar(field, Fraction(stream.randrange(201) - 100,
                                           1 + stream.randrange(30)))
            assert parse_scalar(field, format_scalar(x)) == x


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("GF(7)") == Field(7)
    assert format_field(GF(11)) == "GF(11)"
    with pytest.raises(FieldParseError):
        parse_field("R")
    with pytest.raises(NotPrimeError):
        parse_field("GF(10)")
