"""Exact field arithmetic: prime fields GF(p) and arbitrary-precision rationals.

A :class:`Field` is either GF(p) for a prime p < 2**31 (characteristic p) or
the rationals (characteristic 0).  `Field.reduce` is the one canonical-form
rule: a residue in [0, p) for prime fields, a fully reduced
`fractions.Fraction` (positive denominator) for the rationals.  Matrices store
these raw canonical values directly; a :class:`Scalar` wraps one of them with
its field and is the element type of the public API (weights, single entries,
determinants).  A Scalar is a frozen canonical value with no arithmetic: the
code that computes works on the raw values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

MAX_MODULUS = 2**31


class NotPrimeError(ValueError):
    """Modulus of a prime field is composite (or < 2)."""


class UnsupportedModulusError(ValueError):
    """Prime field modulus is >= 2**31."""


class FieldMismatchError(ValueError):
    """A scalar of one field used where another field is expected."""


class ScalarParseError(ValueError):
    """Scalar text does not match the grammar."""


class FieldParseError(ValueError):
    """Field text is neither "Q" nor "GF(<p>)"."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3_215_031_751 (covers 2**31)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # bases 2, 3, 5, 7 are a proven witness set below 3_215_031_751
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Field:
    """A coefficient field: char = p for GF(p), char = 0 for the rationals."""

    char: int

    def __post_init__(self):
        if self.char == 0:
            return
        if self.char >= MAX_MODULUS:
            raise UnsupportedModulusError(f"modulus {self.char} >= 2**31")
        if not is_prime(self.char):
            raise NotPrimeError(f"{self.char} is not prime")

    @property
    def is_prime_field(self) -> bool:
        return self.char != 0

    def reduce(self, value):
        """The canonical raw value of an int, a Fraction or a Scalar of this field:
        an int residue in [0, p) for GF(p), a Fraction for the rationals."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError(f"scalar of {value.field} used in {self}")
            return value.value
        if self.char:
            return int(value) % self.char
        return value if isinstance(value, Fraction) else Fraction(value)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar of this field to a canonical Scalar."""
        return Scalar(self, value)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def __str__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field with p elements; rejects composite or oversized p."""
    return Field(p)


def parse_field(text: str) -> Field:
    """Parse a field spec: "Q" or "GF(<p>)"."""
    text = text.strip()
    if text == "Q":
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", text)
    if m is None:
        raise FieldParseError(f"bad field spec {text!r} (want Q or GF(<p>))")
    return GF(int(m.group(1)))


def format_field(field: Field) -> str:
    return str(field)


@dataclass(frozen=True, slots=True)
class Scalar:
    """An element of one Field, stored canonically.

    value is the field's raw canonical value (see `Field.reduce`).
    Construction canonicalizes, so Scalar(GF(5), -3) equals Scalar(GF(5), 2).
    """

    field: Field
    value: object

    def __post_init__(self):
        object.__setattr__(self, "value", self.field.reduce(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.field}, {format_scalar(self)})"


_INT_RE = re.compile(r"[+-]?\d+")
_FRAC_RE = re.compile(r"([+-]?\d+)/(\d+)")


def parse_scalar(field: Field, text: str) -> Scalar:
    """Parse canonical scalar text: an integer, or "num/den" over the rationals.

    Integers are reduced mod p for prime fields.  A zero denominator raises
    ZeroDivisionError; anything outside the grammar raises ScalarParseError.
    """
    text = text.strip()
    if _INT_RE.fullmatch(text):
        return Scalar(field, int(text))
    m = _FRAC_RE.fullmatch(text)
    if m and not field.is_prime_field:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Scalar(field, Fraction(num, den))
    raise ScalarParseError(f"bad scalar {text!r} for {field}")


def format_scalar(x: Scalar) -> str:
    """Canonical text form ("n" or "n/d"); parse_scalar(field, format_scalar(x)) == x."""
    return str(x.value)
