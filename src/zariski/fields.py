"""Exact coefficient fields: the rationals QQ and prime fields GF(p).

A ``Field`` carries the characteristic, the unit, conversions (``of_int``,
``of_fraction``), inverses, enumeration of a prime field and printing.  Its
scalars are plain Python objects: a normalized ``fractions.Fraction`` over
QQ, a residue ``int`` in ``{0, ..., p-1}`` over GF(p).  These are the
coefficients that ``Poly.terms``, ``lead_coeff`` and ``constant_value``
return and that ``PolyRing.from_terms``, ``const`` and ``Poly.scale`` take.

Inside a ``Poly`` no coefficient is a ``Fraction``: it holds integer terms
over one integer denominator, 1 over GF(p), and its arithmetic runs on
those ints rather than through ``Field`` (see ``polynomials``).  Printing
a coefficient too long for Python's int-to-text conversion raises
``_DigitLimitError``, a ``ValueError`` that names the limit.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterator, Union

Scalar = Union[Fraction, int]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_CHARACTERISTIC = 2**31


class _DigitLimitError(ValueError):
    """A coefficient with more digits than ``str`` converts."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """QQ (characteristic 0) or GF(p) for a prime p <= 2**31.

    Frozen value object; equality and hashing go by characteristic.
    """

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0:
            if char > MAX_CHARACTERISTIC:
                raise ValueError(f"characteristic {char} exceeds 2**31")
            if not is_prime(char):
                raise ValueError(f"characteristic {char} is not prime")
        object.__setattr__(self, "char", char)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    # -- constants -----------------------------------------------------
    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.char == 0 else 1

    def of_int(self, n: int) -> Scalar:
        return Fraction(n) if self.char == 0 else n % self.char

    def of_fraction(self, num: int, den: int) -> Scalar:
        if self.char == 0:
            return Fraction(num, den)
        den_red = den % self.char
        if den_red == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 in GF({self.char})")
        return num * pow(den_red, -1, self.char) % self.char

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.char) if self.char else 1 / Fraction(a)

    # -- enumeration (prime fields only) --------------------------------
    @property
    def is_finite(self) -> bool:
        return self.char != 0

    def elements(self) -> Iterator[Scalar]:
        if self.char == 0:
            raise ValueError("QQ is not enumerable")
        return iter(range(self.char))

    def scalar_str(self, a: Scalar) -> str:
        try:
            if self.char == 0 and a.denominator != 1:
                return f"{a.numerator}/{a.denominator}"
            return str(int(a) if self.char else a.numerator)
        except ValueError:
            raise _DigitLimitError(
                "a coefficient is past the digit limit: integers print with at most "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
