"""Exact coefficient fields: the rationals QQ and prime fields GF(p).

Every coefficient a ``Poly`` holds is either a normalized
``fractions.Fraction`` (over QQ) or a reduced residue ``int`` in
``{0, ..., p-1}`` (over GF(p)), and every ``Field`` operation returns one of
these for ``int`` or ``Fraction`` input.  A ``Field`` object carries the
characteristic and performs the arithmetic; scalar values themselves stay
plain Python objects so they hash and compare cheaply.

The inner loops of the kernel work on ``int``s for both fields.  Over QQ a
polynomial is read as integer terms over one common denominator: products
(``Poly.__mul__``) scale each factor by the lcm of its denominators, and the
division loop (``groebner.divide``) keeps its working polynomial
fraction-free, with each divisor's integer form (``Poly._division_form``)
computed once.  Results leave those loops as normalized ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

Scalar = Union[Fraction, int]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_CHARACTERISTIC = 2**31


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


def _fraction(s: Scalar) -> Fraction:
    """``s`` as a ``Fraction``: arithmetic on ``int``s alone returns an ``int``."""
    return s if type(s) is Fraction else Fraction(s)


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
    def zero(self) -> Scalar:
        return Fraction(0) if self.char == 0 else 0

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

    # -- arithmetic ----------------------------------------------------
    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.char if self.char else _fraction(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.char if self.char else _fraction(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b % self.char if self.char else _fraction(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.char if self.char else _fraction(-a)

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.char) if self.char else 1 / _fraction(a)

    # -- enumeration (prime fields only) --------------------------------
    @property
    def is_finite(self) -> bool:
        return self.char != 0

    def elements(self) -> Iterator[Scalar]:
        if self.char == 0:
            raise ValueError("QQ is not enumerable")
        return iter(range(self.char))

    def scalar_str(self, a: Scalar) -> str:
        if self.char == 0 and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a) if self.char else a.numerator)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
