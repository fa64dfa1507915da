"""Exact coefficient fields: the rationals QQ and prime fields GF(p).

A ``Field`` carries the characteristic, the unit, enumeration of a prime
field and printing.  ``QQ`` is ``Field(0)``; ``GF(p)`` refuses every p
that is not a prime below 2**31, 0 included.  Scalars are plain Python
objects: a normalized ``fractions.Fraction`` over QQ, a residue ``int`` in
``{0, ..., p-1}`` over GF(p).  These are the coefficients that
``Poly.terms`` and ``constant_value`` return; the constructors
``PolyRing.from_terms``, ``const`` and ``Poly.scale`` take them or plain
ints.

Inside a ``Poly`` no coefficient is a ``Fraction``: it holds integer terms
over one integer denominator, 1 over GF(p), and its arithmetic runs on
those ints rather than through ``Field`` (see ``polynomials``).  Printing
a coefficient too long for Python's int-to-text conversion raises
``_DigitLimitError``, a ``ValueError`` that names the limit.

The package's value classes inherit ``==`` and a cached ``hash`` from
``_Value``, which reads both off one ``_key()`` per class.
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


class _Frozen:
    """Base of the package's immutable value objects: constructors set slots
    with ``object.__setattr__``, and ``_remember`` is the one writer of a
    subclass's ``_memo``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _remember(self, key, build, *args):
        """``self._memo[key]``, built by ``build(*args)`` on first use (None and
        False too); ``build`` runs outside the ``except``: no KeyError context."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = build(*args)
        return value


class _Value(_Frozen):
    """A ``_Frozen`` object compared by value: two of one type are equal when
    their ``_key()`` tuples are, and ``hash`` is the key's, kept in ``_hash``,
    which stays unset until the first ``hash()``."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash(self._key())
        object.__setattr__(self, "_hash", h)
        return h


class Field(_Value):
    """QQ (characteristic 0) or GF(p) for a prime p <= 2**31.

    Frozen value object; equality and hashing go by characteristic.
    """

    __slots__ = ("char",)

    def __init__(self, char: int):
        if char != 0:
            if char > MAX_CHARACTERISTIC:
                raise ValueError(f"characteristic {char} exceeds 2**31")
            if not is_prime(char):
                raise ValueError(f"characteristic {char} is not prime")
        object.__setattr__(self, "char", char)

    def _key(self):
        return (self.char,)

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    # -- constants -----------------------------------------------------
    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.char == 0 else 1

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
    if not p:
        raise ValueError("characteristic 0 is not prime")
    return Field(p)
