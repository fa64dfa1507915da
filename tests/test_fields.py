"""Exact coefficient arithmetic over QQ and GF(p)."""

from fractions import Fraction

import pytest

from zariski.fields import GF, QQ, Field, is_prime
from zariski.groebner import unit_ideal_certificate
from zariski.polynomials import PolyRing


def certified_inverse(field, c):
    """The inverse of the nonzero scalar ``c`` as the package forms it: the
    unit certificate of the constant ``c``, whose one entry is ``1/c``."""
    R = PolyRing(field, ["x"])
    (e,) = unit_ideal_certificate([R.const(c)], R)
    return e.constant_value()


def test_rationals_are_exact_fractions():
    assert QQ.char == 0
    assert certified_inverse(QQ, Fraction(2, 7)) == Fraction(7, 2)
    assert certified_inverse(QQ, Fraction(3)) == Fraction(1, 3)
    assert not isinstance(certified_inverse(QQ, Fraction(2)), float)


def test_every_rational_operation_returns_a_fraction():
    """Over QQ no operation leaks a float or an int, whether its input is an
    ``int`` or a ``Fraction``: ``1 / 2`` would be ``0.5``."""
    for b in (3, Fraction(3), Fraction(1, 6), 7, Fraction(-5, 7)):
        got = certified_inverse(QQ, b)
        assert type(got) is Fraction and got == 1 / Fraction(b), (b, got)
    assert certified_inverse(QQ, 2) == Fraction(1, 2)


def test_prime_field_arithmetic_is_reduced_residues():
    F = GF(7)
    R = PolyRing(F, ["x"])
    assert R.const(10).constant_value() == 3
    assert R.const(-1).constant_value() == 6
    assert R.from_terms({(0,): Fraction(1, 3)}).constant_value() == 5  # 3 * 5 = 15 = 1 mod 7
    assert R.from_terms({(0,): Fraction(-2, 3)}).constant_value() == 4
    with pytest.raises(ZeroDivisionError):
        R.from_terms({(0,): Fraction(1, 14)})
    assert certified_inverse(F, 3) == 5


def test_every_nonzero_residue_has_an_inverse():
    for p in (2, 3, 5, 7, 11):
        F = GF(p)
        for a in range(1, p):
            assert a * certified_inverse(F, a) % p == 1


def test_inverse_of_zero_is_refused():
    for F in (GF(5), QQ):
        R = PolyRing(F, ["x"])
        assert unit_ideal_certificate([R.const(0)], R) is None
    with pytest.raises(ZeroDivisionError):
        PolyRing(GF(5), ["x"]).const(Fraction(1, 5))


def test_composite_characteristics_are_rejected():
    for n in (1, 4, 6, 9, 561, 2**20):
        with pytest.raises(ValueError):
            GF(n)
    with pytest.raises(ValueError, match="characteristic 0 is not prime"):
        GF(0)
    with pytest.raises(ValueError):
        GF(2**31 + 11)  # beyond the size bound
    # 41 * 43 has no factor the trial division tries: Miller-Rabin refutes it
    with pytest.raises(ValueError, match="characteristic 1763 is not prime"):
        GF(1763)


def test_primality_check_is_exact_on_a_window():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(0, 500):
        assert is_prime(n) == naive(n), n
    # Carmichael numbers must not fool it, 41 * 61 * 101 past the trial division too
    for n in (561, 1105, 1729, 2465, 2821, 6601, 41 * 61 * 101):
        assert not is_prime(n)


def test_field_objects_compare_by_characteristic():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert QQ == Field(0)
    assert hash(GF(3)) == hash(Field(3))
    assert repr(GF(3)) == "GF(3)"
    assert repr(QQ) == "QQ"


def test_finite_enumeration_and_printing():
    assert list(GF(3).elements()) == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()
    assert GF(5).scalar_str(3) == "3"
    assert QQ.scalar_str(Fraction(1, 2)) == "1/2"
    assert QQ.scalar_str(Fraction(4)) == "4"
