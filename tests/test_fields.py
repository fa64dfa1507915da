"""Exact coefficient arithmetic over QQ and GF(p)."""

from fractions import Fraction

import pytest

from zariski.fields import GF, QQ, Field, is_prime


def test_rationals_are_exact_fractions():
    assert QQ.char == 0
    assert QQ.of_int(2) == Fraction(2)
    assert QQ.of_fraction(1, 3) == Fraction(1, 3)
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert QQ.mul(Fraction(1), QQ.inv(Fraction(3))) == Fraction(1, 3)
    assert not isinstance(QQ.inv(Fraction(2)), float)


def test_every_rational_operation_returns_a_fraction():
    """Over QQ no operation leaks a float or an int, whether its input is an
    ``int`` or a ``Fraction``: ``1 / 2`` would be ``0.5``."""
    for a, b in [(2, 3), (Fraction(2), Fraction(3)), (-4, Fraction(1, 6)), (Fraction(-5, 7), 7)]:
        results = {
            "add": (QQ.add(a, b), Fraction(a) + Fraction(b)),
            "sub": (QQ.sub(a, b), Fraction(a) - Fraction(b)),
            "mul": (QQ.mul(a, b), Fraction(a) * Fraction(b)),
            "neg": (QQ.neg(a), -Fraction(a)),
            "inv": (QQ.inv(b), 1 / Fraction(b)),
            "div": (QQ.mul(a, QQ.inv(b)), Fraction(a) / Fraction(b)),
        }
        for name, (got, want) in results.items():
            assert type(got) is Fraction and got == want, (name, a, b, got)
    assert QQ.inv(2) == Fraction(1, 2) and QQ.mul(1, QQ.inv(3)) == Fraction(1, 3)


def test_prime_field_arithmetic_is_reduced_residues():
    F = GF(7)
    assert F.of_int(10) == 3
    assert F.of_int(-1) == 6
    assert F.neg(3) == 4
    assert F.sub(2, 5) == 4
    assert F.of_fraction(1, 3) == 5  # 3 * 5 = 15 = 1 mod 7
    assert F.mul(3, F.of_fraction(1, 3)) == 1


def test_every_nonzero_residue_has_an_inverse():
    for p in (2, 3, 5, 7, 11):
        F = GF(p)
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1


def test_inverse_of_zero_is_refused():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).of_fraction(1, 10)


def test_composite_characteristics_are_rejected():
    for n in (1, 4, 6, 9, 561, 2**20):
        with pytest.raises(ValueError):
            GF(n)
    with pytest.raises(ValueError):
        GF(2**31 + 11)  # beyond the size bound


def test_primality_check_is_exact_on_a_window():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(0, 500):
        assert is_prime(n) == naive(n), n
    # Carmichael numbers must not fool it
    for n in (561, 1105, 1729, 2465, 2821, 6601):
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
