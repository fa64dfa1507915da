"""Multivariate polynomial arithmetic with exact coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from support import monic, random_poly
from zariski.fields import GF, QQ
from zariski.polynomials import MonomialOrder, Poly, PolyRing, poly_sort_key


def ring_qq_xy(order="grevlex"):
    return PolyRing(QQ, ["x", "y"], MonomialOrder(order))


def test_ring_arithmetic_and_normalization():
    R = ring_qq_xy()
    x, y = R.gens()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + x.scale(Fraction(2)) + R.one
    assert (p - p).is_zero()
    assert R.const(Fraction(0)).is_zero()
    # integer coercion on either side
    assert 2 * x - x == x + 0
    assert (x + 1) - 1 == x


def test_modular_coefficients_wrap():
    R = PolyRing(GF(3), ["t"])
    (t,) = R.gens()
    assert t + t + t == R.zero
    assert (t + 1) ** 3 == t**3 + 1  # Frobenius over GF(3)


def test_lead_terms_differ_between_orders():
    # f = x + y^2: graded orders pick y^2, lex(x > y) picks x
    grev = ring_qq_xy("grevlex")
    lex = ring_qq_xy("lex")
    x, y = grev.gens()
    f = x + y * y
    assert f.lead_monomial() == (0, 2)
    g = lex.from_terms(f.terms)
    assert g.lead_monomial() == (1, 0)


def test_grevlex_breaks_degree_ties_by_reverse_last_exponent():
    R = ring_qq_xy("grevlex")
    x, y = R.gens()
    # among degree-2 monomials: x^2 > x*y > y^2
    f = x * x + x * y + y * y
    assert f.lead_monomial() == (2, 0)
    assert (x * y + y * y).lead_monomial() == (1, 1)


def test_degree_bookkeeping():
    R = ring_qq_xy()
    x, y = R.gens()
    f = x * x * y + y + 1
    assert f.total_degree() == 3
    assert f.degree_in(0) == 2
    assert f.degree_in(1) == 1
    assert f.involves(0) and f.involves(1)
    assert not (y + 1).involves(0)
    assert R.zero.total_degree() == -1
    assert R.one.is_constant() and R.one.constant_value() == Fraction(1)


def test_substitution_and_evaluation_agree():
    R = ring_qq_xy()
    x, y = R.gens()
    f = x * x + y - 1
    S = PolyRing(QQ, ["t"])
    (t,) = S.gens()
    g = f.substitute([t, t * t], S)  # x := t, y := t^2
    assert g == t * t + t * t - S.one
    point = PolyRing(QQ, [])
    for a in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        c = point.const(a)
        assert g.substitute([c], point) == f.substitute([c, c * c], point)


def test_lift_matches_variables_by_name():
    small = PolyRing(QQ, ["x"])
    big = PolyRing(QQ, ["y", "x"])  # different position, same name
    (x,) = small.gens()
    lifted = small.lift(x * x + 1, big)
    assert lifted == big.var_named("x") ** 2 + big.one
    # projecting back down gives the original
    assert big.project(lifted, small) == x * x + 1
    # projection refuses polynomials that involve the extra variable
    with pytest.raises(ValueError):
        big.project(big.var_named("y"), small)


def test_with_vars_extends_presentation():
    R = PolyRing(QQ, ["x"])
    S = R.with_vars(["z"])
    assert S.names == ("x", "z")
    assert S.nvars == 2
    with pytest.raises(ValueError):
        R.with_vars(["x"])  # duplicate name


def test_from_terms_validates_arity():
    R = ring_qq_xy()
    with pytest.raises(ValueError):
        R.from_terms({(1,): Fraction(1)})  # wrong exponent width


def test_from_terms_reduces_prime_field_coefficients():
    R = PolyRing(GF(5), ["t"])
    (t,) = R.gens()
    assert R.from_terms({(0,): 5}).is_zero()
    assert R.from_terms({(1,): 7}) == R.from_terms({(1,): 2}) == t.scale(2)
    assert R.from_terms({(2,): -1, (0,): 10}).terms == {(2,): 4}


def test_from_terms_makes_rational_coefficients_fractions():
    R = PolyRing(QQ, ["x"])
    f = R.from_terms({(1,): 2, (0,): 1})
    assert all(type(c) is Fraction for c in f.terms.values())
    monic_terms = monic(f).terms
    assert monic_terms == {(1,): 1, (0,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in monic_terms.values())


def test_string_forms_round_trip_mentally():
    R = ring_qq_xy()
    x, y = R.gens()
    assert str(x * x - y + 1) == "x^2 - y + 1"
    assert str(R.zero) == "0"
    assert str(x.scale(Fraction(-1))) == "-x"
    assert str(x.scale(Fraction(1, 2))) == "1/2*x"
    F = PolyRing(GF(5), ["t"])
    (t,) = F.gens()
    assert str(t - F.one) == "t + 4"


def test_sort_key_orders_by_degree_then_monomials():
    R = ring_qq_xy()
    x, y = R.gens()
    elems = [x * x, R.one, y, x, x * y]
    ordered = sorted(elems, key=poly_sort_key)
    assert ordered[0] == R.one
    assert set(ordered[1:3]) == {x, y}
    assert ordered[3:] in ([x * y, x * x], [x * x, x * y])
    assert poly_sort_key(x) != poly_sort_key(y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_laws_on_random_triples(seed):
    rng = random.Random(seed)
    R = ring_qq_xy()
    f = random_poly(rng, R)
    g = random_poly(rng, R)
    h = random_poly(rng, R)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + R.zero == f
    assert f * R.one == f
    assert (f - f).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_power_is_iterated_product(seed):
    rng = random.Random(seed)
    R = PolyRing(GF(7), ["x", "y"])
    f = random_poly(rng, R)
    prod = R.one
    for n in range(5):
        assert f**n == prod
        prod = prod * f
    assert f**1 is f


def test_polynomials_are_immutable_and_hashable():
    R = ring_qq_xy()
    x, y = R.gens()
    with pytest.raises(AttributeError):
        x.ring = None
    assert hash(x + y) == hash(y + x)
    assert len({x, x + 0, y}) == 2
