"""The text grammar for fields, rings, polynomials, and basic opens."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from support import random_poly
from zariski.fields import GF, QQ
from zariski.parsing import (
    ParseError,
    parse_basic_open,
    parse_field,
    parse_order,
    parse_poly,
    parse_ring,
)
from zariski.polynomials import MonomialOrder, PolyRing


def test_field_names():
    assert parse_field("QQ") == QQ
    assert parse_field("GF(7)") == GF(7)
    assert parse_field(" GF( 13 ) ") == GF(13)
    with pytest.raises(ParseError):
        parse_field("GF(6)")
    with pytest.raises(ParseError):
        parse_field("RR")


def test_ring_with_relations():
    ring, rels = parse_ring("GF(5)[x,y]/(x*y-1)")
    assert ring.field == GF(5)
    assert ring.names == ("x", "y")
    x, y = ring.gens()
    assert rels == [x * y - ring.one]
    ring2, rels2 = parse_ring("QQ[x]")
    assert ring2.names == ("x",) and rels2 == []


def test_ring_accepts_monomial_order():
    ring, _ = parse_ring("QQ[x,y]", MonomialOrder("lex"))
    assert ring.order == MonomialOrder("lex")
    assert parse_order("grevlex") == MonomialOrder("grevlex")
    assert parse_order("lex") == MonomialOrder("lex")
    with pytest.raises(ParseError):
        parse_order("degrevlex-ish")


def test_polynomial_grammar():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    assert parse_poly("x^2 - 2*y + 1", ring) == x * x - y.scale(Fraction(2)) + ring.one
    assert parse_poly("-(x+y)^2", ring) == -((x + y) ** 2)
    assert parse_poly("3/2*x", ring) == x.scale(Fraction(3, 2))
    assert parse_poly("x*(y - 1)", ring) == x * y - x
    assert parse_poly("7", ring) == ring.const(Fraction(7))
    assert parse_poly("x^0", ring) == ring.one
    # juxtaposition multiplies
    assert parse_poly("(x+1)(x-1)", ring) == x * x - ring.one
    assert parse_poly("2(x+1)y", ring) == (x * y + y).scale(Fraction(2))
    assert parse_poly("x y^2", ring) == x * y * y


def test_modular_constants_reduce():
    ring, _ = parse_ring("GF(3)[t]")
    (t,) = ring.gens()
    assert parse_poly("t - 1", ring) == t + ring.const(2)
    assert parse_poly("4*t", ring) == t
    assert parse_poly("1/2", ring) == ring.const(2)  # 2 * 2 = 4 = 1 mod 3


def test_errors_carry_line_and_column():
    ring, _ = parse_ring("QQ[x]")
    with pytest.raises(ParseError) as info:
        parse_poly("x + * 2", ring)
    err = info.value
    assert err.line == 1
    assert err.col == 5
    assert "(line 1, column 5)" in str(err)
    with pytest.raises(ParseError) as info2:
        parse_poly("x +\n  y", ring)  # y unknown in QQ[x], on line 2
    assert info2.value.line == 2


def test_unknown_variable_is_an_error():
    ring, _ = parse_ring("QQ[x]")
    with pytest.raises(ParseError):
        parse_poly("z + 1", ring)


def test_basic_open_lists():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    assert parse_basic_open("D(x, y-1)", ring) == [x, y - ring.one]
    assert parse_basic_open("D()", ring) == []
    with pytest.raises(ParseError):
        parse_basic_open("E(x)", ring)


def test_scalar_parsing():
    ring, _ = parse_ring("QQ[x]")
    assert parse_poly("3/4", ring) == ring.const(Fraction(3, 4))
    assert parse_poly("-2", ring) == ring.const(Fraction(-2))
    ring5, _ = parse_ring("GF(5)[x]")
    assert parse_poly("7", ring5) == ring5.const(2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["QQ", "GF(3)", "GF(7)"]))
def test_printing_then_parsing_is_the_identity(seed, field_name):
    rng = random.Random(seed)
    ring = PolyRing(parse_field(field_name), ["x", "y"])
    p = random_poly(rng, ring, max_degree=3, max_terms=4, coeff_bound=6)
    assert parse_poly(str(p), ring) == p


def test_an_exponent_past_the_limit_is_a_parse_error_at_its_token():
    R = PolyRing(QQ, ["x", "y"])
    with pytest.raises(ParseError, match=r"x\^3000000000 is past the exponent limit.*\(line 1, column 7\)"):
        parse_poly("y + x^3000000000", R)
    with pytest.raises(ParseError, match=r"x\^1073741824\*y\^1073741824 is past.*column 7"):
        parse_poly("(x*y)^1073741824", R)
    lex = PolyRing(QQ, ["x", "y"], MonomialOrder("lex"))
    assert parse_poly("(x*y)^1073741824", lex).terms == {(2**30, 2**30): 1}
