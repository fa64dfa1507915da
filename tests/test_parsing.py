"""The text grammar for fields, rings, polynomials, and basic opens."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from support import random_poly
from zariski.fields import GF, QQ
from zariski.parsing import (
    MAX_NESTING,
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


def test_characteristic_zero_is_not_a_prime_field():
    """``GF(0)`` is refused at its number, not read as QQ."""
    for parse, text in ((parse_field, "GF(0)"), (parse_ring, "GF(0)[x]")):
        with pytest.raises(ParseError, match=r"^characteristic 0 is not prime \(line 1, column 4\)$"):
            parse(text)


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
    ring5, _ = parse_ring("GF(5)[t]")
    assert parse_poly("3/4", ring5) == ring5.const(2)  # 4 * 2 = 8 = 3 mod 5
    with pytest.raises(ParseError, match=r"^denominator 10 vanishes in GF\(5\) \(line 1, column 3\)$"):
        parse_poly("5/10", ring5)


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


def test_a_power_binds_to_the_denominator_alone():
    """``^`` binds before ``/``: ``3/2^2`` is 3/4, not (3/2)^2, over QQ and
    over GF(5), where it is 3 * 4^-1 = 2; parentheses still raise the
    fraction.  A second ``^`` is trailing input, as after ``2^2``."""
    ring, _ = parse_ring("QQ[x]")
    assert parse_poly("3/2^2", ring) == ring.const(Fraction(3, 4))
    assert parse_poly("(3/2)^2", ring) == ring.const(Fraction(9, 4))
    assert parse_poly("-3/2^3*x + 1/7^0", ring) == parse_poly("-3/8*x + 1", ring)
    ring5, _ = parse_ring("GF(5)[x]")
    assert parse_poly("3/2^2", ring5) == ring5.const(2)
    assert parse_poly("(3/2)^2", ring5) == ring5.const(1)
    for text in ("3/2^2^3",):
        with pytest.raises(ParseError, match="unexpected trailing input"):
            parse_poly(text, ring)
    with pytest.raises(ParseError, match=r"^denominator 5 vanishes in GF\(5\) \(line 1, column 3\)$"):
        parse_poly("1/5^0", ring5)


def test_a_power_before_the_slash_raises_the_numerator_alone():
    """``2^2/3`` is one coefficient, ``(2^2)/3``, and ``2^2/3^2`` is 4/9;
    over GF(5) the denominator is still checked.  A variable or a group
    raised to a power takes no ``/``: the grammar has no division of
    factors."""
    ring, _ = parse_ring("QQ[x]")
    x = ring.var(0)
    assert parse_poly("2^2/3", ring) == ring.const(Fraction(4, 3))
    assert parse_poly("-2^3/5*x", ring) == x.scale(Fraction(-8, 5))
    assert parse_poly("2^2/3^2", ring) == ring.const(Fraction(4, 9))
    ring5, _ = parse_ring("GF(5)[x]")
    assert parse_poly("2^2/3", ring5) == ring5.const(3)  # 4 * 3^-1 = 4 * 2
    with pytest.raises(ParseError, match=r"^denominator 5 vanishes in GF\(5\) \(line 1, column 5\)$"):
        parse_poly("2^2/5", ring5)
    for text in ("x^2/3", "(2)^2/3", "2^2^3/3"):
        with pytest.raises(ParseError, match="unexpected trailing input"):
            parse_poly(text, ring)


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


def test_parentheses_nest_at_most_max_nesting_deep():
    """``MAX_NESTING`` levels parse; one more is a ``ParseError`` at the
    ``(`` that opens it, well before Python's recursion limit."""
    R = PolyRing(QQ, ["x"])
    (x,) = R.gens()
    n = MAX_NESTING
    assert parse_poly("(" * n + "x" + ")" * n, R) == x
    assert parse_poly("(" * (n - 1) + "x+(x)" + ")" * (n - 1), R) == x + x
    with pytest.raises(ParseError, match=rf"^parentheses nest deeper than {n} \(line 1, column {n + 1}\)$"):
        parse_poly("(" * (n + 1) + "x" + ")" * (n + 1), R)
    with pytest.raises(ParseError, match=rf"nest deeper than {n} \(line 1, column {n + 1}\)"):
        parse_poly("(" * 3000 + "x" + ")" * 3000, R)


def test_a_number_past_the_digit_limit_is_a_parse_error_at_its_token():
    """A coefficient, denominator, exponent or characteristic longer than
    Python reads is refused at its token, with the limit named."""
    long = "1" * (sys.get_int_max_str_digits() + 1)
    message = (
        "a number is past the digit limit: integers read with at most "
        f"{sys.get_int_max_str_digits()} digits"
    )
    R = PolyRing(QQ, ["x"])
    for text, col in ((f"x + {long}", 5), (f"1/{long}", 3), (f"x^{long}", 3)):
        with pytest.raises(ParseError) as info:
            parse_poly(text, R)
        assert str(info.value) == f"{message} (line 1, column {col})"
    with pytest.raises(ParseError) as info:
        parse_field(f"GF({long})")
    assert str(info.value) == f"{message} (line 1, column 4)"


def test_a_power_past_the_digit_limit_is_refused_at_its_exponent():
    """Over QQ a numerator, a denominator or a parenthesized monomial's
    coefficient raised past the digit limit is refused at the exponent's
    token, before it is formed, even where the sum would cancel it.  Over
    GF(7) the same texts are residues, and a power of exactly ``limit``
    digits still reads over QQ."""
    limit = sys.get_int_max_str_digits()
    message = f"a power is past the digit limit: integers read with at most {limit} digits"
    R, F = PolyRing(QQ, ["x"]), PolyRing(GF(7), ["x"])
    e = 10**9
    for text, col, residue in (
        (f"2^{e}", 3, F.const(pow(2, e, 7))),
        (f"3/2^{e}", 5, F.const(3 * pow(2, -e, 7))),
        (f"(2)^{e}", 5, F.const(pow(2, e, 7))),
        ("(2*x)^1000000", 7, parse_poly(f"{pow(2, 10**6, 7)}*x^1000000", F)),
        ("(1/3*x)^1000000", 9, parse_poly(f"{pow(3, -10**6, 7)}*x^1000000", F)),
        ("2^100000000 - 2^100000000", 3, F.zero),
    ):
        with pytest.raises(ParseError) as info:
            parse_poly(text, R)
        assert str(info.value) == f"{message} (line 1, column {col})", text
        assert parse_poly(text, F) == residue, text
    assert parse_poly(f"10^{limit - 1}", R) == R.const(10 ** (limit - 1))


_FRAGMENTS = [
    *"xyz", "x_1", "QQ", "GF", "D", *"0125", "10", "99", "\u0663",
    *"+-*/^(),[]", " ", "\n", "\t", "\r\n", "\u00e9", "$", "\x00", "\u2028",
]
_POLYS = st.recursive(
    st.sampled_from(["x", "y", "z", "x_1", "0", "1", "2", "5", "12", "1/2", "3/10", "2/0", "\u0663"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "", " ", "\n-", "\t*"]), inner).map("".join),
        inner.map("({})".format),
        st.tuples(inner, st.sampled_from(["^0", "^2", "^ 3", "^\n1"])).map("".join),
    ),
    max_leaves=6,
)
_LISTS = st.lists(_POLYS, max_size=3).map(", ".join)
_TEXTS = st.one_of(
    _POLYS,
    _LISTS.map("D({})".format),
    st.tuples(
        st.sampled_from(["QQ", "GF(2)", "GF(5)", "GF(0)", "GF(4)", "GF( 3 )", "RR"]),
        st.sampled_from(["", "[x]", "[x, y]", "[x,x]", "[]"]),
        st.sampled_from(["", "/"]),
        _LISTS.map("({})".format),
    ).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(
    _TEXTS,
    st.lists(st.tuples(st.integers(0, 40), st.sampled_from(_FRAGMENTS)), max_size=3),
    st.sampled_from([2, 3, 5]),
)
def test_every_text_parses_or_raises_a_parse_error(text, splices, p):
    """Texts of the grammar with fragments of its alphabet, newlines and a
    few foreign characters spliced in: each entry point returns a value or
    raises ``ParseError``, nothing else.  Exponents keep at most two digits,
    so every power stays small."""
    for at, fragment in splices:
        at %= len(text) + 1
        text = text[:at] + fragment + text[at:]
    text = re.sub(r"(\^\s*\d\d)\d+", r"\1", text)
    calls = [
        lambda: parse_poly(text, PolyRing(QQ, ["x", "y"])),
        lambda: parse_poly(text, PolyRing(GF(p), ["x", "y"])),
        lambda: parse_basic_open(text, PolyRing(GF(p), ["x", "y"])),
        lambda: parse_ring(text),
        lambda: parse_field(text),
    ]
    for call in calls:
        try:
            call()
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1, text


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_a_product_past_the_exponent_limit_is_a_parse_error_at_its_factor(order):
    """A product whose monomial passes ``2**31`` is refused at the token
    of the factor that passes it: a variable, or a parenthesized group."""
    R = PolyRing(QQ, ["x", "y"], MonomialOrder(order))
    for text, monomial, col in (
        ("x^2147483647*x", "x^2147483648", 14),
        ("(x^2147483647)*(x)", "x^2147483648", 16),
        ("y + x^2000000000*x^2000000000", "x^4000000000", 18),
    ):
        with pytest.raises(ParseError) as info:
            parse_poly(text, R)
        assert str(info.value).startswith(f"monomial {monomial} is past the exponent limit: ")
        assert str(info.value).endswith(f"(line 1, column {col})")


def _render(tree, level=0):
    """The text of an expression tree, parenthesized where the grammar
    needs it: level 0 takes a sum, 1 a product, 2 a power, 3 an atom."""
    kind = tree[0]
    if kind in ("num", "var"):
        return str(tree[1])
    if kind in ("frac", "fracpow"):  # ``p/q^e`` raises q alone, so a fraction is no atom
        text, own = "/".join(map(str, tree[1:3])) + "".join(f"^{e}" for e in tree[3:]), 2
    elif kind == "pow":
        text, own = f"{_render(tree[1], 3)}^{tree[2]}", 2
    elif kind == "neg":
        text, own = "-" + _render(tree[1], 0 if tree[1][0] == "neg" else 1), 0
    elif kind == "mul":
        left, right = _render(tree[1], 1), _render(tree[2], 2)
        sep = tree[3]
        if not sep and not (left[-1] == ")" or right[0] == "(" or left[-1].isdigit() and right[0].isalpha()):
            sep = " "
        text, own = left + sep + right, 1
    else:
        text, own = _render(tree[1], 0) + tree[3] + _render(tree[2], 1), 0
    return text if own >= level else f"({text})"


class _Vanishes(Exception):
    pass


def _value(tree, ring):
    """The value of an expression tree by ``Poly`` arithmetic."""
    kind = tree[0]
    if kind == "num":
        return ring.const(tree[1])
    if kind in ("frac", "fracpow"):
        if ring.field.char and tree[2] % ring.field.char == 0:
            raise _Vanishes
        return ring.const(Fraction(tree[1], tree[2] ** (tree[3] if kind == "fracpow" else 1)))
    if kind == "var":
        return ring.var(ring.names.index(tree[1]))
    if kind == "pow":
        return _value(tree[1], ring) ** tree[2]
    if kind == "neg":
        return -_value(tree[1], ring)
    left, right = _value(tree[1], ring), _value(tree[2], ring)
    if kind == "mul":
        return left * right
    return left + right if tree[3].strip() == "+" else left - right


_SCALARS = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 30)),
    st.tuples(st.just("frac"), st.integers(0, 30), st.integers(1, 30)),
    st.tuples(st.just("fracpow"), st.integers(0, 30), st.integers(1, 30), st.integers(0, 9)),
)
_VARS = st.tuples(st.just("var"), st.sampled_from("xyz"))
# a power of a group keeps its exponent at most 3, so no tree builds many terms
_TREES = st.recursive(
    st.one_of(
        _SCALARS,
        _VARS,
        st.tuples(st.just("num"), st.integers(0, 10**30)),
        st.tuples(st.just("pow"), _SCALARS, st.integers(0, 9)),
        st.tuples(st.just("pow"), _VARS, st.integers(0, 99)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("pow"), inner, st.integers(0, 3)),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("mul"), inner, inner, st.sampled_from(["*", " * ", "", " "])),
        st.tuples(st.just("add"), inner, inner, st.sampled_from(["+", "-", " + ", " - "])),
    ),
    max_leaves=8,
)


@settings(max_examples=250, deadline=None)
@given(_TREES, st.sampled_from(["QQ", "GF(2)", "GF(3)", "GF(5)", "GF(7)", "QQ"]), st.sampled_from(["grevlex", "lex"]))
def test_parsing_a_rendered_tree_gives_its_value_by_poly_arithmetic(tree, field_name, order):
    """Random expression trees of integers, ``p/q``, ``p/q^e``, variables, ``^``,
    unary and binary ``-``, explicit and implicit ``*`` and nested
    parentheses, rendered to text: the parsed value equals the tree's value
    computed with ``Poly`` ``+ - * **`` and prints the same.  A ``q`` that
    vanishes mod p is a ``ParseError``."""
    ring = PolyRing(parse_field(field_name), ["x", "y", "z"], MonomialOrder(order))
    text = _render(tree)
    try:
        expected = _value(tree, ring)
    except _Vanishes:
        with pytest.raises(ParseError, match=rf"vanishes in {re.escape(field_name)}"):
            parse_poly(text, ring)
        return
    got = parse_poly(text, ring)
    assert got == expected, text
    assert str(got) == str(expected), text
