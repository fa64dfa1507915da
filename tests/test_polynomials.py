"""Multivariate polynomial arithmetic with exact coefficients."""

import random
from fractions import Fraction
from operator import add

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from support import (
    fraction_calls,
    fraction_divide,
    in_field,
    is_canonical,
    monic,
    random_poly,
    ref_product,
    ref_substitute,
    ref_sum,
    tuple_coprime,
    tuple_divides,
    tuple_key,
    tuple_lcm,
    tuple_lead,
    tuple_product,
)
from zariski import polynomials
from zariski.fields import GF, QQ
from zariski.groebner import divide
from zariski.parsing import parse_poly
from zariski.polynomials import MonomialOrder, Poly, PolyRing, _dot, poly_sort_key


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
    assert 3 - x == R.const(3) - x and (3 - x).terms == {(0, 0): 3, (1, 0): -1}


def test_modular_coefficients_wrap():
    R = PolyRing(GF(3), ["t"])
    (t,) = R.gens()
    assert t + t + t == R.zero
    assert (t + 1) ** 3 == t**3 + 1  # Frobenius over GF(3)
    assert 3 - t == -t == t.scale(2) and (1 - t).terms == {(0,): 1, (1,): 2}


def test_lead_terms_differ_between_orders():
    # f = x + y^2: graded orders pick y^2, lex(x > y) picks x
    grev = ring_qq_xy("grevlex")
    lex = ring_qq_xy("lex")
    x, y = grev.gens()
    f = x + y * y
    assert tuple_lead(f) == (0, 2)
    g = lex.from_terms(f.terms)
    assert tuple_lead(g) == (1, 0)


def test_grevlex_breaks_degree_ties_by_reverse_last_exponent():
    R = ring_qq_xy("grevlex")
    x, y = R.gens()
    # among degree-2 monomials: x^2 > x*y > y^2
    f = x * x + x * y + y * y
    assert tuple_lead(f) == (2, 0)
    assert tuple_lead(x * y + y * y) == (1, 1)


def test_degree_bookkeeping():
    R = ring_qq_xy()
    x, y = R.gens()
    f = x * x * y + y + 1
    assert f.total_degree() == 3
    assert f.degree_in(0) == 2
    assert f.degree_in(1) == 1
    assert f.ring.zero.degree_in(0) == -1
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
    y, bx = big.gens()
    lifted = small.lift(x * x + 1, big)
    assert lifted == bx**2 + big.one
    # renaming back down gives the original
    assert big.lift(lifted, small) == x * x + 1
    # the smaller ring refuses polynomials that involve the extra variable
    with pytest.raises(ValueError, match="involves 'y', absent from target ring"):
        big.lift(y, small)


def test_lift_refuses_a_polynomial_of_another_ring():
    """A polynomial of GF(5)[a,b,c] is no polynomial of QQ[x,y,z], whose
    variables it would otherwise be renamed by position."""
    a, b, _ = PolyRing(GF(5), ["a", "b", "c"]).gens()
    big, small = PolyRing(QQ, ["x", "y", "z"]), PolyRing(QQ, ["x", "y"])
    with pytest.raises(ValueError, match="polynomial does not belong to this ring"):
        big.lift(a * a + b.scale(3), small)


def _renamed(p, target):
    """The renaming oracle on exponent tuples: ``p``'s terms with each
    exponent moved to the variable of the same name in ``target``; ``p``
    involves no variable that ``target`` lacks."""
    out = {}
    for m, c in p.terms.items():
        exps = dict(zip(p.ring.names, m))
        out[tuple(exps.get(nm, 0) for nm in target.names)] = c
    return target.from_terms(out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 5]), st.sampled_from(["grevlex", "lex"]), st.data())
def test_lift_renames_both_ways_as_the_tuple_oracle(char, kind, data):
    """Up into a ring with one more variable and back down: by ``with_vars``
    (the variables packed anew, in either order), by name in a permuted
    ring, and into the elimination ring, whose packed terms carry over as
    they are.  A polynomial that involves the extra variable cannot go
    down."""
    R = PolyRing(GF(char) if char else QQ, ["x", "y"], MonomialOrder(kind))
    coeff = st.integers(1, char - 1) if char else st.fractions(max_denominator=6).filter(bool)

    def terms(n):
        return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=4)

    f = R.from_terms(data.draw(terms(2)))
    elim = R.with_vars(["z"], R.order.eliminating())
    permuted = PolyRing(R.field, ["z", "y", "x"], R.order)
    for big in (R.with_vars(["z"], MonomialOrder()), R.with_vars(["z"], R.order), permuted, elim):
        up = R.lift(f, big)
        assert up == _renamed(f, big) and big.lift(up, R) == f
        g = big.from_terms(data.draw(terms(3)))
        if g.involves(big.names.index("z")):
            with pytest.raises(ValueError, match="polynomial involves 'z', absent from target ring"):
                big.lift(g, R)
        else:
            assert big.lift(g, R) == _renamed(g, R)
    assert R.lift(f, elim)._t is f._t


def test_with_vars_extends_presentation():
    R = PolyRing(QQ, ["x"])
    S = R.with_vars(["z"], MonomialOrder())
    assert S.names == ("x", "z")
    assert S.nvars == 2
    with pytest.raises(ValueError):
        R.with_vars(["x"], MonomialOrder())  # duplicate name


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


def test_the_prime_field_boundary_is_canonical():
    """Over GF(p) a ``Fraction`` coefficient becomes its residue and a
    multiple of p becomes zero, on every way in: ``const``, ``from_terms``,
    ``Poly(ring, terms)`` and ``scale``."""
    R = PolyRing(GF(7), ["x"])
    (x,) = R.gens()
    third = R.const(Fraction(1, 3))
    assert third == R.const(5) and third.terms == {(0,): 5} and hash(third) == hash(R.const(5))
    assert R.from_terms({(1,): Fraction(1, 3)}) == x.scale(Fraction(1, 3)) == x.scale(5)
    assert Poly(R, {(1,): Fraction(-2, 3), (0,): 14}).terms == {(1,): 4}  # -2 * 5 = -10 = 4
    assert x.scale(Fraction(1, 3)).terms == {(1,): 5}
    for zero in (x.scale(7), x.scale(Fraction(14, 3)), R.const(-7), R.from_terms({(1,): 7})):
        assert zero.is_zero() and zero == R.zero and is_canonical(zero)
    with pytest.raises(ZeroDivisionError):
        R.const(Fraction(1, 7))


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


def test_a_monomial_power_makes_no_product(monkeypatch):
    """A one-term base is raised directly: exponents times n and one
    coefficient power, where repeated multiplication would take n - 1
    products.  Zero, with no term at all, is returned at once."""
    calls = []
    product = polynomials._int_product
    monkeypatch.setattr(polynomials, "_int_product", lambda *a: calls.append(1) or product(*a))
    f = ring_qq_xy().from_terms({(3, 1): Fraction(-2, 3)})
    assert f**100000 == Poly(f.ring, {(300000, 100000): Fraction(2**100000, 3**100000)})
    u = PolyRing(GF(7), ["u"]).var(0).scale(3)
    assert (u**100000).terms == {(100000,): pow(3, 100000, 7)}
    assert (f.ring.zero ** 10**9).is_zero() and (u.ring.zero ** 10**9).is_zero()
    assert calls == []
    x, y = f.ring.gens()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y and calls


@st.composite
def _field_and_terms(draw):
    char = draw(st.sampled_from([0, 2, 3, 7, 32003]))
    nvars = draw(st.integers(0, 3))
    if char:
        coeff = st.integers(1, char - 1)
    else:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    return char, nvars, draw(st.dictionaries(monos, coeff, max_size=4))


@settings(max_examples=50, deadline=None)
@given(_field_and_terms(), st.integers(0, 25))
@example((0, 3, {(1, 0, 2): Fraction(-3, 4), (0, 1, 0): Fraction(5, 6), (0, 0, 0): Fraction(1, 9)}), 25)
@example((0, 2, {(2, 1): Fraction(7, 2), (0, 2): Fraction(-1, 3)}), 22)
@example((2, 3, {(1, 0, 0): 1, (0, 1, 1): 1, (0, 0, 0): 1}), 25)
@example((3, 2, {(1, 1): 2, (0, 2): 1}), 24)
@example((32003, 3, {(2, 0, 1): 31000, (0, 1, 0): 5, (0, 0, 2): 17}), 21)
@example((7, 0, {(): 3}), 25)
@example((0, 1, {}), 0)
def test_power_matches_sympy(case, n):
    """``f**n`` against sympy's power over QQ and GF(p), in 0 to 3
    variables, for the zero polynomial, constants, monomials and sums."""
    char, nvars, terms = case
    R = PolyRing(GF(char) if char else QQ, [f"x{i}" for i in range(nvars)])
    f = R.from_terms(terms)
    ours = f**n
    # sympy's sparse ring powers by the multinomial expansion; it needs a
    # generator, so a variable-free polynomial gets a dummy one
    domain = sympy.GF(char) if char else sympy.QQ
    S = sympy.polys.rings.ring(",".join(R.names) or "t", domain)[0]
    pad = () if nvars else (0,)
    P = S.from_dict({m + pad: domain.convert(sympy.Rational(c)) for m, c in f.terms.items()})
    expected = {}
    for m, c in (P**n if n else S.one).items():  # sympy refuses 0**0
        c = int(c) % char if char else Fraction(int(c.numerator), int(c.denominator))
        if c:
            expected[m[:nvars]] = c
    assert ours.terms == expected
    for c in ours.terms.values():
        assert type(c) is (int if char else Fraction)


# Bases for each path of ``Poly.__pow__``, in variables x, y: a lowest
# degree part of one term (the constant), a highest one only, and two
# several-term ends, which stay on repeated multiplication.
_POWER_SHAPES = {
    "constant term": [(2, 1), (1, 0), (0, 1), (0, 0)],
    "single top term": [(1, 1), (1, 0), (0, 1)],
    "two multi-term ends": [(1, 0), (0, 1)],
    "multi-term ends with a gap": [(2, 0), (0, 2), (1, 0), (0, 1)],
}
_POWER_ORDERS = [MonomialOrder("grevlex"), MonomialOrder("lex"), MonomialOrder("grevlex").eliminating()]


def _iterated(f, n):
    """``f**n`` as ``n - 1`` products by ``f``: the reference for powers."""
    acc = f
    for _ in range(n - 1):
        acc = acc * f
    return acc


@st.composite
def _power_base(draw):
    """A field's characteristic and the terms of a base of one shape."""
    char = draw(st.sampled_from([0, 2, 3, 7, 32003]))
    if char:
        coeff = st.integers(1, char - 1)
    else:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    shape = _POWER_SHAPES[draw(st.sampled_from(sorted(_POWER_SHAPES)))]
    return char, {m: draw(coeff) for m in shape}


@settings(max_examples=60, deadline=None)
@given(_power_base(), st.sampled_from(_POWER_ORDERS), st.integers(3, 30))
@example((0, {(2, 1): Fraction(-7, 2), (1, 0): 3, (0, 1): Fraction(1, 6), (0, 0): 5}), _POWER_ORDERS[0], 30)
@example((7, {(2, 1): 3, (1, 0): 1, (0, 1): 6, (0, 0): 2}), _POWER_ORDERS[1], 3)
@example((7, {(1, 1): 3, (1, 0): 1, (0, 1): 6}), _POWER_ORDERS[1], 4)  # p <= n * D
@example((32003, {(1, 1): 31000, (1, 0): 5, (0, 1): 17}), _POWER_ORDERS[2], 30)
@example((3, {(2, 0): 1, (0, 2): 2, (1, 0): 1, (0, 1): 1}), _POWER_ORDERS[2], 29)
def test_power_matches_repeated_products_on_every_path(case, order, n):
    """``f**n`` equals ``n - 1`` products by ``f`` over QQ and four prime
    fields, under grevlex, lex and an elimination order, which read the
    degree off differently packed monomials; for bases whose lowest or
    highest degree part is one term, and for ones where neither is, and
    over GF(p) on both sides of ``p = n * D``."""
    char, terms = case
    f = PolyRing(GF(char) if char else QQ, ["x", "y"], order).from_terms(terms)
    got = f**n
    assert is_canonical(got) and got == _iterated(f, n)


def test_each_power_path_is_taken(monkeypatch):
    """The recurrence runs from the low end and from the high end, and
    declines two several-term ends and a prime ``p <= n * D``; cubes and
    squares never reach it."""
    seen = []
    miller = polynomials._miller

    def spy(*args):
        out = miller(*args)
        seen.append(out is not None)
        return out

    monkeypatch.setattr(polynomials, "_miller", spy)
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    for base, n, ran in (
        (x * x * y + x + 1, 5, True),
        (x * y + x + y, 5, True),
        (x + y, 5, False),
        (x * x + y * y + x + y, 5, False),
    ):
        seen.clear()
        assert base**n == _iterated(base, n) and seen == [ran]
    R7 = PolyRing(GF(7), ["x", "y"])
    f = R7.var(0) + R7.var(1) + 1
    for n, ran in ((6, True), (7, False)):
        seen.clear()
        assert f**n == _iterated(f, n) and seen == [ran]
    seen.clear()
    assert f**3 == _iterated(f, 3) and (x + 1) ** 2 == (x + 1) * (x + 1) and seen == []


def test_the_benchmark_power_and_a_power_near_the_exponent_limit():
    """The linear form of four terms to the 18th power over QQ, and
    seventh powers whose fields reach ``7 * 2**28`` under every order: one
    recurrence from the constant, one from the top term ``x^(2^28)``, whose
    products reach fields of ``2**31`` before they are shifted back."""
    R = PolyRing(QQ, ["x0", "x1", "x2"])
    x0, x1, x2 = R.gens()
    form = x0.scale(-3) + x1.scale(5) - x2 + 2
    assert form**18 == _iterated(form, 18) and len((form**18).terms) == 1330
    for order in _POWER_ORDERS:
        S = PolyRing(QQ, ["x", "y"], order)
        x, y = S.gens()
        for base in (x ** (2**28) + y + 1, x ** (2**28) + x.scale(3) - y):
            power = base**7
            assert power == _iterated(base, 7) and len(power.terms) == 36
            assert max(e for m in power.terms for e in m) == 7 * 2**28


def test_a_power_makes_at_most_three_products_per_result_term(monkeypatch):
    """``(x+y+z+1)**40`` pays one coefficient product per term of each
    part of ``f`` but the constant, times each part of the power: at most
    ``3 * |f**40|`` = 37,023 term products, where 39 products by ``f``
    would make about 494,000."""
    work = []
    product = polynomials._int_product

    def counted(acc, a, b):
        a, b = list(a), list(b)
        work.append(len(a) * len(b))
        return product(acc, a, b)

    monkeypatch.setattr(polynomials, "_int_product", counted)
    R = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = R.gens()
    power = (x + y + z + 1) ** 40
    assert len(power.terms) == 12341
    assert sum(work) <= 3 * 12341


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 2, 32003]), st.data())
def test_dot_is_the_left_fold_of_products(char, data):
    """``_dot`` of pairs of polynomials equals ``sum(l * r)`` folded pair by
    pair, for zero entries, operands over unequal denominators and the
    empty list."""
    R = PolyRing(GF(char) if char else QQ, ["x", "y"])
    if char:
        coeff = st.integers(0, char - 1)
    else:
        coeff = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 9, 35]))
    poly = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=4)
    pairs = [
        (R.from_terms(data.draw(poly)), R.from_terms(data.draw(poly)))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    fold = R.zero
    for l, r in pairs:
        fold = fold + l * r
    got = _dot(R, pairs)
    assert got.terms == fold.terms and got.ring is R
    for c in got.terms.values():
        assert c and (0 < c < char if char else type(c) is Fraction)
    assert _dot(R, []) == R.zero


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 5]), st.data())
def test_every_result_is_canonical_and_matches_the_fraction_reference(char, data):
    """Every result of ``+``, ``-``, ``*``, ``**``, ``scale``, ``substitute``,
    ``_dot`` and ``divide`` over QQ and GF(5) holds the canonical integer
    form and has the terms of the same operation done one ``Fraction`` per
    term (``support.ref_*``), for ``f - f``, ``scale(0)``, negative and
    fractional scalars, rational images and non-monic divisors."""
    p = char
    R = PolyRing(GF(p) if p else QQ, ["x", "y"])
    T = PolyRing(R.field, ["t", "u"])
    coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    raw = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, max_size=4)
    (a, b, c), (i0, i1) = [data.draw(raw) for _ in range(3)], [data.draw(raw) for _ in range(2)]
    f, g, h = R.from_terms(a), R.from_terms(b), R.from_terms(c)
    k = data.draw(st.one_of(st.integers(-7, 7), coeff))
    n = data.draw(st.integers(0, 4))
    power = {(0, 0): 1}
    for _ in range(n):
        power = ref_product(power, a)
    images = [T.from_terms(i0), T.from_terms(i1)]
    cases = [
        (f, a),
        (f + g, ref_sum(a, b)),
        (f - g, ref_sum(a, b, -1)),
        (f - f, {}),
        (-f, ref_sum({}, a, -1)),
        (3 - f, ref_sum({(0, 0): 3}, a, -1)),
        (f * g, ref_product(a, b)),
        (f**n, power),
        (f.scale(k), {m: v * k for m, v in a.items()}),
        (f.scale(0), {}),
        (f.substitute(images, T), ref_substitute(a, [i0, i1], 2)),
        (_dot(R, [(f, g), (h, f), (g, R.zero)]), ref_sum(ref_product(a, b), ref_product(c, a))),
    ]
    for got, want in cases:
        assert is_canonical(got) and got.terms == in_field(p, want)
    # divisors scaled by 3/2 (4 over GF(5)) are not monic unless their lead was 2/3
    divisors = [R.from_terms(data.draw(raw)).scale(Fraction(3, 2)) for _ in range(data.draw(st.integers(1, 2)))]
    quots, rem = divide(f * g + h, divisors)
    ref_quots, ref_rem = fraction_divide(f * g + h, divisors)
    for got, want in zip(quots + [rem], ref_quots + [ref_rem]):
        assert is_canonical(got) and got.terms == want.terms


def test_rational_kernels_build_no_fraction(monkeypatch):
    """Over QQ, products, powers, substitution, ``_dot`` and division run on
    the integer terms: none of them enters the ``fractions`` module.  The
    packed products of ``_product`` are among them: a product and a square
    of operands dense in y."""
    R = ring_qq_xy()
    x, y = R.gens()
    f = x.scale(Fraction(2, 3)) - y.scale(Fraction(5, 4)) + R.const(Fraction(1, 6))
    g = (x * y).scale(Fraction(-3, 2)) + 7
    images, divisors = [f, g.scale(Fraction(1, 5))], [f, g.scale(Fraction(7, 9))]
    dense = [R.from_terms({(i, j): Fraction(-i - j - 1, k + 1) for i in range(2) for j in range(20)}) for k in range(2)]
    runs = {
        "mul": lambda: f * g,
        "packed mul": lambda: dense[0] * dense[1],
        "packed square": lambda: dense[0] ** 2,
        "pow": lambda: f**5,
        "substitute": lambda: (f * g).substitute(images, R),
        "_dot": lambda: _dot(R, [(f, g), (g, f), (f, f)]),
        "divide": lambda: divide(f**3 + g, divisors),
    }
    for name, run in runs.items():
        out, names = fraction_calls(run)
        assert names == [], (name, names)
    assert fraction_calls(lambda: f.terms)[1]  # the boundary does build them
    calls, product = [], polynomials._int_product
    monkeypatch.setattr(polynomials, "_int_product", lambda *a: calls.append(1) or product(*a))
    runs["packed mul"](), runs["packed square"]()
    assert not calls


def test_polynomials_are_immutable_and_hashable():
    R = ring_qq_xy()
    x, y = R.gens()
    with pytest.raises(AttributeError):
        x.ring = None
    assert hash(x + y) == hash(y + x)
    assert len({x, x + 0, y}) == 2


# -- packed monomials ------------------------------------------------------------

ORDERS = [
    MonomialOrder("grevlex"),
    MonomialOrder("lex"),
    MonomialOrder("grevlex").eliminating(),
    MonomialOrder("lex").eliminating(),
    MonomialOrder("grevlex").eliminating().eliminating(),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS), st.integers(2, 4), st.data())
def test_packed_monomials_match_the_tuple_reference(order, n, data):
    """On packed ints, the order key, divisibility, lcm, coprimality and
    products agree with the same operations on exponent tuples, for small
    exponents and for exponents of 27 bits."""
    R = PolyRing(QQ, [f"x{i}" for i in range(n)], order)
    exps = st.one_of(st.integers(0, 3), st.integers(0, 2**27))
    monos = data.draw(st.lists(st.tuples(*[exps] * n), min_size=2, max_size=6))
    packed = [R._pack(m) for m in monos]
    assert [R._mono(m) for m in packed] == monos
    G = R._guard
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            assert ((pa ^ R._neg) < (pb ^ R._neg)) == (tuple_key(order, a) < tuple_key(order, b))
            assert (((pb + G) - pa) & G == G) == tuple_divides(a, b)
            # the lcm's degree field sums the larger exponents, which can
            # exceed the larger of the two degrees
            lcm = R._lcm(pa, pb)
            assert lcm == R._pack(tuple_lcm(a, b))
            assert (lcm == pa + pb) == tuple_coprime(a, b)
            assert R._mono(pa + pb) == tuple(map(add, a, b))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORDERS), st.sampled_from([0, 7, 32003]), st.data())
def test_packed_kernels_match_the_tuple_reference(order, char, data):
    """Products, powers and ``divide`` on packed monomials give the terms
    that tuple arithmetic gives: the division term for term and in the
    order of ``support.fraction_divide``."""
    R = PolyRing(GF(char) if char else QQ, ["w", "x", "y", "z"], order)
    if char:
        coeff = st.integers(1, char - 1)
    else:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), coeff, max_size=5)
    f, g = (R.from_terms(data.draw(polys)) for _ in range(2))
    assert (f * g).terms == tuple_product(f, g)
    power = R.one
    for k in range(4):
        assert (f**k).terms == power.terms
        power = R.from_terms(tuple_product(power, f))
    divisors = [R.from_terms(data.draw(polys)) for _ in range(data.draw(st.integers(1, 3)))]
    quots, rem = divide(f * g + f, divisors)
    ref_quots, ref_rem = fraction_divide(f * g + f, divisors)
    assert list(rem.terms.items()) == list(ref_rem.terms.items())
    assert [list(q.terms.items()) for q in quots] == [list(q.terms.items()) for q in ref_quots]


def test_the_exponent_limit_is_checked_before_a_power_is_built():
    """A power past ``2**31`` raises at once, whatever the base: the bound
    is read off the base's terms before any product is formed."""
    R = ring_qq_xy()
    x, y = R.gens()
    for base, named in ((x, "x^2147483648"), (x + y + 1, "x^2147483648"), ((x * y).scale(3), "x^2147483648*y^2147483648")):
        with pytest.raises(ValueError, match=r"past the exponent limit.*2\^31") as info:
            base ** (2**31)
        assert type(info.value) is polynomials._ExponentLimitError
        assert str(info.value).startswith(f"monomial {named} is past")
    assert (x ** (2**31 - 1)).terms == {(2**31 - 1, 0): 1}
    # near the limit the bound is exact, not a rough cut
    assert ((x ** (2**29)) ** 3).terms == {(3 * 2**29, 0): 1}
    assert ((x ** (2**30 - 1) + y) ** 2).terms == {(2**31 - 2, 0): 1, (2**30 - 1, 1): 2, (0, 2): 1}
    with pytest.raises(polynomials._ExponentLimitError, match=r"x\^2147483648 "):
        (x ** (2**30) + 1) ** 2
    # under grevlex the degree field bounds the total degree as well
    with pytest.raises(polynomials._ExponentLimitError, match=r"x\^1073741824\*y\^1073741824"):
        (x * y) ** (2**30)
    lex = ring_qq_xy("lex")
    assert ((lex.var(0) * lex.var(1)) ** (2**30)).terms == {(2**30, 2**30): 1}


def test_products_packing_and_division_past_the_limit_raise():
    R = ring_qq_xy()
    x, y = R.gens()
    big = x ** (2**30)
    with pytest.raises(polynomials._ExponentLimitError, match=r"monomial x\^2147483648 "):
        big * big
    with pytest.raises(polynomials._ExponentLimitError, match=r"x\^1073741824\*y\^1073741824"):
        big * y ** (2**30)
    with pytest.raises(polynomials._ExponentLimitError):
        R.from_terms({(2**31, 0): 1})
    with pytest.raises(polynomials._ExponentLimitError):
        Poly(R, {(2**30, 2**30): Fraction(1)})
    with pytest.raises(ValueError, match="negative exponent"):
        R.from_terms({(-1, 0): 1})
    lex = ring_qq_xy("lex")
    u, v = lex.gens()
    assert (u ** (2**30) * v ** (2**30)).total_degree() == 2**31
    # renamed into grevlex, that monomial's degree field passes the limit
    with pytest.raises(polynomials._ExponentLimitError, match=r"x\^1073741824\*y\^1073741824"):
        lex.lift(u ** (2**30) * v ** (2**30), R)
    # lex ranks x above y**(2**30): reducing x*y**(2**30) by x + y**(2**30)
    # forms y**(2**31)
    with pytest.raises(polynomials._ExponentLimitError, match=r"monomial y\^2147483648 "):
        divide(u * v ** (2**30), [u + v ** (2**30)])


# -- the product chooser ---------------------------------------------------------

_CHOOSER_ORDERS = [MonomialOrder("grevlex"), MonomialOrder("lex"), MonomialOrder("grevlex").eliminating()]


def _schoolbook(f, g):
    """``f * g`` by the schoolbook loop alone, normalized as ``*`` does."""
    acc = polynomials._checked(f.ring, polynomials._int_product({}, f._t.items(), g._t.items()))
    return polynomials._norm(f.ring, f._d * g._d, acc)


def _packed_along(R, rng, scalar, groups, degree, gaps):
    """A polynomial dense in R's last variable: ``groups`` monomials of the
    other variables (exponents at most 2), each times every power of the
    last variable up to ``degree`` bar at most ``gaps`` of them."""
    others = {tuple(rng.randint(0, 2) for _ in range(R.nvars - 1)) for _ in range(groups)}
    terms = {}
    for m in others:
        skip = set(rng.sample(range(degree + 1), gaps))
        terms.update({m + (e,): scalar() for e in range(degree + 1) if e not in skip})
    return R.from_terms(terms)


def _scalars(field, rng):
    """Random nonzero scalars of ``field``: over QQ numerators past 64 bits
    of either sign over unequal denominators, else residues 1 .. p-1."""
    p = field.char
    if p:
        return lambda: rng.randrange(1, p)
    return lambda: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 2**100), rng.choice((1, 3, 10**20, 2**65 + 13)))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003), GF(2147483647)], ids=repr)
@pytest.mark.parametrize("order", _CHOOSER_ORDERS, ids=repr)
def test_the_product_chooser_agrees_with_the_schoolbook_loop(monkeypatch, field, order):
    """``*``, squares and cubes equal the schoolbook products in 0-5
    variables; operands dense in one variable are packed, and sparse ones,
    a wide exponent range among them, stay on the schoolbook loop."""
    rng = random.Random(f"{field!r}/{order!r}")
    scalar = _scalars(field, rng)
    calls = []
    product = polynomials._int_product
    monkeypatch.setattr(polynomials, "_int_product", lambda *a: calls.append(1) or product(*a))
    for n in range(6):
        R = PolyRing(field, [f"x{i}" for i in range(n)], order if n else None)
        shapes = [(R.const(scalar()), R.const(scalar()), False)]
        if n:
            dense = [_packed_along(R, rng, scalar, 3, 23, rng.randint(0, 5)), _packed_along(R, rng, scalar, 2, 17, 0)]
            sparse = [R.from_terms({tuple(rng.randrange(0, 1000) for _ in range(n)): scalar() for _ in range(20)})
                      for _ in range(2)]
            shapes += [(*dense, True), (*sparse, False), (R.var(0) + 1, R.var(n - 1) + 1, False)]
        for f, g, packed in shapes:
            calls.clear()
            h = f * g
            assert not calls == packed, (n, f, g)
            assert h == _schoolbook(f, g) and f**2 == _schoolbook(f, f)
            assert f**3 == _schoolbook(_schoolbook(f, f), f)


def test_a_product_of_two_parsed_groups_is_packed(monkeypatch):
    """The parser multiplies two several-term groups through the chooser:
    ``(f) * (g)``, for f and g the expansions of ``(x+y+1)^8`` and
    ``(x-y+2)^8``, parses to their product, packed, over QQ and GF(32003)."""
    calls = []
    product = polynomials._int_product
    monkeypatch.setattr(polynomials, "_int_product", lambda *a: calls.append(1) or product(*a))
    for field in (QQ, GF(32003)):
        R = PolyRing(field, ["x", "y"])
        x, y = R.gens()
        f, g = (x + y + 1) ** 8, (x - y + 2) ** 8
        text = f"({f}) * ({g})"
        calls.clear()
        parsed = parse_poly(text, R)
        assert not calls and len(f._t) * len(g._t) >= 256
        assert parsed == _schoolbook(f, g)


def test_a_sparse_exponent_range_is_never_packed(monkeypatch):
    """Sixteen terms ``x^(j * 2^s)`` squared: one group whose slot range
    spans ``15 * 2^s`` slots, far from half full, so the square stays on
    the schoolbook loop, and for s = 25 finishes at once in bounded memory.
    And ``(x^(2^30) + 1) * (x^(2^30) - 1)`` raises the exponent limit as it
    did."""
    R = PolyRing(QQ, ["x"])
    (x,) = R.gens()
    calls, product = [], polynomials._int_product
    monkeypatch.setattr(polynomials, "_int_product", lambda *a: calls.append(1) or product(*a))
    for s in (8, 25):
        f = sum((x ** (j * 2**s) for j in range(16)), R.zero)
        calls.clear()
        square = f * f
        assert calls and square == _schoolbook(f, f) and len(square._t) == 31 and f**2 == square
    big = x ** (2**30)
    with pytest.raises(polynomials._ExponentLimitError, match=r"^monomial x\^2147483648 is past"):
        (big + 1) * (big - 1)


@pytest.mark.parametrize("order", _CHOOSER_ORDERS, ids=repr)
def test_a_product_near_the_exponent_limit_names_the_same_monomial(order):
    """Operands dense in x with an x field of ``2**30`` go to the schoolbook
    loop, so a product past the limit raises with the text it always had:
    the first term pair past it, ``x^(2^31 + 4)*y^6`` from the two first
    terms, where the packed slots would meet ``x^(2^31)*y^6`` first.  Just
    below the limit, at ``2**30 - 5``, the product is packed and whole."""
    R = PolyRing(QQ, ["x", "y"], order)
    for low, text in ((2**30 - 2, "monomial x^2147483652*y^6 is past"), (2**30 - 9, None)):
        f = R.from_terms({(low + i, j): Fraction(i - j or 1) for i in reversed(range(5)) for j in range(3, -1, -1)})
        g = R.from_terms({(low + i, j): Fraction(i + j + 1) for i in reversed(range(5)) for j in range(3, -1, -1)})
        if text is None:
            assert f * g == _schoolbook(f, g) and len(f._t) * len(g._t) >= 256
            continue
        with pytest.raises(polynomials._ExponentLimitError) as info:
            f * g
        assert str(info.value).startswith(text)
