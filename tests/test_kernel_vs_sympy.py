"""The polynomial and Groebner kernel, differentially against sympy.

Hypothesis draws small sparse polynomials over QQ (non-integer and negative
coefficients) and over GF(2), GF(3), GF(32003) and GF(2**31 - 1), then
checks products, powers, sums and differences against ``sympy.Poly``,
substitution against sympy's simultaneous ``subs``, reduced bases against
``sympy.groebner``, and division by its defining identity under grevlex
and lex.  No result may hold a zero coefficient.  katsura-4 over QQ, whose reduced
basis has denominators near 2e9, checks the division loop's growing
integers against sympy as well.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from support import tuple_lead
from zariski import groebner
from zariski.fields import GF, QQ
from zariski.groebner import GroebnerBasis, divide
from zariski.polynomials import MonomialOrder, PolyRing

CHARS = [0, 2, 3, 32003, 2147483647]
NAMES = ("x", "y", "z")
SYMS = [sympy.Symbol(nm) for nm in NAMES]
ORDERS = [MonomialOrder("grevlex"), MonomialOrder("lex")]
SETTINGS = settings(max_examples=60, deadline=None)


def _coeff(char):
    if char == 0:
        return st.builds(
            Fraction,
            st.integers(-30, 30).filter(bool),
            st.integers(1, 12),
        )
    return st.integers(1, char - 1)


@st.composite
def polys(draw, char, nvars=3, max_exp=3, max_terms=5):
    monos = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return draw(st.dictionaries(monos, _coeff(char), max_size=max_terms))


def _ring(char, order=ORDERS[0]):
    return PolyRing(QQ if char == 0 else GF(char), NAMES, order)


def _to_sympy(f):
    char = f.ring.field.char
    terms = {
        m: sympy.Rational(c.numerator, c.denominator) if char == 0 else c
        for m, c in f.terms.items()
    }
    domain = sympy.QQ if char == 0 else sympy.GF(char)
    return sympy.Poly.from_dict(terms, *SYMS, domain=domain)


def _from_sympy(P, ring):
    """Terms of a sympy polynomial as a zariski term dict of ``ring``."""
    char = ring.field.char
    out = {}
    for m, c in P.terms():
        if char == 0:
            c = sympy.Rational(c)
            out[m] = Fraction(int(c.p), int(c.q))
        else:
            out[m] = int(c) % char
    return {m: c for m, c in out.items() if c}


def _assert_clean(f):
    """Every stored coefficient is nonzero and, over GF(p), a reduced residue;
    over QQ it is a ``Fraction`` (an ``int`` would compare equal to one)."""
    char = f.ring.field.char
    for c in f.terms.values():
        assert c != 0, f
        if char:
            assert 0 < c < char, f
        else:
            assert type(c) is Fraction, f


@SETTINGS
@given(st.data())
def test_ring_operations_match_sympy(data):
    char = data.draw(st.sampled_from(CHARS))
    R = _ring(char)
    f = R.from_terms(data.draw(polys(char)))
    g = R.from_terms(data.draw(polys(char)))
    k = data.draw(st.integers(0, 4))
    F, G = _to_sympy(f), _to_sympy(g)
    for ours, theirs in [(f * g, F * G), (f + g, F + G), (f - g, F - G), (-f, -F), (f**k, F**k)]:
        _assert_clean(ours)
        assert ours.terms == _from_sympy(theirs, R)
    assert (f - f).is_zero() and (f + (-f)).is_zero()


@SETTINGS
@given(st.data())
def test_substitution_matches_sympy(data):
    char = data.draw(st.sampled_from(CHARS))
    R = _ring(char)
    f = R.from_terms(data.draw(polys(char)))
    images = []
    for _ in NAMES:
        kind = data.draw(st.sampled_from(["random", "zero", "constant", "repeat"]))
        if kind == "zero":
            images.append(R.zero)
        elif kind == "constant":
            images.append(R.from_terms({(0, 0, 0): data.draw(_coeff(char))}))
        elif kind == "repeat" and images:
            images.append(images[-1])
        else:
            images.append(R.from_terms(data.draw(polys(char, max_exp=2, max_terms=3))))
    ours = f.substitute(images, R)
    _assert_clean(ours)
    by_name = {sym: _to_sympy(g).as_expr() for sym, g in zip(SYMS, images)}
    theirs = _to_sympy(f).as_expr().subs(by_name, simultaneous=True)
    domain = sympy.QQ if char == 0 else sympy.GF(char)
    assert ours.terms == _from_sympy(sympy.Poly(theirs, *SYMS, domain=domain), R)
    other = _ring(char, ORDERS[1])
    with pytest.raises(ValueError):
        f.substitute([images[0], images[1], other.zero], R)


@SETTINGS
@given(st.data())
def test_division_identity_and_irreducible_remainder(data):
    char = data.draw(st.sampled_from(CHARS))
    R = _ring(char, data.draw(st.sampled_from(ORDERS)))
    f = R.from_terms(data.draw(polys(char, max_terms=8)))
    divisors = [
        R.from_terms(data.draw(polys(char, max_exp=2, max_terms=3)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    quots, r = divide(f, divisors)
    combo = r
    for q, d in zip(quots, divisors):
        _assert_clean(q)
        combo = combo + q * d
    _assert_clean(r)
    assert combo == f
    leads = [tuple_lead(d) for d in divisors if not d.is_zero()]
    for m in r.terms:
        assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)
    # the remainder alone, as ``normal_form`` divides
    none, raw = groebner._reduce(f, divisors, False)
    assert none is None and groebner._normalized(R, raw) == r


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduced_bases_match_sympy_groebner(data):
    char = data.draw(st.sampled_from(CHARS))
    order = data.draw(st.sampled_from(ORDERS))
    R = _ring(char, order)
    gens = [
        R.from_terms(data.draw(polys(char, max_exp=2, max_terms=3)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    G = GroebnerBasis(R, gens)
    domain = sympy.QQ if char == 0 else sympy.GF(char)
    nonzero = [_to_sympy(g).as_expr() for g in gens if not g.is_zero()]
    expected = set()
    if nonzero:
        basis = sympy.groebner(nonzero, *SYMS, order=order.kind, domain=domain)
        for b in basis.exprs:
            P = sympy.Poly(b, *SYMS, domain=domain)
            P = P.quo_ground(P.LC(order=order.kind))
            expected.add(frozenset(_from_sympy(P, R).items()))
    got = {frozenset(b.terms.items()) for b in G.basis}
    assert got == expected and len(G.basis) == len(expected)
    for b, row in zip(G.basis, G.cofactors):
        _assert_clean(b)
        combo = R.zero
        for c, g in zip(row, gens):
            _assert_clean(c)
            combo = combo + c * g
        assert combo == b


def test_katsura4_over_qq_matches_sympy_with_exact_cofactors():
    """katsura-4 in grevlex: 13 basis elements with large denominators, so
    the division loop scales its working polynomial and removes content
    many times; the basis must equal sympy's and every row re-evaluate."""
    names = [f"x{i}" for i in range(5)]
    R = PolyRing(QQ, names)
    x = R.gens()
    gens = [x[0] + 2 * (x[1] + x[2] + x[3] + x[4]) - 1]
    for m in range(4):
        total = R.zero
        for i in range(-4, 5):
            if abs(m - i) <= 4:
                total = total + x[abs(i)] * x[abs(m - i)]
        gens.append(total - x[m])
    G = GroebnerBasis(R, gens)
    syms = sympy.symbols(names)
    sym_gens = [
        sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms.items()},
            *syms, domain=sympy.QQ,
        ).as_expr()
        for g in gens
    ]
    expected = set()
    for b in sympy.groebner(sym_gens, *syms, order="grevlex", domain=sympy.QQ).exprs:
        P = sympy.Poly(b, *syms, domain=sympy.QQ)
        P = P.quo_ground(P.LC(order="grevlex"))
        expected.add(frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in P.terms()))
    assert len(G.basis) == 13
    assert {frozenset(b.terms.items()) for b in G.basis} == expected
    assert max(c.denominator for b in G.basis for c in b.terms.values()) > 10**9
    for b, row in zip(G.basis, G.cofactors):
        _assert_clean(b)
        combo = R.zero
        for c, g in zip(row, gens):
            _assert_clean(c)
            combo = combo + c * g
        assert combo == b
