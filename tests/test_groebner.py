"""Groebner bases with exact cofactor certificates.

Expected bases come frozen from an independent implementation (sympy, see
tests/oracles.py); every certificate the engine emits is re-evaluated here
by plain polynomial arithmetic.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from support import fraction_divide, monic, random_poly
from zariski.fields import GF, QQ
from zariski.groebner import (
    GroebnerBasis,
    divide,
    groebner,
    ideal_contains_one,
    normal_form,
    unit_ideal_certificate,
)
from zariski.parsing import parse_poly, parse_ring
from zariski.polynomials import MonomialOrder, Poly, PolyRing


def _ring_for(modulus, names=("x", "y"), order="grevlex"):
    field = QQ if modulus == 0 else GF(modulus)
    return PolyRing(field, list(names), MonomialOrder(order))


def _parse_sympy(text, ring):
    return parse_poly(text.replace("**", "^"), ring)


def test_reduced_bases_match_the_frozen_oracle():
    for (order, modulus, gens), expected in O.FROZEN_GROEBNER.items():
        names = ("x", "y") if any("y" in g for g in gens) else ("x",)
        ring = _ring_for(modulus, names, order)
        gb = groebner([_parse_sympy(g, ring) for g in gens], ring)
        got = {monic(p) for p in gb.basis}
        want = {monic(_parse_sympy(e, ring)) for e in expected}
        assert got == want, (order, modulus, gens)


def test_basis_cofactors_reevaluate_exactly():
    ring, rels = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gens = [x**2 + y**2 - 1, x * y - 1, x**3]
    gb = GroebnerBasis(ring, gens)
    assert len(gb.cofactors) == len(gb.basis)
    for b, row in zip(gb.basis, gb.cofactors):
        acc = ring.zero
        for c, g in zip(row, gens):
            acc = acc + c * g
        assert acc == b


def test_membership_certificates_reevaluate_exactly():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gens = [x**2 - x, x * y]
    gb = GroebnerBasis(ring, gens)
    f = x**2 * y + x**3 - x**2  # = (x + y) * (x^2 - x) + x * (x*y)
    cofs = gb.member(f)
    assert cofs is not None
    acc = ring.zero
    for c, g in zip(cofs, gens):
        acc = acc + c * g
    assert acc == f
    assert gb.member(x) is None
    assert gb.member(ring.zero) is not None


def test_unit_certificates_reevaluate_exactly():
    ring, _ = parse_ring("QQ[x]")
    (x,) = ring.gens()
    gens = [x, x - 1]
    cofs = unit_ideal_certificate(gens, ring)
    assert cofs is not None
    acc = ring.zero
    for c, g in zip(cofs, gens):
        acc = acc + c * g
    assert acc == ring.one
    assert ideal_contains_one(gens, ring)
    assert not ideal_contains_one([x], ring)
    assert unit_ideal_certificate([x], ring) is None


def test_division_identity_and_irreducible_remainder():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    basis = [x * x - y, x * y - 1]
    f = x**4 + x * y + y**3
    quots, rem = divide(f, basis, want_quotients=True)
    acc = rem
    for q, b in zip(quots, basis):
        acc = acc + q * b
    assert acc == f
    for mono, _ in rem.terms.items():
        for b in basis:
            lead = b.lead_monomial()
            assert not all(m >= l for m, l in zip(mono, lead))


def test_normal_form_is_idempotent_and_detects_membership():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gb = groebner([x**2 - 1, x * y - 1], ring)
    f = x**3 * y - x
    nf = gb.normal_form(f)
    assert gb.normal_form(nf) == nf
    assert gb.normal_form(x * x - 1).is_zero()
    # x - y lies in the ideal (frozen lex basis says so)
    assert gb.normal_form(x - y).is_zero()
    assert not gb.normal_form(x + y).is_zero()


def test_trivial_ideal_detection():
    ring, _ = parse_ring("GF(5)[x]")
    (x,) = ring.gens()
    assert groebner([x, x + 1], ring).contains_one()
    cofs = GroebnerBasis(ring, [x, x + 1]).member(ring.one)
    acc = ring.zero
    for c, g in zip(cofs, [x, x + 1]):
        acc = acc + c * g
    assert acc == ring.one
    assert groebner([], ring).basis == ()
    assert not groebner([], ring).contains_one()


def test_same_input_gives_identical_output():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gens = [x**2 + y**2 - 1, x * y, y**3 - x]
    a = groebner(gens, ring)
    b = groebner(gens, ring)
    assert a.basis == b.basis
    assert a.cofactors == b.cofactors


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_combinations_are_members_with_exact_certificates(seed):
    rng = random.Random(seed)
    ring = PolyRing(GF(7), ["x", "y"])
    gens = [random_poly(rng, ring) for _ in range(2)]
    gb = GroebnerBasis(ring, gens)
    f = random_poly(rng, ring) * gens[0] + random_poly(rng, ring) * gens[1]
    cofs = gb.member(f)
    assert cofs is not None
    acc = ring.zero
    for c, g in zip(cofs, gens):
        acc = acc + c * g
    assert acc == f


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normal_form_respects_ideal_congruence(seed):
    rng = random.Random(seed)
    ring = PolyRing(QQ, ["x", "y"])
    gens = [random_poly(rng, ring) for _ in range(2)]
    gb = GroebnerBasis(ring, gens)
    f = random_poly(rng, ring)
    g = random_poly(rng, ring)
    # congruent polynomials have equal normal forms
    assert gb.normal_form(f + gens[0] * g) == gb.normal_form(f)
    # and normal_form is linear
    assert gb.normal_form(f + g) == gb.normal_form(gb.normal_form(f) + gb.normal_form(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 2, 7]))
def test_normal_form_is_the_division_remainder(seed, modulus):
    rng = random.Random(seed)
    ring = _ring_for(modulus)
    gens = [random_poly(rng, ring) for _ in range(rng.randint(1, 3))]
    gb = GroebnerBasis(ring, gens)
    for f in (random_poly(rng, ring), random_poly(rng, ring) * gens[0]):
        assert gb.normal_form(f) == divide(f, gb.basis, want_quotients=False)[1]


def test_a_reduced_polynomial_is_its_own_normal_form_without_division(monkeypatch):
    ring, _ = parse_ring("GF(5)[x,y]")
    x, y = ring.gens()
    gb = groebner([x**2 - 1, y**2 - x], ring)
    calls = []

    def counting_divide(*args, **kwargs):
        calls.append(args)
        return divide(*args, **kwargs)

    monkeypatch.setattr(sys.modules[GroebnerBasis.__module__], "divide", counting_divide)
    for f in (x * y + 3 * y + 2, ring.zero, ring.one, x):
        assert gb.normal_form(f) is f
    assert calls == []
    # one divisible term is enough to divide
    assert gb.normal_form(x * y + x**2) == x * y + 1
    assert len(calls) == 1


def _coefficients(char):
    """Nonzero scalars: over QQ fractional and negative ones, so leading
    coefficients come non-monic, negative and with denominators."""
    if char == 0:
        return st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))
    return st.integers(1, char - 1)


def _terms(char, max_exp, max_terms):
    monos = st.tuples(*[st.integers(0, max_exp)] * 3)
    return st.dictionaries(monos, _coefficients(char), max_size=max_terms)


def _term_list(f):
    return [(m, type(c), c) for m, c in f.terms.items()]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_divide_takes_the_steps_of_division_over_the_field(data):
    """The integer loop returns what the division on ``Fraction``s (over
    GF(p), on residues) returns: the same quotients and remainder, term for
    term, in the same order and as the same scalar type."""
    char = data.draw(st.sampled_from([0, 0, 2, 7, 32003]))
    order = data.draw(st.sampled_from([MonomialOrder("grevlex"), MonomialOrder("lex")]))
    ring = PolyRing(QQ if char == 0 else GF(char), ["x", "y", "z"], order)
    f = ring.from_terms(data.draw(_terms(char, 4, 10)))
    divisors = [
        ring.zero if data.draw(st.integers(0, 4)) == 0
        else ring.from_terms(data.draw(_terms(char, 2, 4)))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    quots, rem = divide(f, divisors)
    ref_quots, ref_rem = fraction_divide(f, divisors)
    assert _term_list(rem) == _term_list(ref_rem)
    assert [_term_list(q) for q in quots] == [_term_list(q) for q in ref_quots]
    none, rem_only = divide(f, divisors, want_quotients=False)
    assert none is None and _term_list(rem_only) == _term_list(ref_rem)


def test_each_divisor_keeps_its_integer_form():
    """A basis element is lifted to integers on its first use as a divisor
    and keeps that form; the form belongs to the ``Poly`` and its ring's
    order, not to its terms."""
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gb = groebner([2 * x**2 - y.scale(Fraction(1, 3)), y**3 * -5 - x.scale(Fraction(2))], ring)
    assert [b._div for b in gb.basis] == [None, None]
    f = 3 * x**2 + 5 * y**3 + x * y
    nf = gb.normal_form(f)
    forms = [b._div for b in gb.basis]
    assert forms == [(6, 6, [((0, 1), -1)]), (5, 5, [((1, 0), 2)])]  # x^2 - y/6, y^3 + 2x/5
    assert gb.normal_form(f) == nf and gb.member(f - nf) is not None
    assert all(b._div is form and b._division_form() is form for b, form in zip(gb.basis, forms))
    # the same terms in a lex ring lead with x^2, not y^3
    g = ring.from_terms({(2, 0): Fraction(-3), (0, 3): Fraction(1, 2)})
    assert g._division_form() == (2, 1, [((2, 0), -6)])
    h = Poly(PolyRing(QQ, ["x", "y"], MonomialOrder("lex")), g.terms)
    assert h._lm is None and h._div is None
    assert h.lead_monomial() == (2, 0)
    assert h._division_form() == (-2, 6, [((0, 3), -1)])  # (6x^2 - y^3) / -2
    assert g.lead_monomial() == (0, 3) and g._division_form() == (2, 1, [((2, 0), -6)])
    # over GF(7): 3x^2 + y == (x^2 + 5y) / 5, since 5 is the inverse of 3
    u, v = parse_ring("GF(7)[u,v]")[0].gens()
    assert (3 * u**2 + v)._division_form() == (5, 1, [((0, 1), 5)])
