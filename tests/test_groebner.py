"""Groebner bases with exact cofactor certificates.

Expected bases come frozen from an independent implementation (sympy, see
tests/oracles.py); every certificate the engine emits is re-evaluated here
by plain polynomial arithmetic.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from support import random_poly
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
from zariski.polynomials import MonomialOrder, PolyRing


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
        got = {p.monic() for p in gb.basis}
        want = {_parse_sympy(e, ring).monic() for e in expected}
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
    cofs = GroebnerBasis(ring, [x, x + 1]).one_cofactors()
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
