"""Finitely presented algebras: quotients, morphisms, localizations."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles as O
from support import (
    exhaustive_homs,
    finite_algebras,
    gf3_split,
    gf5_circle,
    gf5_hyperbola,
    product_of_points,
    qq_triple_point,
    qq_x,
    qq_xy,
    random_element,
    random_poly,
    tuple_lead,
    tuple_staircase,
)
from zariski import algebra
from zariski.algebra import (
    POWER_CAP,
    AlgebraMorphism,
    ExtractionCapError,
    PresentedAlgebra,
    enumerate_homs,
    extract_fraction,
    make_localization,
    morphism,
    try_extend,
)
from zariski.fields import GF, QQ
from zariski.groebner import GroebnerBasis
from zariski.latscheme import projective_line, punctured_plane
from zariski.parsing import parse_ring
from zariski.polynomials import MonomialOrder, PolyRing


# -- quotient arithmetic ------------------------------------------------------


def test_normal_forms_in_a_quotient():
    A = qq_triple_point()  # QQ[x]/(x^3 - x)
    x = A.var(0)
    assert x**3 == x
    assert x**5 == x**3 * x * x == x**3  # folds down to x via x^3 = x
    assert (x**2 - 1) * x == A.zero
    assert str(A) == "QQ[x]/(x^3 - x)"


def test_element_arithmetic_and_coercion():
    A = gf3_split()
    e = A.var(0)
    assert e * e == e
    assert (1 - e) * e == A.zero
    assert 2 * e + e == A.zero
    assert (e + 1) ** 2 == e * e + 2 * e + 1 == e + 2 * e + 1 == 1
    assert A.element(5) == A.const(5) == A.element(2)


def test_trivial_algebra_detection():
    A = qq_x()
    assert not A.is_trivial()
    x = A.var(0)
    B = A.with_relations([x.poly, (x - 1).poly])
    assert B.is_trivial()
    assert B.one == B.zero


def test_staircase_and_enumeration_match_frozen_sizes():
    assert len(tuple_staircase(qq_triple_point())) == O.FROZEN_STAIRCASE["QQ[x]/(x^3 - x)"]
    split = gf3_split()
    assert len(tuple_staircase(split)) == O.FROZEN_STAIRCASE["GF(3)[e]/(e^2 - e)"]
    elems = split.enumerate_elements()
    assert len(elems) == O.FROZEN_ALGEBRA_SIZE["GF(3)[e]/(e^2 - e)"]
    assert len(set(elems)) == len(elems)
    ring = PolyRing(GF(5), ["x"])
    (x,) = ring.gens()
    A = PresentedAlgebra(ring, [x * x - ring.const(2)])
    assert len(A.enumerate_elements()) == O.FROZEN_ALGEBRA_SIZE["GF(5)[x]/(x^2 - 2)"]
    with pytest.raises(ValueError):
        qq_x().enumerate_elements()  # infinite coefficient field


# -- ideal and radical membership ---------------------------------------------


def _element_from_dict(A, terms):
    ring = A.ring
    p = ring.zero
    for mono, coeff in terms.items():
        m = ring.one
        for i, e in enumerate(mono):
            m = m * ring.var(i) ** e
        p = p + m.scale(coeff)
    return A.element(p)


def test_radical_membership_matches_the_certified_oracle_instances():
    for name, f, n, cofs, gens, nvars in O.RADICAL_POSITIVE:
        A = PresentedAlgebra(PolyRing(QQ, ["x", "y"][:nvars]))
        fe = _element_from_dict(A, f)
        ge = [_element_from_dict(A, g) for g in gens]
        assert A.radical_member(fe, ge), name


def test_radical_membership_matches_the_refuted_oracle_instances():
    for name, point, f, gens, p in O.RADICAL_NEGATIVE:
        field = QQ if p == 0 else GF(p)
        names = ["x", "y"][: len(point)]
        A = PresentedAlgebra(PolyRing(field, names))
        fe = _element_from_dict(A, f)
        ge = [_element_from_dict(A, g) for g in gens]
        assert not A.radical_member(fe, ge), name


def test_radical_membership_sees_through_relations():
    A = gf3_split()
    e = A.var(0)
    # on the component where e = 1, the complement vanishes
    assert A.radical_member(A.one, [e, 1 - e])
    assert not A.radical_member(A.one, [e])
    assert A.radical_member(e, [e * e])


@st.composite
def _radical_questions(draw):
    """A presented algebra in 1-3 variables with 0-2 relations over QQ or
    GF(2), GF(3), GF(5), under grevlex or lex, a nonzero f that is a
    constant about half the time, and generators: 0-2 random ones, or by
    turns f^2 * (1 + h) and at most one random one, a pair g, 1 - g, or one
    g that the relations make a unit, so that both verdicts come up.  A
    random polynomial has at most 3 terms, of degree at most 2: a larger
    degree can stall sympy's Groebner basis for minutes."""
    char = draw(st.sampled_from([0, 2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    if char:
        coeffs = st.integers(1, char - 1)
    else:
        coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    ring = PolyRing(QQ if char == 0 else GF(char), ["x", "y", "z"][:nvars],
                    MonomialOrder(draw(st.sampled_from(["grevlex", "lex"]))))
    monomials = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    terms = st.dictionaries(st.sampled_from(monomials), coeffs, max_size=3)
    polys = st.builds(ring.from_terms, terms)
    constants = st.builds(ring.from_terms, st.dictionaries(st.just((0,) * nvars), coeffs, min_size=1))
    nonconstant = polys.filter(lambda p: not p.is_constant())
    f = draw(st.one_of(constants, nonconstant))
    rels, gens = draw(st.lists(polys, max_size=2)), draw(st.lists(polys, max_size=2))
    hint = draw(st.sampled_from(["none", "power", "unit", "unit in A"]))
    # two random generators mostly span the unit ideal already, so each
    # hint keeps at most one of them
    if hint == "power":
        gens = gens[:1] + [f**2 * (ring.one + draw(polys))]
    elif hint == "unit":
        g = draw(nonconstant)
        gens = [g, ring.one - g]
    elif hint == "unit in A":  # g*h = 1 only modulo the relations
        g = draw(nonconstant)
        gens, rels = [g], rels[:1] + [g * draw(nonconstant) - ring.one]
    return ring, rels, f, gens


@settings(max_examples=120, deadline=None)
@given(_radical_questions())
def test_radical_membership_agrees_with_sympy_on_random_algebras(question):
    """f is in the radical of (gens) in A = k[x]/(rels) iff sympy's reduced
    basis of the Rabinowitsch ideal (rels, gens, 1 - w*f) is 1."""
    ring, rels, f, gens = question
    syms = sympy.symbols(ring.names)
    w = sympy.Symbol("w")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(syms, m)])
                   for m, c in p.terms.items())

    char = ring.field.char
    ideal = [expr(g) for g in rels + gens] + [1 - w * expr(f)]
    modulus = {"modulus": char} if char else {}
    basis = sympy.groebner(ideal, *syms, w, order="grevlex", method="f5b", **modulus)
    A = PresentedAlgebra(ring, rels)
    got = A.radical_member(A.element(f), [A.element(g) for g in gens])
    assert got == (list(basis.exprs) == [1])


def test_a_second_radical_query_builds_no_ring_and_packs_no_monomial(monkeypatch):
    """An algebra builds its Rabinowitsch ring and lifts its relations once
    (``"rabinowitsch"``); a grevlex algebra's query polynomials carry over
    into that ring as they are, for a constant f as for any other."""
    A = gf5_circle()
    x, y = A.gens()
    assert A.radical_member(x * y, [x])
    rings, packs = [], []
    init, pack = PolyRing.__init__, PolyRing._pack
    monkeypatch.setattr(PolyRing, "__init__", lambda self, *a: rings.append(a) or init(self, *a))
    monkeypatch.setattr(PolyRing, "_pack", lambda self, m: packs.append(m) or pack(self, m))
    assert not A.radical_member(x, [y])  # (1, 0) lies on the circle
    assert A.radical_member(A.one, [x, y])
    monkeypatch.undo()
    assert rings == packs == []


def test_ideal_membership_certificates_reevaluate():
    A = qq_xy()
    x, y = A.gens()
    gb = GroebnerBasis(A.ring, ((x * x + 1).poly,) + A.relations)
    row = gb.member((x * x * y + y).poly)
    assert row is not None
    assert A.element(row[0]) * (x * x + 1) == x * x * y + y
    assert gb.member(x.poly) is None


def test_unit_certificates_reevaluate():
    A = qq_x()
    x = A.var(0)
    cofs = A.unit_certificate([x, x - 2])
    assert cofs is not None
    assert cofs[0] * x + cofs[1] * (x - 2) == A.one
    assert A.unit_certificate([x]) is None


def test_try_invert_returns_exact_inverses():
    A = qq_triple_point()
    x = A.var(0)
    u = 2 * x * x - 1  # squares to 4x^4 - 4x^2 + 1 = 4x^2 - 4x^2 + 1 = 1
    inv = A.try_invert(u)
    assert inv is not None
    assert u * inv == A.one
    assert A.try_invert(x) is None  # vanishes at the 0 point
    B = gf5_hyperbola()
    xb, yb = B.gens()
    assert B.try_invert(xb) == yb


# -- morphisms ------------------------------------------------------------------


def test_morphism_validity_is_checked_on_relations():
    A = qq_triple_point()
    B = qq_x()
    xb = B.var(0)
    with pytest.raises(ValueError):
        morphism(A, B, [xb])  # x^3 - x does not vanish on x
    ok = morphism(A, B, [B.zero])
    assert ok(A.var(0)) == B.zero
    raw = AlgebraMorphism(A, B, [xb])  # raw constructor skips validation
    assert not raw.is_valid()


def test_variables_and_constants_map_as_substitution_does():
    source = PresentedAlgebra(PolyRing(GF(3), ["x", "y"]))
    x, y = source.ring.gens()
    polys = [x, y, source.ring.zero, source.ring.one, source.ring.const(2), 2 * x, x * y + 1]
    for text in ["GF(3)[t]/(t^2 + 1)", "GF(3)[t]/(t^2)", "GF(3)[t]/(t, t - 1)"]:
        B = PresentedAlgebra(*parse_ring(text))
        t = B.var(0)
        phi = AlgebraMorphism(source, B, [t + 1, 2 * t])
        for p in polys:
            assert phi._apply(p) == B.element(p.substitute(phi._polys, B.ring)), (text, p)


def test_a_bare_variable_or_constant_relation_is_still_checked():
    A = PresentedAlgebra(*parse_ring("GF(3)[x]/(x)"))
    B = PresentedAlgebra(*parse_ring("GF(3)[t]/(t^2 + 1)"))
    with pytest.raises(ValueError, match="relation x maps to 1"):
        morphism(A, B, [B.one])
    assert morphism(A, B, [B.zero]).is_valid()
    ring = PolyRing(GF(3), ["x"])
    zero_ring = PresentedAlgebra(ring, [ring.one])
    with pytest.raises(ValueError, match="relation 1 maps to 1"):
        morphism(zero_ring, B, [B.var(0)])
    trivial = PresentedAlgebra(*parse_ring("GF(3)[t]/(t, t - 1)"))
    assert morphism(zero_ring, trivial, [trivial.zero]).is_valid()


def test_morphism_composition_and_equality():
    A = qq_x()
    x = A.var(0)
    double = morphism(A, A, [2 * x])
    square = morphism(A, A, [x * x])
    both = double.then(square)  # first double, then square
    assert both(x) == 2 * x * x  # square(2x) = 2*square(x)
    assert double == morphism(A, A, [x + x])
    assert double != square
    ident = AlgebraMorphism.identity(A)
    assert ident.then(double) == double
    assert double.then(ident) == double


def test_hom_enumeration_matches_frozen_counts():
    F3 = PresentedAlgebra(PolyRing(GF(3), []))
    assert (
        len(enumerate_homs(gf3_split(), F3))
        == O.FROZEN_HOM_COUNTS[("GF(3)[e]/(e^2 - e)", "GF(3)")]
    )
    F5 = PresentedAlgebra(PolyRing(GF(5), []))
    assert (
        len(enumerate_homs(gf5_hyperbola(), F5))
        == O.FROZEN_HOM_COUNTS[("GF(5)[x,y]/(x*y - 1)", "GF(5)")]
    )
    assert (
        len(enumerate_homs(gf5_circle(), F5))
        == O.FROZEN_HOM_COUNTS[("GF(5)[x,y]/(x^2 + y^2 - 1)", "GF(5)")]
    )
    with pytest.raises(ValueError):
        enumerate_homs(gf3_split(), F5)


def test_homs_into_a_product_split_into_components():
    # GF(3) x GF(3), presented by an idempotent
    B = gf3_split()
    A = PresentedAlgebra(PolyRing(GF(3), ["x"]))
    homs = enumerate_homs(A, B)
    assert len(homs) == 9  # one element of B per hom
    for phi in homs:
        assert phi.is_valid()


def _quotient(p, names, rels):
    ring = PolyRing(GF(p), names)
    return PresentedAlgebra(ring, [rel(*ring.gens()) for rel in rels])


def _hom_targets(p):
    """GF(p), GF(p)[t]/(t^2) (a zero divisor t), and GF(p)[t]/(t^2 - t)."""
    return [
        PresentedAlgebra(PolyRing(GF(p), [])),
        _quotient(p, ["t"], [lambda t: t * t]),
        _quotient(p, ["t"], [lambda t: t * t - t]),
    ]


def _hom_sources(p):
    sources = [PresentedAlgebra(PolyRing(GF(p), ["x", "y"])), product_of_points(p, 2)]
    if p == 3:
        sources.append(gf3_split())
        for X in (projective_line(GF(p)), punctured_plane(GF(p))[0]):
            sources.extend(X.charts)
    if p == 5:
        sources += [gf5_circle(), gf5_hyperbola()]
    return sources


@pytest.mark.parametrize("p", [3, 5])
def test_hom_search_matches_the_exhaustive_search_on_the_fixtures(p):
    for A in _hom_sources(p):
        for B in _hom_targets(p):
            assert enumerate_homs(A, B) == exhaustive_homs(A, B), (A, B)


def test_hom_search_enumerates_a_variable_whose_coefficient_is_a_zero_divisor():
    # x*y - x is linear in y with coefficient x; x -> t makes it a zero divisor
    A = _quotient(3, ["x", "y"], [lambda x, y: x * y - x])
    B = _quotient(3, ["t"], [lambda t: t * t])
    homs = enumerate_homs(A, B)
    assert homs == exhaustive_homs(A, B)
    # t*(y - 1) = 0 leaves y = 1 + a*t for each a in GF(3)
    assert sum(1 for h in homs if h.images[0] == B.var(0)) == 3
    # over GF(3)[e]/(e^2 - e), x -> e leaves y in 1 + (1 - e)*GF(3): the
    # solve finds 1, e, 2 + 2*e, listed in element order as e, 1, 2 + 2*e
    E = _quotient(3, ["e"], [lambda e: e * e - e])
    homs = enumerate_homs(A, E)
    assert homs == exhaustive_homs(A, E)
    e = E.var(0)
    assert [h.images[1] for h in homs if h.images[0] == e] == [e, E.one, 2 + 2 * e]


def test_hom_search_inverts_each_coefficient_value_once(monkeypatch):
    # the chart relation y*z - 1 is solved for z once per (x, y) branch; the
    # target remembers its inverses, so each value of y is certified once
    A = _quotient(3, ["x", "y", "z"], [lambda x, y, z: y * z - 1])
    B = _quotient(3, ["t"], [lambda t: t * t + 1])
    calls = []
    inner = PresentedAlgebra.unit_certificate

    def counted(self, gens):
        calls.append(tuple(gens))
        return inner(self, gens)

    monkeypatch.setattr(PresentedAlgebra, "unit_certificate", counted)
    homs = enumerate_homs(A, B)
    monkeypatch.undo()
    assert homs == exhaustive_homs(A, B)
    assert len(homs) == 9 * 8
    assert len(calls) == len(set(calls)) == 9  # once per value of y, not per (x, y)


@st.composite
def _small_presentations(draw):
    """A source with 1-2 variables and up to two relations over GF(2) or
    GF(3), and a target GF(p)[t]/(m) with m monic of degree 1 or 2."""
    p = draw(st.sampled_from([2, 3]))
    names = ["x", "y"][: draw(st.integers(1, 2))]
    ring = PolyRing(GF(p), names)
    monomials = st.tuples(*[st.integers(0, 2)] * len(names))
    coefficients = st.integers(1, p - 1)
    rels = draw(
        st.lists(
            st.dictionaries(monomials, coefficients, min_size=1, max_size=3),
            max_size=2,
        )
    )
    # half the time, a relation c*y + d that the search can solve for y
    if len(names) == 2 and draw(st.booleans()):
        c = draw(st.sampled_from([ring.one, ring.var(0), ring.var(0) + ring.one]))
        rels.append((c * ring.var(1) - ring.var(0) ** 2).terms)
    source = PresentedAlgebra(ring, [ring.from_terms(r) for r in rels])
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2))
    t_ring = PolyRing(GF(p), ["t"])
    (t,) = t_ring.gens()
    m = t ** len(coeffs)
    for k, c in enumerate(coeffs):
        m = m + (t**k).scale(c)
    return source, PresentedAlgebra(t_ring, [m])


@settings(max_examples=40, deadline=None)
@given(_small_presentations())
def test_hom_search_matches_the_exhaustive_search_on_random_presentations(pair):
    source, target = pair
    assert enumerate_homs(source, target) == exhaustive_homs(source, target)


@st.composite
def _solvable_sources(draw, p, nvars):
    """A source over GF(p) in x, y and, for ``nvars == 3``, z, whose later
    variables each get a separated relation h(v) + s, a relation c*v + d, or
    both: h monic of degree 2 or 3, and s, d and c polynomials in the earlier
    variables, c often a multiple of x, so that its value is a unit, a zero
    divisor or zero by turns."""
    ring = PolyRing(GF(p), ["x", "y", "z"][:nvars])
    gens = ring.gens()

    def earlier(k):  # a polynomial in the variables before gens[k]
        exponents = st.tuples(*[st.integers(0, 2)] * k, *[st.just(0)] * (nvars - k))
        return ring.from_terms(draw(st.dictionaries(exponents, st.integers(1, p - 1), max_size=3)))

    rels = []
    for k in range(1, nvars):
        v = gens[k]
        kinds = draw(st.sets(st.sampled_from(["separated", "linear"]), min_size=1))
        if "separated" in kinds:
            rels.append(v ** draw(st.integers(2, 3)) + v.scale(draw(st.integers(0, p - 1))) + earlier(k))
        if "linear" in kinds:
            rels.append((gens[0] * earlier(k) + earlier(k)) * v + earlier(k))
    return PresentedAlgebra(ring, rels)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_search_matches_the_exhaustive_search_on_solvable_relations(data):
    # finite_algebras draws nilpotents, products and the zero ring; the
    # exhaustive search checks |B|**nvars assignments, so B stays small
    nvars = data.draw(st.integers(2, 3))
    target = data.draw(finite_algebras(max_size=25 if nvars == 2 else 9))
    source = data.draw(_solvable_sources(target.field.char, nvars))
    assert enumerate_homs(source, target) == exhaustive_homs(source, target)


def test_hom_search_evaluates_a_separated_relation_once_per_element(monkeypatch):
    # y^2 - x^3 - 1 over B = GF(5)[t]/(t^2), |B| = 25: y^2 is evaluated once
    # on each element, -x^3 - 1 once per value of x, and the relation never,
    # as the join solved it, where a scan would check all |B|**2 = 625 pairs
    A = _quotient(5, ["x", "y"], [lambda x, y: y * y - x**3 - 1])
    B = _quotient(5, ["t"], [lambda t: t * t])
    x, y = A.ring.gens()
    calls = []
    inner = algebra._evaluate

    def counted(p, *rest):
        calls.append(p)
        return inner(p, *rest)

    monkeypatch.setattr(algebra, "_evaluate", counted)
    homs = enumerate_homs(A, B)
    monkeypatch.undo()
    assert homs == exhaustive_homs(A, B)
    assert len(homs) == 25
    assert calls.count(y * y) == calls.count(-(x**3) - 1) == 25
    assert calls.count(A.relations[0]) == 0
    assert len(calls) == 50


# -- localization ---------------------------------------------------------------


def test_localization_inverts_exactly_the_denominator():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    assert loc.to_loc(x) * loc.inverse == loc.algebra.one
    assert make_localization(A, x) is loc  # memoized
    assert loc.algebra.nvars == 2
    s = loc.to_loc(x * x + x) * loc.inverse  # (x^2 + x)/x = x + 1
    assert s == loc.to_loc(x + 1)


def test_localization_at_a_unit_changes_nothing_visible():
    A = qq_triple_point()
    u = 2 * A.var(0) ** 2 - 1
    loc = make_localization(A, u)
    assert not loc.algebra.is_trivial()
    # 1/u agrees with the inverse already present in A
    assert loc.to_loc(A.try_invert(u)) == loc.inverse


def test_localization_at_zero_is_trivial():
    A = qq_x()
    loc = make_localization(A, A.zero)
    assert loc.algebra.is_trivial()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_triviality_is_read_off_the_reduced_basis(field):
    """``is_trivial`` agrees with reducing 1 to 0 on zero rings (a constant
    relation, monic or not, or coprime ones), zero ideals, a proper ideal
    and localizations at a unit, a zero divisor, a nilpotent and zero."""
    R0, R = PolyRing(field, []), PolyRing(field, ["x", "y"])
    x, y = R.gens()
    cases = [
        (PresentedAlgebra(R0, [R0.one]), True),
        (PresentedAlgebra(R0, [R0.const(3)]), True),
        (PresentedAlgebra(R0), False),
        (PresentedAlgebra(R, [x.scale(3) + 1]), False),
        (PresentedAlgebra(R, [x, x - 1]), True),
        (PresentedAlgebra(R), False),
    ]
    A = PresentedAlgebra(R, [x * x - x, y * y])
    for f, trivial in ((A.one, False), (A.var(0), False), (A.var(1), True), (A.zero, True)):
        cases.append((make_localization(A, f).algebra, trivial))
    for B, trivial in cases:
        assert B.is_trivial() == trivial == B.gb.contains_one(), B
        assert trivial == B.gb.normal_form(B.ring.one).is_zero(), B


def test_extract_fraction_finds_least_power():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    num, k = extract_fraction(loc, loc.inverse)
    assert (num, k) == (A.one, 1)
    num, k = extract_fraction(loc, loc.to_loc(x + 1))
    assert (num, k) == (x + 1, 0)
    s = loc.to_loc(x**2 + 1) * loc.inverse**2  # (x^2+1)/x^2, already in lowest f-power form
    num, k = extract_fraction(loc, s)
    assert k == 2 and num == x**2 + 1
    # the defining identity: num / f^k == s, i.e. num = s * f^k in A_f
    assert loc.to_loc(num) == s * loc.to_loc(x) ** 2


def test_extract_fraction_cap_guards_nontermination():
    A = qq_xy()
    x, y = A.gens()
    loc = make_localization(A, x)
    # y / x^k needs k multiplications: one past the cap must fail loudly
    with pytest.raises(ExtractionCapError, match=f"within {POWER_CAP} powers of x$"):
        extract_fraction(loc, loc.to_loc(y) * loc.inverse ** (POWER_CAP + 1))
    num, k = extract_fraction(loc, loc.to_loc(y) * loc.inverse**POWER_CAP)
    assert (num, k) == (y, POWER_CAP)


def test_extract_fraction_at_units_of_a_localization_of_a_localization():
    """Both inverse variables are eliminated: in QQ[t]/(t^2 - 2) localized at
    t and then at t + 1, both units, 1/(t(t+1)) comes from A at power 0."""
    A = PresentedAlgebra(*parse_ring("QQ[t]/(t^2 - 2)"))
    t = A.var(0)
    inner = make_localization(A, t)
    outer = make_localization(inner.algebra, inner.to_loc(t + 1))
    assert outer.algebra.ring.order == MonomialOrder().eliminating().eliminating()
    s = outer.inverse * outer.to_loc(inner.inverse)
    assert not s.poly.involves(outer.inv_index)
    assert not s.poly.involves(inner.inv_index)
    r, k = extract_fraction(outer, s)
    assert k == 0 and outer.to_loc(r) == s
    a, j = extract_fraction(inner, r)
    assert j == 0 and inner.to_loc(a) == r
    assert a * t * (t + 1) == A.one


@settings(max_examples=25, deadline=None)
@given(finite_algebras(max_size=27), st.integers(0, 2))
def test_the_packed_staircase_is_the_tuple_box(B, which):
    """``_stairs`` lists, in increasing order, the monomials of the box
    below the leading monomials that none of them divides: on random finite
    algebras, their lex presentations and a localization of each."""
    x = B.var(0)
    f = (x, x + 1, x * x - 1)[which].poly
    lex = B.ring.with_vars([], MonomialOrder("lex"))
    algebras = [B, PresentedAlgebra(lex, [B.ring.lift(r, lex) for r in B.relations])]
    for A in list(algebras):
        algebras.append(make_localization(A, A.element(B.ring.lift(f, A.ring))).algebra)
    for A in algebras:
        expected = [] if A.is_trivial() else tuple_staircase(A)
        assert [A.ring._mono(m) for m in A._stairs()] == expected


def test_a_localization_keeps_a_lex_base_order_inside_its_block():
    A = PresentedAlgebra(*parse_ring("QQ[x,y]", MonomialOrder("lex")))
    R = make_localization(A, A.var(1)).algebra.ring
    assert R.order == MonomialOrder("lex").eliminating()

    def outranks(a, b):
        return tuple_lead(R.from_terms({a: 1, b: 1})) == a

    # within one power of the inverse, lex: x outranks every power of y
    assert outranks((1, 0, 0), (0, 5, 0))
    assert outranks((1, 0, 2), (0, 5, 2))
    # any power of the inverse outranks every monomial free of it
    assert outranks((0, 0, 1), (9, 9, 0))


def test_extension_to_a_localization_validates_the_inverse():
    A = qq_x()
    loc = make_localization(A, A.var(0))
    C = PresentedAlgebra(PolyRing(QQ, ["u", "v"]))
    u, v = C.gens()
    Cuv = C.with_relations([(u * v - 1).poly])
    phi = try_extend(loc, morphism(A, Cuv, [Cuv.var(0)]))
    assert phi(loc.inverse) == Cuv.var(1)
    assert phi == morphism(loc.algebra, Cuv, Cuv.gens())
    assert try_extend(loc, morphism(A, C, [u])) is None  # u is not a unit of C
    with pytest.raises(ValueError):
        morphism(loc.algebra, C, [u, v])  # u*v != 1 in C


# -- randomized consistency -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_quotient_arithmetic_is_congruence_stable(seed):
    rng = random.Random(seed)
    A = qq_triple_point()
    a = random_element(rng, A)
    b = random_element(rng, A)
    rel = A.element(random_poly(rng, A.ring)) * A.element(A.relations[0])
    assert rel.is_zero()
    assert (a + rel) * b == a * b
    assert a + rel == a


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extract_round_trips_random_fractions(seed):
    rng = random.Random(seed)
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    num = random_element(rng, A)
    power = rng.randint(0, 4)
    s = loc.to_loc(num) * loc.inverse**power
    got_num, got_k = extract_fraction(loc, s)
    assert got_k <= power
    assert loc.to_loc(got_num) == s * loc.to_loc(x) ** got_k


@st.composite
def _fractions_in_localizations(draw):
    """A = GF(p)[x] or GF(p)[x, y] over GF(2), GF(3) or GF(5), modulo at most
    one relation; an element f of A, unit, zero divisor or zero; and an
    element s of A_f, drawn in the ring of A_f with 1/f up to the cube."""
    p = draw(st.sampled_from([2, 3, 5]))
    ring = PolyRing(GF(p), ["x", "y"][: draw(st.integers(1, 2))])

    def poly(r):
        monomials = st.tuples(*[st.integers(0, 3)] * r.nvars)
        return r.from_terms(draw(st.dictionaries(monomials, st.integers(1, p - 1), max_size=3)))

    A = PresentedAlgebra(ring, [poly(ring) for _ in range(draw(st.integers(0, 1)))])
    loc = make_localization(A, A.element(poly(ring)))
    return loc, loc.algebra.element(poly(loc.algebra.ring))


@settings(max_examples=200, deadline=None)
@given(_fractions_in_localizations())
def test_extract_fraction_writes_every_element_of_a_localization(case):
    loc, s = case
    r, k = extract_fraction(loc, s)
    assert loc.to_loc(r) * loc.inverse**k == s
