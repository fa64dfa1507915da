"""Groebner bases with exact cofactor certificates.

Expected bases come frozen from an independent implementation (sympy, see
tests/oracles.py); every certificate the engine emits is re-evaluated here
by plain polynomial arithmetic.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from support import fraction_calls, fraction_divide, is_canonical, monic, random_poly, tuple_lead
from zariski import groebner, polynomials
from test_kernel_vs_sympy import _assert_clean
from zariski.fields import GF, QQ
from zariski.groebner import (
    GroebnerBasis,
    divide,
    ideal_contains_one,
    unit_ideal_certificate,
)
from zariski.algebra import PresentedAlgebra
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
        gb = GroebnerBasis(ring, [_parse_sympy(g, ring) for g in gens])
        got = {monic(p) for p in gb.basis}
        want = {monic(_parse_sympy(e, ring)) for e in expected}
        assert got == want, (order, modulus, gens)


def test_a_relation_basis_is_the_basis_without_rows():
    """``groebner._RelationBasis``, the basis of every ``PresentedAlgebra``,
    runs the engine without rows: the basis, its printed text and its leads
    are those of ``GroebnerBasis`` for every frozen system, the unit ideal
    and no relation at all, and it hands out no row it did not compute:
    ``cofactors`` is None and ``member`` refuses."""
    systems = [((order, modulus), gens) for (order, modulus, gens) in O.FROZEN_GROEBNER]
    systems += [(("grevlex", 0), ["x + 1", "x"]), (("lex", 7), [])]
    for (order, modulus), gens in systems:
        ring = _ring_for(modulus, order=order)
        polys = [_parse_sympy(g, ring) for g in gens]
        full, bare = GroebnerBasis(ring, polys), groebner._RelationBasis(ring, polys)
        assert bare.basis == full.basis and bare._leads == full._leads and bare.gens == full.gens
        assert [str(b) for b in bare.basis] == [str(b) for b in full.basis]
        assert bare.cofactors is None and full.cofactors is not None
        with pytest.raises(ValueError, match="keeps no cofactor rows"):
            bare.member(ring.one)
        if polys:
            A = PresentedAlgebra(ring, polys)
            assert A.gb.basis == full.basis and A.gb.cofactors is None


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


def test_rational_generators_give_exact_normalized_certificates():
    """Generators with fractional coefficients: every cofactor row, member
    row and unit certificate re-evaluates exactly, and each of their
    coefficients is a normalized nonzero ``Fraction``."""
    ring, _ = parse_ring("QQ[x,y,z]")
    x, y, z = ring.gens()
    half, third = Fraction(1, 2), Fraction(-2, 3)
    gens = [x**2 * y.scale(half) - z.scale(third), y**2 - x.scale(Fraction(5, 7)) * z, x * z - 3]

    def value(row, gens=gens):
        for c in row:
            _assert_clean(c)
        return sum((c * g for c, g in zip(row, gens)), ring.zero)

    gb = GroebnerBasis(ring, gens)
    for b, row in zip(gb.basis, gb.cofactors):
        _assert_clean(b)
        assert value(row) == b
    for f in (gens[0] * z.scale(third) + gens[2] * y**2, gb.basis[-1] * (x + ring.const(half))):
        assert value(gb.member(f)) == f
    wider = gens + [x.scale(half) - 1, z - ring.const(third)]
    cert = unit_ideal_certificate(wider, ring)
    assert cert is not None and value(cert, wider) == ring.one


def test_division_identity_and_irreducible_remainder():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    basis = [x * x - y, x * y - 1]
    f = x**4 + x * y + y**3
    quots, rem = divide(f, basis)
    acc = rem
    for q, b in zip(quots, basis):
        acc = acc + q * b
    assert acc == f
    for mono, _ in rem.terms.items():
        for b in basis:
            lead = tuple_lead(b)
            assert not all(m >= l for m, l in zip(mono, lead))


def test_normal_form_is_idempotent_and_detects_membership():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gb = GroebnerBasis(ring, [x**2 - 1, x * y - 1])
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
    assert GroebnerBasis(ring, [x, x + 1]).contains_one()
    cofs = GroebnerBasis(ring, [x, x + 1]).member(ring.one)
    acc = ring.zero
    for c, g in zip(cofs, [x, x + 1]):
        acc = acc + c * g
    assert acc == ring.one
    assert GroebnerBasis(ring, []).basis == ()
    assert not GroebnerBasis(ring, []).contains_one()


def test_same_input_gives_identical_output():
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gens = [x**2 + y**2 - 1, x * y, y**3 - x]
    a = GroebnerBasis(ring, gens)
    b = GroebnerBasis(ring, gens)
    assert a.basis == b.basis
    assert a.cofactors == b.cofactors


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_coprime_leads_past_the_exponent_limit_make_no_pair(order):
    """The leading monomials of x^(2^30) - 1 and y^(2^30) - 1 are coprime,
    so Buchberger's first criterion skips their only pair.  Under grevlex
    their product has total degree 2^31, past the exponent limit, and is
    never checked against it."""
    ring = _ring_for(0, order=order)
    x, y = ring.gens()
    gens = [x ** (2**30) - 1, y ** (2**30) - 1]
    gb = GroebnerBasis(ring, gens)
    assert set(gb.basis) == set(gens)
    for g, row in zip(gb.basis, gb.cofactors):
        assert sum((c * f for c, f in zip(row, gens)), ring.zero) == g


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
        assert gb.normal_form(f) == divide(f, gb.basis)[1]


def test_a_reduced_polynomial_is_its_own_normal_form_without_division(monkeypatch):
    ring, _ = parse_ring("GF(5)[x,y]")
    x, y = ring.gens()
    gb = GroebnerBasis(ring, [x**2 - 1, y**2 - x])
    calls = []
    reduce = groebner._reduce

    def counting_reduce(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
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
    # ``normal_form``'s remainder-only division takes the same steps
    none, raw = groebner._reduce(f, divisors, False)
    rem_only = groebner._normalized(ring, raw)
    assert none is None and _term_list(rem_only) == _term_list(ref_rem)


def test_long_divisions_over_qq_take_the_steps_of_division_over_the_field():
    """Long divisions over QQ, where ``divide`` never divides the content
    out of its working polynomial: the quotients and remainder are those
    of the division on ``Fraction``s, term for term.  ``x^150`` by ``3x^2
    + 2x + 1`` takes 149 steps, each one scaled by 3; the other divisors
    lead with 6, 3, 3/5 or -1, some in two variables, over 104 to 570
    steps; and an exact product of fractional factors, whose denominators
    cancel, divides with remainder 0 and its cofactor as quotient."""
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    rng = random.Random(39)

    def fractional(degree, n_terms):
        terms = {}
        for _ in range(n_terms):
            exponents = (rng.randint(0, degree), rng.randint(0, degree))
            terms[exponents] = Fraction(rng.choice([-7, -2, 1, 4, 5]), rng.choice([1, 3, 9]))
        return ring.from_terms(terms)

    def same(f, divisors):
        quots, rem = divide(f, divisors)
        ref_quots, ref_rem = fraction_divide(f, divisors)
        assert _term_list(rem) == _term_list(ref_rem)
        assert [_term_list(q) for q in quots] == [_term_list(q) for q in ref_quots]
        return quots, rem

    quots, rem = same(x**150, [parse_poly("3*x^2 + 2*x + 1", ring)])
    assert len(quots[0].terms) == 149 and len(rem.terms) == 2
    same(x**150 + x**77 * y + ring.const(Fraction(5, 7)), [parse_poly("6*x^3 - 4*x + 1", ring)])
    two = [parse_poly("3*x^2 + 2*y + 1", ring), parse_poly("5*y^2 - x*y + 2", ring)]
    same((x + y + 1) ** 14, two)
    same(fractional(12, 20) ** 2, [parse_poly("3/5*x^2 + 2/3*y + 1", ring), two[1]])
    d, q = parse_poly("6*x^2*y - 3/4*y + 1", ring), fractional(25, 30)
    assert same(q * d, [d]) == ([q], ring.zero)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2, 3, 32003]),
    st.sampled_from(["grevlex", "lex"]),
)
def test_a_unit_certificate_exists_exactly_for_the_unit_ideal_and_is_exact(seed, modulus, order):
    """The certificate is the engine's row for its first constant remainder,
    returned as it is: None exactly when the ideal is proper, else one entry
    per generator whose dot with the generators is exactly 1.  Nonzero
    constants and repeated generators are among the inputs."""
    rng = random.Random(seed)
    ring = _ring_for(modulus, ("x", "y", "z")[: rng.randint(2, 3)], order)

    def scalar():
        if modulus:
            return rng.randrange(1, modulus)
        return Fraction(rng.randint(1, 5), rng.randint(1, 5))

    def poly():
        f = random_poly(rng, ring, max_terms=4)
        return f.scale(scalar()) if not f.is_constant() else poly()

    gens = [poly() for _ in range(rng.randint(1, 4))]
    gens += [rng.choice(gens) for _ in range(rng.randint(0, 2))]
    gens += [ring.const(scalar()) for _ in range(rng.random() < 0.25)]
    rng.shuffle(gens)
    unit = ideal_contains_one(gens, ring)
    assert unit == GroebnerBasis(ring, gens).contains_one()
    cert = unit_ideal_certificate(gens, ring)
    if not unit:
        assert cert is None
    else:
        assert len(cert) == len(gens)
        assert groebner._dot(ring, list(zip(cert, gens))) == ring.one


def _unpacked(f):
    """``f._division_form()`` with its tail on exponent tuples."""
    dd, lc, tail = f._division_form()
    return dd, lc, [(f.ring._mono(m), c) for m, c in tail]


def test_each_divisor_keeps_its_integer_form():
    """A basis element's division form is read from its own integer terms
    ``(_d, _t)`` on its first use as a divisor, negated when its leading
    coefficient is negative, and kept in ``_div``, a slot left unset until
    then; the form belongs to the ``Poly`` and its ring's order, not to its
    terms.  The tail is kept on packed monomials."""
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    gb = GroebnerBasis(ring, [2 * x**2 - y.scale(Fraction(1, 3)), y**3 * -5 - x.scale(Fraction(2))])
    assert not any(hasattr(b, "_div") for b in gb.basis)
    f = 3 * x**2 + 5 * y**3 + x * y
    nf = gb.normal_form(f)
    forms = [b._div for b in gb.basis]
    for b, (dd, lc, tail) in zip(gb.basis, forms):
        lm = b._lead()
        assert (dd, lc) == (b._d, b._t[lm]) and tail == [(m, c) for m, c in b._t.items() if m != lm]
    # x^2 - y/6, y^3 + 2x/5
    assert [_unpacked(b) for b in gb.basis] == [(6, 6, [((0, 1), -1)]), (5, 5, [((1, 0), 2)])]
    assert gb.normal_form(f) == nf and gb.member(f - nf) is not None
    assert all(b._div is form and b._division_form() is form for b, form in zip(gb.basis, forms))
    # the same terms in a lex ring lead with x^2, not y^3
    g = ring.from_terms({(2, 0): Fraction(-3), (0, 3): Fraction(1, 2)})
    assert _unpacked(g) == (2, 1, [((2, 0), -6)]) and (g._d, g._t) == (2, {g._lead(): 1, ring._pack((2, 0)): -6})
    h = Poly(PolyRing(QQ, ["x", "y"], MonomialOrder("lex")), g.terms)
    assert not any(hasattr(h, slot) for slot in ("_hash", "_lm", "_div"))
    assert tuple_lead(h) == (2, 0)
    assert _unpacked(h) == (-2, 6, [((0, 3), -1)])  # (6x^2 - y^3) / -2, from _d == 2
    assert tuple_lead(g) == (0, 3) and _unpacked(g) == (2, 1, [((2, 0), -6)])
    # over GF(7): 3x^2 + y == (x^2 + 5y) / 5, since 5 is the inverse of 3
    u, v = parse_ring("GF(7)[u,v]")[0].gens()
    assert _unpacked(3 * u**2 + v) == (5, 1, [((0, 1), 5)])


def test_a_cofactor_row_is_one_dot_per_entry_and_builds_no_fraction(monkeypatch):
    """``_row_sum`` sums each of the ``width`` row entries in exactly one
    ``_dot`` on the multipliers' and entries' own integer terms, and enters
    no code of the ``fractions`` module."""
    ring, _ = parse_ring("QQ[x,y]")
    x, y = ring.gens()
    terms = [(x.scale(Fraction(1, 3)) + 1, [x, ring.zero, y]), (y - ring.const(Fraction(1, 2)), [ring.one, x, x * y])]
    dots = []
    real = groebner._dot
    monkeypatch.setattr(groebner, "_dot", lambda r, pairs: dots.append(pairs) or real(r, pairs))
    row, names = fraction_calls(lambda: groebner._row_sum(ring, 3, terms))
    assert names == []
    assert row == [sum((c * r[j] for c, r in terms), ring.zero) for j in range(3)]
    assert dots == [[(c, r[j]) for c, r in terms] for j in range(3)]


def _cyclic5(field):
    """Cyclic-5: the cyclic sums of 1 to 4 consecutive variables of x0..x4,
    and x0*x1*x2*x3*x4 - 1."""
    xs = [f"x{i}" for i in range(5)]
    sums = ["+".join("*".join(xs[(i + j) % 5] for j in range(d)) for i in range(5)) for d in range(1, 5)]
    return parse_ring(f"{field}[{','.join(xs)}]/({', '.join(sums + ['*'.join(xs) + ' - 1'])})")


def _katsura4(field):
    """Katsura-4 in u0..u4: for m = 0..3, the sum of u_|l| * u_|m-l| over
    l = -4..4 (u_k = 0 for k > 4) minus u_m, and u0 + 2*(u1 + ... + u4) - 1."""
    eqs = [
        " + ".join(f"u{abs(l)}*u{abs(m - l)}" for l in range(-4, 5) if abs(m - l) <= 4) + f" - u{m}"
        for m in range(4)
    ]
    eqs.append("u0 + " + " + ".join(f"2*u{i}" for i in range(1, 5)) + " - 1")
    return parse_ring(f"{field}[{','.join(f'u{i}' for i in range(5))}]/({', '.join(eqs)})")


class _Bounded(groebner._Engine):
    """An engine that counts the S-pairs it reduces and fails as soon as it
    reduces more than ``limit`` of them, so a weakened pair criterion fails
    at once instead of growing the basis until memory runs out."""

    def __init__(self, gens, ring, limit):
        super().__init__(gens, ring, want_cofactors=False)
        self.limit, self.reduced_pairs = limit, -len(self.gens)

    def _insert(self, f, heads, stop_at_unit):
        self.reduced_pairs += 1
        assert self.reduced_pairs <= self.limit, "more S-pairs than the pinned count"
        return super()._insert(f, heads, stop_at_unit)


@pytest.mark.parametrize(
    "system, pairs, largest, size",
    [(lambda: _cyclic5("GF(32003)"), 102, 42, 20), (lambda: _katsura4("QQ"), 30, 15, 13)],
    ids=["cyclic5-gf32003", "katsura4-qq"],
)
def test_the_buchberger_loop_reduces_a_pinned_number_of_s_pairs(system, pairs, largest, size):
    """The Gebauer-Moller criteria fix how many S-pairs a completion
    reduces and how large the basis grows before it is made reduced; these
    are the counts of the grevlex engine on two standard systems.  A pair
    criterion that keeps redundant pairs, or drops the wrong ones, moves
    them even when the reduced basis comes out the same."""
    ring, gens = system()
    engine = _Bounded(gens, ring, pairs)
    engine.run(stop_at_unit=False)
    assert (engine.reduced_pairs, len(engine.G), len(engine.reduced()[0])) == (pairs, largest, size)


def test_the_engine_normalizes_once_per_s_polynomial_and_kept_remainder(monkeypatch):
    """Over QQ, ``ideal_contains_one`` builds each S-polynomial with one
    ``_dot`` and makes each kept remainder monic on its integer form: it
    calls ``polynomials._norm`` once for each of them and never
    ``Poly.scale``."""
    ring, gens = parse_ring("QQ[x,y,z]/(2*x^2 - 1/3*y*z + 1, 3*x*y - 1/2*z^2, 5/7*y^2 - x*z + 2*x)")
    counts = {"norm": 0, "dot": 0, "kept": 0, "scale": 0}

    def counted(name, fn, kept=None):
        def call(*args):
            out = fn(*args)
            counts[name] += 1 if kept is None else bool(kept(out))
            return out
        return call

    norm = counted("norm", polynomials._norm)
    monkeypatch.setattr(polynomials, "_norm", norm)
    monkeypatch.setattr(groebner, "_norm", norm)
    monkeypatch.setattr(groebner, "_dot", counted("dot", groebner._dot))
    monkeypatch.setattr(groebner, "_reduce", counted("kept", groebner._reduce, kept=lambda out: out[1]))
    monkeypatch.setattr(Poly, "scale", counted("scale", Poly.scale))
    assert not ideal_contains_one(gens, ring)
    assert counts == {"norm": counts["dot"] + counts["kept"], "dot": 8, "kept": 6, "scale": 0}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 2, 7, 32003]), st.sampled_from(["grevlex", "lex"]))
def test_every_element_the_engine_keeps_is_monic_canonical_and_knows_its_lead(seed, modulus, order):
    """Each ``h`` the engine adds to ``G`` holds its canonical integer form
    with leading coefficient 1, its kept ``_lm`` is the largest of its
    monomials under the order, ``leads`` lists those, and its row times the
    generators is ``h``: the one scale ``k`` made both monic."""
    rng = random.Random(seed)
    ring = _ring_for(modulus, ("x", "y", "z"), order)
    scalars = [rng.randrange(1, modulus) if modulus else Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 5))
               for _ in range(4)]
    gens = [random_poly(rng, ring, max_terms=4).scale(c) for c in scalars[: rng.randint(2, 4)]]
    engine = groebner._Engine(gens, ring, want_cofactors=True)
    engine.run(stop_at_unit=False)
    assert engine.leads == [h._lm for h in engine.G]
    for h, row in zip(engine.G, engine.rows):
        lm = max(h._t, key=ring._neg.__xor__)
        assert is_canonical(h) and h._lm == lm and h._t[lm] == h._d
        assert groebner._dot(ring, list(zip(row, gens))) == h
