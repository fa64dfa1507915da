"""Schemes as functors on test algebras: points, covers, locality, gluing."""

import collections
import functools
import itertools
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as O
from paper import constant_section, open_from_realization, pointwise, ring_of_functions
from support import (
    NILPOTENT_CASES,
    NILPOTENT_IDS,
    affine_line,
    affine_plane,
    as_hom,
    atoms_by_search,
    finite_algebras,
    gf3_split,
    locality_by_product,
    lowest_chart_by_overlap,
    multiplicative_group,
    nilpotent_algebra,
    open_to_realization,
    product_of_points,
    projective_space,
    qq_xy,
    reduced_by_definition,
    unit_covers,
)
from zariski import algebra, funscheme
from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    enumerate_homs,
    make_localization,
    morphism,
)
from zariski.fields import GF, QQ
from zariski.funscheme import (
    check_locality,
    connected_factor,
    eval_points,
    functorial,
    atomic_factors,
    is_reduced,
    map_point,
    open_at_point,
    realization,
    SchemePoint,
)
from zariski.lattice import basic_open, eq, top
from zariski.latscheme import CompactOpen, mk_affine, projective_line, punctured_plane, top_open
from zariski.parsing import parse_poly, parse_ring
from zariski.polynomials import PolyRing


def _field_algebra(p):
    return PresentedAlgebra(PolyRing(GF(p), []))


F2, F3, F5 = _field_algebra(2), _field_algebra(3), _field_algebra(5)


@pytest.fixture(scope="module")
def punctured3():
    PP, _, _ = punctured_plane(GF(3))
    return PP


# -- point counts against the brute-force oracle ------------------------------------


def test_affine_line_points_match_the_oracle():
    assert len(eval_points(affine_line(GF(3)), F3)) == O.FROZEN_POINT_COUNTS[
        ("affine_line", 3)
    ]
    assert len(eval_points(affine_line(GF(2)), F2)) == O.FROZEN_POINT_COUNTS[
        ("affine_line", 2)
    ]
    assert len(eval_points(affine_plane(GF(3)), F3)) == O.FROZEN_POINT_COUNTS[
        ("affine_plane", 3)
    ]


def test_multiplicative_group_points_match_the_oracle():
    assert len(eval_points(multiplicative_group(GF(5)), F5)) == O.FROZEN_POINT_COUNTS[
        ("multiplicative_group", 5)
    ]


def test_projective_line_points_match_the_oracle():
    assert len(eval_points(projective_line(GF(2)), F2)) == (
        O.FROZEN_POINT_COUNTS[("projective_line", 2)]
    )
    assert len(eval_points(projective_line(GF(3)), F3)) == (
        O.FROZEN_POINT_COUNTS[("projective_line", 3)]
    )


def test_punctured_plane_points_match_the_oracle(punctured3):
    assert len(eval_points(punctured3, F3)) == O.FROZEN_POINT_COUNTS[
        ("punctured_plane", 3)
    ]


def test_product_test_algebras_square_the_counts(punctured3):
    D3 = product_of_points(3, 2)
    assert len(eval_points(punctured3, D3)) == O.FROZEN_PRODUCT_COUNTS[
        ("punctured_plane", 3, 2)
    ]
    assert len(eval_points(affine_line(GF(3)), D3)) == O.FROZEN_PRODUCT_COUNTS[
        ("affine_line", 3, 2)
    ]
    P13 = projective_line(GF(3))
    assert len(eval_points(P13, D3)) == O.FROZEN_PRODUCT_COUNTS[
        ("projective_line", 3, 2)
    ]
    D2 = product_of_points(2, 2)
    P12 = projective_line(GF(2))
    assert len(eval_points(P12, D2)) == O.FROZEN_PRODUCT_COUNTS[
        ("projective_line", 2, 2)
    ]


def _parsed(text):
    ring, rels = parse_ring(text)
    return PresentedAlgebra(ring, rels)


def test_representable_points_are_exactly_the_algebra_maps():
    split = [gf3_split(), product_of_points(2, 2)]
    non_reduced = [_parsed("GF(3)[t]/(t^2)"), _parsed("GF(3)[t]/(t^3)")]
    for B in [F5] + split + non_reduced:
        Bq = B.with_relations(B.ring.gens()[:1])  # B/(t)
        chi = morphism(B, Bq, list(Bq.gens()))
        for X in (multiplicative_group(B.field), affine_line(B.field)):
            pts = eval_points(X, B)
            homs = enumerate_homs(X.charts[0], B)
            assert len(pts) == len(homs)
            assert {as_hom(p) for p in pts} == set(homs)
            for p in pts:
                assert as_hom(map_point(p, chi)) == as_hom(p).then(chi)


# -- test algebras with nilpotents -------------------------------------------------

@pytest.mark.parametrize("p, k, split", NILPOTENT_CASES, ids=NILPOTENT_IDS)
def test_glued_schemes_count_their_points_over_algebras_with_nilpotents(p, k, split):
    """P^1 and the punctured plane over B count the unimodular pairs of B,
    up to units for P^1; the points over GF(p) push into B among them."""
    B = nilpotent_algebra(p, k, split)
    assert not is_reduced(B)
    chi = morphism(_field_algebra(p), B, [])
    for name, X in zip(("projective_line", "punctured_plane"), _glued(p)):
        pts = eval_points(X, B)
        assert len(pts) == len(set(pts)) == O.FROZEN_NILPOTENT_COUNTS[(name, p, k, split)]
        assert {map_point(q, chi) for q in eval_points(X, chi.source)} <= set(pts)


@settings(max_examples=15)
@given(finite_algebras(max_size=27))
def test_the_lowest_chart_is_the_one_the_overlaps_pick(B):
    """Over each local factor of B, a chart hom's lowest chart is the first
    whose pulled-back overlap is the top (``lowest_chart_by_overlap``), and
    the map it comes with is an algebra map from that chart."""
    factors = [to_factor.target for _, to_factor in atomic_factors(B)]
    for X in _glued(B.field.char):
        for c, A in enumerate(X.charts):
            for Bt in factors:
                for phi in enumerate_homs(A, Bt):
                    j, m = funscheme._lowest_chart(X, c, phi)
                    assert j == lowest_chart_by_overlap(X, c, phi), phi
                    assert m.source == X.charts[j] and m.is_valid()


def _points_by_lowest_chart(X, B):
    """``eval_points`` by the chart-map rule: each local factor's chart homs
    that ``_lowest_chart`` keeps at their own chart, in the same order."""
    if B.is_trivial():
        return [SchemePoint(X, B, ())]
    per_atom = [
        [
            (e, j, beta)
            for j, A in enumerate(X.charts)
            for beta in enumerate_homs(A, to_factor.target)
            if funscheme._lowest_chart(X, j, beta)[0] == j
        ]
        for e, to_factor in atomic_factors(B)
    ]
    return [SchemePoint(X, B, list(combo)) for combo in itertools.product(*per_atom)]


@settings(max_examples=40)
@given(finite_algebras(max_size=27))
@example(gf3_split())
@example(nilpotent_algebra(3, 2, False))
@example(nilpotent_algebra(2, 2, True))
def test_the_unit_test_places_points_as_the_lowest_chart_does(B):
    """P^1, the punctured plane, A^2, P^2, P^3 (over at most 9 elements) and
    two opens of a curve, one whose patch denominator x - 1 is no bare
    variable, have, over B reduced or not, split or not, exactly the points
    of the chart-map rule, in its order."""
    p = B.field.char
    small = len(B.enumerate_elements()) <= 9
    spaces = (projective_space(GF(p), 2),) + (projective_space(GF(p), 3),) * small
    for X in _glued(p) + (affine_plane(B.field), *_curve_opens(p)) + spaces:
        assert eval_points(X, B) == _points_by_lowest_chart(X, B)


@functools.lru_cache(maxsize=None)
def _curve_opens(p):
    """D(x) u D(x - 1) and D(x - 1) u D(x*y) on y^2 = x^3 + 1 over GF(p),
    realized.  Chart 1's patch denominator to chart 0 is x in the first, a
    bare variable, and x - 1 in the second."""
    A = PresentedAlgebra(*parse_ring(f"GF({p})[x,y]/(y^2 - x^3 - 1)"))
    x, y = A.gens()
    opens = [
        realization(CompactOpen(mk_affine(A), [basic_open(A, pieces)]))
        for pieces in ([x, x - 1], [x - 1, x * y])
    ]
    ring = opens[0].charts[1].ring
    assert [Q.f.poly for X in opens for Q in X.patches_for(1, 0)] == [ring.var(0), ring.var(0) - 1]
    return opens


_SOURCES = [
    "GF({p})[x,y]",
    "GF({p})[x,y]/(y^2 - x^3 - 1)",
    "GF({p})[x,y,w]/(x*w - 1)",
    "GF({p})[x,y,w]/(y^2 - x, x*w + y)",
]
_CONDITIONS = ["x", "y", "w", "x - 1", "x*y + 1", "y^2 + x", "2*y", "1"]


@settings(max_examples=40)
@given(finite_algebras(max_size=27), st.sampled_from(_SOURCES), st.lists(st.sampled_from(_CONDITIONS), max_size=3),
       st.booleans())
def test_the_search_drops_what_the_non_unit_filter_drops(B, source, conditions, certified):
    """The hom search with non-unit conditions, bare variables or not, keeps
    exactly the homs of ``enumerate_homs`` that map none of them to a unit,
    in the same order, for a unit test that certifies or one that does not."""
    A = _parsed(source.format(p=B.field.char))
    fs = [parse_poly(f, A.ring) for f in conditions if f != "w" or A.nvars == 3]
    is_unit = (lambda b: b.algebra.try_invert(b) is not None) if certified else (lambda b: not b.is_zero())
    expected = [beta for beta in enumerate_homs(A, B) if not any(is_unit(beta._apply(f)) for f in fs)]
    assert algebra._homs(A, B, fs, is_unit) == expected


@pytest.mark.parametrize("text, reduced", [("GF(7)[t]/(t^2 - 3)", True), ("GF(3)[t]/(t^2)", False)])
def test_points_are_placed_without_chart_maps(monkeypatch, text, reduced):
    """A point of P^1 or of the punctured plane is placed by a unit test,
    never by a chart map: over a reduced B the placement certifies no
    inverse beyond those the chart searches certify to solve y2 = 1/y; over a
    nilpotent one it lists the non-units, each value certified at most once."""
    field = _parsed(text).field
    schemes = [projective_line(field), punctured_plane(field)[0]]
    expected = [_points_by_lowest_chart(X, _parsed(text)) for X in schemes]
    certified = []
    inverse = PresentedAlgebra._inverse

    def refuse(*args):
        raise AssertionError("a chart map was built")

    monkeypatch.setattr(funscheme, "try_extend", refuse)
    monkeypatch.setattr(PresentedAlgebra, "_inverse", lambda A, c: certified.append((A, c)) or inverse(A, c))
    for X, points in zip(schemes, expected):
        B = _parsed(text)
        assert is_reduced(B) == reduced
        for A in X.charts:
            enumerate_homs(A, _parsed(text))
        searched = {c for (_, c) in certified}
        certified.clear()
        assert eval_points(X, B) == points
        assert len(certified) == len(set(certified))
        assert bool(searched) == (X is schemes[1])
        placed = {c for (_, c) in certified} | searched
        assert placed == (searched if reduced else set(B.enumerate_elements()))
        certified.clear()


def test_each_stratum_builds_only_its_own_points(monkeypatch):
    """``eval_points`` of the punctured plane over GF(5)[t]/(t^3) builds one
    morphism per point, 15,000, not one per chart hom, 25,000.  Each chart's
    solved coefficient, y on chart 0 and x on chart 1, is evaluated at most
    once per value, so at most |B| = 125 times, not once per (x, y) prefix."""
    B = _parsed("GF(5)[t]/(t^3)")
    X = punctured_plane(GF(5))[0]
    atomic_factors(B)  # its projection is no chart hom
    built, evaluated = [], collections.Counter()
    build, evaluate = algebra._morphism, algebra._evaluate
    monkeypatch.setattr(algebra, "_morphism", lambda *args: built.append(args) or build(*args))
    monkeypatch.setattr(algebra, "_evaluate", lambda p, *rest: evaluated.update([p]) or evaluate(p, *rest))
    assert len(eval_points(X, B)) == len(built) == 15_000
    x, y, w = X.charts[0].ring.gens()
    assert [A.relations for A in X.charts] == [(y * w - 1,), (x * w - 1,)]
    assert evaluated[y] <= 125 and evaluated[x] <= 125


@pytest.mark.parametrize("text", ["GF(5)[t]/(t^2)", "GF(5)[t]/(t^2 - 2)", "GF(5)[e]/(e^2 - e)"])
def test_a_one_chart_scheme_never_decides_reducedness(monkeypatch, text):
    """Chart 0 has no lower chart to place against, so ``eval_points`` of an
    affine scheme never asks whether B is reduced."""

    def refuse(B):
        raise AssertionError("reducedness was decided")

    monkeypatch.setattr(funscheme, "is_reduced", refuse)
    for X in (affine_plane(GF(5)), mk_affine(_parsed("GF(5)[x,y]/(y^2 - x^3 - 1)"))):
        assert eval_points(X, _parsed(text))


@functools.lru_cache(maxsize=None)
def _glued(p):
    return projective_line(GF(p)), punctured_plane(GF(p))[0]


def test_reducedness_detection():
    assert is_reduced(F3)
    assert is_reduced(gf3_split())
    ring, rels = parse_ring("GF(2)[t]/(t^2)")
    assert not is_reduced(PresentedAlgebra(ring, rels))


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_reducedness_matches_the_definition_for_every_small_monic(p):
    ring = PolyRing(GF(p), ["t"])
    (t,) = ring.gens()
    seen = {True: 0, False: 0}
    for degree in range(4):
        for coeffs in itertools.product(range(p), repeat=degree):
            m = t**degree
            for k, c in enumerate(coeffs):
                m = m + (t**k).scale(c)
            B = PresentedAlgebra(ring, [m])
            assert is_reduced(B) == reduced_by_definition(B), m
            seen[is_reduced(B)] += 1
    assert seen[True] and seen[False]


def test_reducedness_needs_a_finite_field():
    with pytest.raises(ValueError):
        is_reduced(qq_xy())


def test_map_point_splits_each_algebra_once(monkeypatch, punctured3):
    built = []
    inner = funscheme._frobenius_matrix

    def counted(B):
        built.append(B)
        return inner(B)

    monkeypatch.setattr(funscheme, "_frobenius_matrix", counted)
    B = gf3_split()
    e = B.var(0)
    assert check_locality(punctured3, B, [e, B.one - e])
    # one Frobenius matrix for B and for each of its two localizations,
    # built once for the atoms and the reducedness of all their points, not
    # once per pushed point
    assert len(built) == 3
    EPS = _parsed("GF(3)[t]/(t^2)")
    chi = morphism(F3, EPS, [])
    source = eval_points(punctured3, F3)
    pushed = [map_point(p, chi) for p in source]
    assert pushed == [map_point(p, chi) for p in source]
    assert set(pushed) <= set(eval_points(punctured3, EPS))
    # one matrix for EPS too, however many points are pushed into it
    assert built.count(EPS) == 1


# -- idempotent decomposition --------------------------------------------------------


def _atoms(B):
    return [e for e, _ in atomic_factors(B)]


def test_atomic_factors_split_products():
    B = gf3_split()
    atoms = _atoms(B)
    assert len(atoms) == 2
    for a in atoms:
        assert a * a == a
    assert atoms[0] * atoms[1] == B.zero
    assert atoms[0] + atoms[1] == B.one
    assert _atoms(F3) == [F3.one]


def test_atomic_factors_are_a_fresh_list_on_every_call():
    B = product_of_points(3, 3)
    first = atomic_factors(B)
    second = atomic_factors(B)
    assert first == second and first is not second
    first.clear()
    assert atomic_factors(B) == second
    assert atomic_factors(product_of_points(3, 3)) == second


def _gf5_at_2() -> PresentedAlgebra:
    ring = PolyRing(GF(5), ["t"])
    return PresentedAlgebra(ring, [ring.var(0) - 2])


def _trivial(names) -> PresentedAlgebra:
    ring = PolyRing(GF(3), names)
    return PresentedAlgebra(ring, [ring.one])


@pytest.mark.parametrize(
    "make",
    [lambda p=p: PresentedAlgebra(PolyRing(GF(p), [])) for p in (2, 3, 5, 7)]
    + [_gf5_at_2],
    ids=["GF2", "GF3", "GF5", "GF7", "GF5[t]/(t-2)"],
)
def test_the_atoms_of_a_field_are_those_the_search_finds(make):
    B = make()
    assert atoms_by_search(B) == [B.one]
    assert atomic_factors(B) == [(B.one, AlgebraMorphism.identity(B))]


@pytest.mark.parametrize(
    "text", ["GF(5)[t]/(t - 2)", "GF(3)[t]/(t^2 + 1)", "GF(3)[t]/(t^2)", "GF(2)[x,y]/(x^2, y^2)"],
)
def test_a_one_atom_algebra_is_its_own_factor_without_a_projection(monkeypatch, text):
    """A one-dimensional Frobenius fixed space makes 1 the only atom, and its
    factor map is the identity, built without ``factor_projection``: the
    shortcut that most atom splits of a ``points_compare`` round take."""

    def no_projection(B, e):
        raise AssertionError(f"factor_projection({e}) called for a one-atom algebra")

    monkeypatch.setattr(funscheme, "factor_projection", no_projection)
    B = PresentedAlgebra(*parse_ring(text))
    assert atomic_factors(B) == [(B.one, AlgebraMorphism.identity(B))]


@pytest.mark.parametrize("names", [[], ["x"]], ids=["no-vars", "one-var"])
def test_the_trivial_algebra_has_no_atoms(names):
    B = _trivial(names)
    assert atoms_by_search(B) == atomic_factors(B) == []


def test_the_zero_ring_has_no_atoms_without_a_frobenius_matrix(monkeypatch):
    """The zero ring is decided before Frobenius, over GF(p) and over QQ."""

    def no_matrix(B):
        raise AssertionError(f"a Frobenius matrix of the zero ring {B!r}")

    monkeypatch.setattr(funscheme, "_frobenius_matrix", no_matrix)
    for B in (_trivial([]), _trivial(["x"]), _parsed("QQ[t]/(1)")):
        assert atomic_factors(B) == []


def test_points_over_the_zero_ring_are_the_empty_product():
    """With no atoms, X(0) is one point with no factors, over QQ as over
    GF(3), and every point pushes to it along a map into the zero ring."""
    Z = _parsed("QQ[t]/(1)")
    (p,) = eval_points(projective_line(QQ), Z)
    assert p.factors == () and map_point(p, AlgebraMorphism.identity(Z)) == p
    X, Z3 = projective_line(GF(3)), _trivial(["x"])
    (q,) = eval_points(X, Z3)
    chi = morphism(F3, Z3, [])
    assert {map_point(r, chi) for r in eval_points(X, F3)} == {q}


@pytest.mark.parametrize(
    "text",
    ["GF(7)[t]/(t^4 - 1)", "GF(3)[t]/(t^3 - t^2)", "GF(2)[x,y]/(x^2, y^2 + y)"],
)
def test_the_atoms_never_enumerate_the_algebra(monkeypatch, text):
    expected = atoms_by_search(PresentedAlgebra(*parse_ring(text)))

    def no_enumeration(self):
        raise AssertionError("the atoms are read off Frobenius, not searched")

    monkeypatch.setattr(PresentedAlgebra, "enumerate_elements", no_enumeration)
    B = PresentedAlgebra(*parse_ring(text))
    assert atomic_factors(B) == [(e, funscheme.factor_projection(B, e)) for e in expected]


def test_the_atoms_refuse_algebras_over_qq_and_infinite_ones():
    with pytest.raises(ValueError, match="over QQ"):
        atomic_factors(qq_xy())
    with pytest.raises(ValueError, match="not finite"):
        atomic_factors(PresentedAlgebra(*parse_ring("GF(3)[x,y]/(x^2)")))
    # x*y leads, but it is no power of y
    with pytest.raises(ValueError, match="not finite over its field: no power of 'y' reduces"):
        atomic_factors(PresentedAlgebra(*parse_ring("GF(3)[x,y]/(x^2, x*y)")))


def test_connected_factors_are_fields_here():
    B = gf3_split()
    for a in _atoms(B):
        C = connected_factor(B, a)
        assert len(_atoms(C)) == 1


@settings(max_examples=80)
@given(finite_algebras())
def test_the_atoms_and_reducedness_of_random_finite_algebras(B):
    atoms = _atoms(B)
    assert atoms == atoms_by_search(B)
    for i, e in enumerate(atoms):
        assert e * e == e
        assert all((e * f).is_zero() for f in atoms[i + 1 :])
    assert sum(atoms, B.zero) == B.one
    assert is_reduced(B) == reduced_by_definition(B)
    for e in atoms:
        assert len(atomic_factors(connected_factor(B, e))) == 1


# -- membership of points in compact opens --------------------------------------------


def test_point_membership_in_a_compact_open():
    plane3 = affine_plane(GF(3))
    A3 = plane3.charts[0]
    x3, y3 = A3.var(0), A3.var(1)
    U3 = CompactOpen(plane3, [basic_open(A3, [x3, y3])])
    pts = eval_points(plane3, F3)
    inside = [p for p in pts if eq(open_at_point(U3, p), top(F3))]
    assert len(pts) == 9
    assert len(inside) == 8  # only the origin misses D(x, y)


# -- covers ---------------------------------------------------------------------------


def test_cover_detection_on_the_affine_line():
    line_q = affine_line(QQ)
    Aq = line_q.charts[0]
    xq = Aq.var(0)
    u_x = CompactOpen(line_q, [basic_open(Aq, [xq])])
    u_1mx = CompactOpen(line_q, [basic_open(Aq, [Aq.one - xq])])
    assert u_x.join(u_1mx).eq(top_open(line_q))
    assert not u_x.eq(top_open(line_q))


# -- realizations of compact opens ------------------------------------------------------


def test_realization_of_the_punctured_plane_has_two_charts():
    plane = affine_plane(QQ)
    Axy = plane.charts[0]
    x, y = Axy.var(0), Axy.var(1)
    U_xy = CompactOpen(plane, [basic_open(Axy, [x, y])])
    XU = realization(U_xy)
    assert XU.ncharts == 2
    assert realization(U_xy) is XU  # memoized
    cx = open_to_realization(U_xy, CompactOpen(plane, [basic_open(Axy, [x])]))
    cy = open_to_realization(U_xy, CompactOpen(plane, [basic_open(Axy, [y])]))
    assert cx.join(cy).eq(top_open(XU))


def test_opens_round_trip_through_the_realization():
    plane = affine_plane(QQ)
    Axy = plane.charts[0]
    x, y = Axy.var(0), Axy.var(1)
    U_xy = CompactOpen(plane, [basic_open(Axy, [x, y])])
    XU = realization(U_xy)
    W = CompactOpen(XU, [basic_open(C, [C.var(0)]) for C in XU.charts])
    back = open_from_realization(U_xy, W)
    assert eq(back.components[0], basic_open(Axy, [x]))
    V = CompactOpen(plane, [basic_open(Axy, [y])])
    assert open_from_realization(U_xy, open_to_realization(U_xy, V)).eq(V)


# -- locality ---------------------------------------------------------------------------


def test_points_are_local_along_idempotent_covers(punctured3):
    B = gf3_split()
    e = B.var(0)
    assert check_locality(punctured3, B, [e, B.one - e])


def test_points_are_local_along_overlapping_covers():
    ring_s, rels_s = parse_ring("GF(3)[x]/(x^2 - x)")
    S = PresentedAlgebra(ring_s, rels_s)
    xs = S.var(0)
    pieces = [xs + S.one, S.one - xs]
    assert eq(basic_open(S, pieces), top(S))
    assert check_locality(affine_line(GF(3)), S, pieces)


def test_locality_check_requires_a_cover():
    B = gf3_split()
    with pytest.raises(ValueError, match="do not cover"):
        check_locality(affine_line(GF(3)), B, [B.var(0)])


@settings(max_examples=30)
@given(finite_algebras(max_size=27), st.data())
def test_locality_along_random_covers_matches_the_product_walk(B, data):
    pieces = data.draw(unit_covers(B))
    p = B.field.char
    for X in (affine_line(GF(p)), _glued(p)[0]):
        assert check_locality(X, B, pieces) == locality_by_product(X, B, pieces) is True


def _line_over_two_points():
    """P¹ over GF(3)[x]/(x^2 - x) with the cover D(x + 1), D(1 - x): the
    first piece is a unit, the second is the point x = 0, and their overlap
    is the second piece again."""
    S = _parsed("GF(3)[x]/(x^2 - x)")
    x = S.var(0)
    return _glued(3)[0], S, [x + S.one, S.one - x]


def _patch_points(monkeypatch, C, change):
    inner = funscheme.eval_points

    def patched(X, B):
        points = inner(X, B)
        return change(points) if B == C else points

    monkeypatch.setattr(funscheme, "eval_points", patched)


def test_locality_refutes_a_piece_that_lost_a_point(monkeypatch):
    X, S, pieces = _line_over_two_points()
    loc = make_localization(S, pieces[1])
    lost = map_point(eval_points(X, S)[0], loc.to_loc)
    assert lost in eval_points(X, loc.algebra)
    _patch_points(monkeypatch, loc.algebra, lambda points: [q for q in points if q != lost])
    assert not check_locality(X, S, pieces)
    assert not locality_by_product(X, S, pieces)


def test_locality_refutes_a_spurious_local_point(monkeypatch):
    X, S, pieces = _line_over_two_points()
    loc = make_localization(S, pieces[1])
    points = eval_points(X, loc.algebra)
    # a point of chart 0 carried on chart 1, which contains it too: not the
    # canonical form, so not listed, yet it restricts like its twin
    e, _, phi = next(
        (e, c, phi)
        for (e, c, phi), in (q.factors for q in points)
        if c == 0 and funscheme._chart_map(X, 0, phi, 1)
    )
    spurious = SchemePoint(X, loc.algebra, [(e, 1, funscheme._chart_map(X, 0, phi, 1))])
    assert spurious not in points
    _patch_points(monkeypatch, loc.algebra, lambda points: points + [spurious])
    assert not check_locality(X, S, pieces)
    assert not locality_by_product(X, S, pieces)


def test_locality_refutes_a_restriction_that_is_not_injective(monkeypatch):
    """A global point listed a second time, carried on chart 1 though its
    lowest chart is 0, restricts to each piece as its twin does."""
    X, S, pieces = _line_over_two_points()
    twin = next(q for q in eval_points(X, S)
                if all(c == 0 and funscheme._chart_map(X, 0, phi, 1) for (_, c, phi) in q.factors))
    spurious = SchemePoint(X, S, [(e, 1, funscheme._chart_map(X, 0, phi, 1)) for (e, _, phi) in twin.factors])
    assert map_point(spurious, AlgebraMorphism.identity(S)) == twin
    _patch_points(monkeypatch, S, lambda points: points + [spurious])
    assert not check_locality(X, S, pieces)


def test_locality_restricts_each_point_once_per_overlap(monkeypatch):
    X = _glued(5)[0]
    B = _parsed("GF(5)[t]/(t^3 - t)")
    t = B.var(0)
    pieces = [t, t - B.one, t + B.one]
    n = len(pieces)
    bound = n * len(eval_points(X, B)) + sum(
        (n - 1) * len(eval_points(X, make_localization(B, f).algebra)) for f in pieces
    )
    calls = []
    inner = funscheme.map_point

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(funscheme, "map_point", counted)
    assert check_locality(X, B, pieces)
    assert 0 < len(calls) <= bound


# -- ring of functions ----------------------------------------------------------------------


def test_ring_of_functions_of_representables_is_the_algebra():
    ring_d, rels_d = parse_ring("QQ[x]/(x^2)")
    D = PresentedAlgebra(ring_d, rels_d)
    assert ring_of_functions(mk_affine(D)) is D
    GmQ = multiplicative_group(QQ)
    assert ring_of_functions(GmQ) is GmQ.charts[0]


def test_ring_of_functions_of_glued_schemes_is_a_section_ring(punctured3):
    X = punctured3
    U = ring_of_functions(punctured3)
    assert U.eq(top_open(X))
    one, zero = constant_section(X, U, 1), constant_section(X, U, 0)
    assert pointwise(mul, one, zero).values == zero.values


# -- functoriality ---------------------------------------------------------------------------


def test_points_push_forward_along_algebra_maps(punctured3):
    B = gf3_split()
    e = B.var(0)
    incl = morphism(F3, B, [])
    loc_e = make_localization(B, e)
    for p in eval_points(punctured3, F3):
        q = map_point(p, incl)
        assert q.test_algebra == B
        r = map_point(q, loc_e.to_loc)
        assert r.test_algebra == loc_e.algebra
    # pushing forward then evaluating commutes with counting over components
    assert len({map_point(p, incl) for p in eval_points(punctured3, F3)}) == 8


def test_point_equality_is_structural():
    """Two evaluations over one test algebra give equal points, on an
    affine and on a glued scheme, through ``functorial`` too."""
    for X, n in ((affine_line(GF(3)), 3), (projective_line(GF(3)), 4)):
        assert functorial(X) is X
        pts = eval_points(functorial(X), F3)
        assert len(set(pts)) == n
        again = eval_points(functorial(X), F3)
        assert pts == again and set(pts) == set(again)
