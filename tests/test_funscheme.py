"""Schemes as functors on test algebras: points, covers, locality, gluing."""

import pytest
from hypothesis import given, settings

import oracles as O
import itertools

from support import (
    as_hom,
    atoms_by_search,
    finite_algebras,
    gf3_split,
    open_to_realization,
    product_of_points,
    qq_xy,
    reduced_by_definition,
)
from zariski import funscheme
from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    enumerate_homs,
    make_localization,
    morphism,
)
from zariski.fields import GF, QQ
from zariski.funscheme import (
    NonReducedAlgebraError,
    affine_line,
    affine_plane,
    check_locality,
    connected_factor,
    eval_points,
    functorial,
    atomic_factors,
    is_reduced,
    map_point,
    membership,
    multiplicative_group,
    open_at_point,
    open_from_realization,
    realization,
    representable,
    ring_of_functions,
)
from zariski.lattice import basic_open, eq, top
from zariski.latscheme import CompactOpen, projective_line, punctured_plane, top_open
from zariski.parsing import parse_ring
from zariski.polynomials import PolyRing


def _field_algebra(p):
    return PresentedAlgebra(PolyRing(GF(p), []))


F2, F3, F5 = _field_algebra(2), _field_algebra(3), _field_algebra(5)


@pytest.fixture(scope="module")
def punctured3():
    PP, _, _ = punctured_plane(GF(3))
    return functorial(PP)


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
    assert len(eval_points(functorial(projective_line(GF(2))), F2)) == (
        O.FROZEN_POINT_COUNTS[("projective_line", 2)]
    )
    assert len(eval_points(functorial(projective_line(GF(3))), F3)) == (
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
    P13 = functorial(projective_line(GF(3)))
    assert len(eval_points(P13, D3)) == O.FROZEN_PRODUCT_COUNTS[
        ("projective_line", 3, 2)
    ]
    D2 = product_of_points(2, 2)
    P12 = functorial(projective_line(GF(2)))
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
            homs = enumerate_homs(X.algebra, B)
            assert len(pts) == len(homs)
            assert {as_hom(p) for p in pts} == set(homs)
            for p in pts:
                assert as_hom(map_point(X, p, chi)) == as_hom(p).then(chi)


# -- reducedness guard ------------------------------------------------------------


def test_points_of_glued_schemes_require_reduced_test_algebras(punctured3):
    ring_eps, rels_eps = parse_ring("GF(3)[t]/(t^2)")
    EPS = PresentedAlgebra(ring_eps, rels_eps)
    assert not is_reduced(EPS)
    with pytest.raises(NonReducedAlgebraError):
        eval_points(punctured3, EPS)
    # representable functors accept any test algebra
    assert len(eval_points(affine_line(GF(3)), EPS)) == 9


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


def test_map_point_decides_reducedness_once_per_algebra(monkeypatch, punctured3):
    built = []
    inner = funscheme._frobenius

    def counted(B):
        built.append(B)
        return inner(B)

    monkeypatch.setattr(funscheme, "_frobenius", counted)
    B = gf3_split()
    e = B.var(0)
    assert check_locality(punctured3, B, [e, B.one - e])
    # B and its two localizations, each once for reducedness and once for
    # its atoms, not once per pushed point
    assert len(built) <= 6
    # a remembered "not reduced" still refuses every push
    ring_eps, rels_eps = parse_ring("GF(3)[t]/(t^2)")
    EPS = PresentedAlgebra(ring_eps, rels_eps)
    p = eval_points(punctured3, F3)[0]
    for _ in range(2):
        with pytest.raises(NonReducedAlgebraError, match="non-reduced"):
            map_point(punctured3, p, morphism(F3, EPS, []))


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


@pytest.mark.parametrize("names", [[], ["x"]], ids=["no-vars", "one-var"])
def test_the_trivial_algebra_has_no_atoms(names):
    B = _trivial(names)
    assert atoms_by_search(B) == atomic_factors(B) == []


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
    A3 = plane3.algebra
    x3, y3 = A3.var(0), A3.var(1)
    U3 = CompactOpen(plane3.lat, [basic_open(A3, [x3, y3])])
    pts = eval_points(plane3, F3)
    inside = [p for p in pts if membership(U3, p)]
    assert len(pts) == 9
    assert len(inside) == 8  # only the origin misses D(x, y)
    for p in inside:
        assert eq(open_at_point(U3, p), top(F3))


# -- covers ---------------------------------------------------------------------------


def test_cover_detection_on_the_affine_line():
    line_q = affine_line(QQ)
    Aq = line_q.algebra
    xq = Aq.var(0)
    u_x = CompactOpen(line_q.lat, [basic_open(Aq, [xq])])
    u_1mx = CompactOpen(line_q.lat, [basic_open(Aq, [Aq.one - xq])])
    assert u_x.join(u_1mx).eq(top_open(line_q.lat))
    assert not u_x.eq(top_open(line_q.lat))


# -- realizations of compact opens ------------------------------------------------------


def test_realization_of_the_punctured_plane_has_two_charts():
    plane = affine_plane(QQ)
    Axy = plane.algebra
    x, y = Axy.var(0), Axy.var(1)
    U_xy = CompactOpen(plane.lat, [basic_open(Axy, [x, y])])
    XU = realization(plane, U_xy)
    assert XU.lat.ncharts == 2
    assert realization(plane, U_xy) is XU  # memoized
    cx = open_to_realization(plane, U_xy, CompactOpen(plane.lat, [basic_open(Axy, [x])]))
    cy = open_to_realization(plane, U_xy, CompactOpen(plane.lat, [basic_open(Axy, [y])]))
    assert cx.join(cy).eq(top_open(XU.lat))


def test_opens_round_trip_through_the_realization():
    plane = affine_plane(QQ)
    Axy = plane.algebra
    x, y = Axy.var(0), Axy.var(1)
    U_xy = CompactOpen(plane.lat, [basic_open(Axy, [x, y])])
    XU = realization(plane, U_xy)
    W = CompactOpen(XU.lat, [basic_open(C, [C.var(0)]) for C in XU.lat.charts])
    back = open_from_realization(plane, U_xy, W)
    assert eq(back.components[0], basic_open(Axy, [x]))
    V = CompactOpen(plane.lat, [basic_open(Axy, [y])])
    assert open_from_realization(plane, U_xy, open_to_realization(plane, U_xy, V)).eq(V)


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


# -- ring of functions ----------------------------------------------------------------------


def test_ring_of_functions_of_representables_is_the_algebra():
    ring_d, rels_d = parse_ring("QQ[x]/(x^2)")
    D = PresentedAlgebra(ring_d, rels_d)
    assert ring_of_functions(representable(D)) is D
    GmQ = multiplicative_group(QQ)
    assert ring_of_functions(GmQ) is GmQ.algebra


def test_ring_of_functions_of_glued_schemes_is_a_section_ring(punctured3):
    G = ring_of_functions(punctured3)
    assert G.eq(G.one, G.one)
    assert G.eq(G.mul(G.one, G.zero), G.zero)


# -- functoriality ---------------------------------------------------------------------------


def test_points_push_forward_along_algebra_maps(punctured3):
    B = gf3_split()
    e = B.var(0)
    incl = morphism(F3, B, [])
    loc_e = make_localization(B, e)
    for p in eval_points(punctured3, F3):
        q = map_point(punctured3, p, incl)
        assert q.test_algebra == B
        r = map_point(punctured3, q, loc_e.to_loc)
        assert r.test_algebra == loc_e.algebra
    # pushing forward then evaluating commutes with counting over components
    assert len({map_point(punctured3, p, incl) for p in eval_points(punctured3, F3)}) == 8


def test_point_equality_is_structural():
    line = affine_line(GF(3))
    pts = eval_points(line, F3)
    assert len(set(pts)) == 3
    again = eval_points(line, F3)
    assert set(pts) == set(again)
