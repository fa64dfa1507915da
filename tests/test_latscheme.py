"""Schemes as charts glued along localization isomorphisms.

Covers gluing validation, the compact-open lattice, sections over compact
opens, scheme morphisms with locality checks, and the stock fixtures
(projective line, punctured plane).
"""

from operator import add, mul, sub

import pytest

from paper import (
    chart_element,
    chart_section,
    check_locally_affine,
    constant_section,
    pointwise,
    qcqs_lemma_check,
    restrict_global,
    verify_affine_certificate,
)
from support import projective_space, qq_triple_point, qq_x, qq_xy, spec_morphism
from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    make_localization,
    morphism,
)
from zariski.fields import GF, QQ
from zariski.lattice import basic_open, bottom, eq, top
from zariski.latscheme import (
    CompactOpen,
    GlobalSection,
    LatticeScheme,
    GluingError,
    SchemeMorphism,
    affine_hull_map,
    bottom_open,
    embed_basic,
    invertibility_support_scheme,
    local_morphism_witness,
    Patch,
    extend_over,
    make_patch,
    mk_affine,
    projective_line,
    punctured_plane,
    restrict_scheme,
    section_compatibility_witness,
    top_open,
)
from zariski.parsing import parse_ring
from zariski.polynomials import PolyRing


@pytest.fixture(scope="module")
def p1():
    return projective_line(QQ)


@pytest.fixture(scope="module")
def punctured():
    return punctured_plane(QQ)


def compatible(u):
    """Whether u's components agree across patches: u is the join of the
    opens its components generate."""
    X = u.owner
    spread = bottom_open(X)
    for i, w in enumerate(u.components):
        spread = spread.join(embed_basic(X, i, w))
    return spread.eq(u)


def top_section(X, values):
    """The section over the top of X with one value x/1 per chart."""
    return GlobalSection(
        X, top_open(X), [[make_localization(A, A.one).to_loc(v)] for A, v in zip(X.charts, values)]
    )


# -- gluing validation -------------------------------------------------------------


def test_projective_line_constructs_and_overlaps(p1):
    A0, A1 = p1.charts
    t, s = A0.var(0), A1.var(0)
    assert p1.ncharts == 2
    assert eq(p1.overlap(0, 1), basic_open(A0, [t]))
    assert eq(p1.overlap(1, 0), basic_open(A1, [s]))
    # both orientations of the patch are stored
    assert len(p1.patches_for(0, 1)) == 1
    assert len(p1.patches_for(1, 0)) == 1


def test_a_chart_meets_itself_in_the_identity_patch(p1, punctured):
    for X in (p1, punctured[0]):
        assert all(p.i != p.j for p in X.patches)  # never stored
        for i, A in enumerate(X.charts):
            (p,) = X.patches_for(i, i)
            assert (p.i, p.j) == (i, i) and p.f == p.g == A.one
            assert p.loc_f is p.loc_g is make_localization(A, A.one)
            assert p.fwd == p.bwd == AlgebraMorphism.identity(p.loc_f.algebra)
            assert eq(X.overlap(i, i), top(A))


def test_doubled_origin_gluing_validates():
    A0 = PresentedAlgebra(PolyRing(QQ, ["t"]))
    A1 = PresentedAlgebra(PolyRing(QQ, ["s"]))
    t, s = A0.var(0), A1.var(0)
    doubled = make_patch(
        [A0, A1],
        0,
        1,
        t,
        s,
        [make_localization(A1, s).to_loc(s)],
        [make_localization(A0, t).to_loc(t)],
    )
    X = LatticeScheme([A0, A1], [doubled])
    assert len(X.patches) == 2  # the mirror is added


def test_non_inverse_transition_is_rejected():
    A0 = PresentedAlgebra(PolyRing(QQ, ["t"]))
    A1 = PresentedAlgebra(PolyRing(QQ, ["s"]))
    t, s = A0.var(0), A1.var(0)
    with pytest.raises(GluingError):
        bad = make_patch(
            [A0, A1],
            0,
            1,
            t,
            s,
            [make_localization(A1, s).to_loc(s)],  # forward: t -> s
            [make_localization(A0, t).inverse],  # backward: s -> 1/t
        )
        LatticeScheme([A0, A1], [bad])


def test_conflicting_patches_for_the_same_pair_are_rejected(p1):
    A0, A1 = p1.charts
    t, s = A0.var(0), A1.var(0)
    honest = p1.patches_for(0, 1)[0]
    doubled = make_patch(
        [A0, A1],
        0,
        1,
        t,
        s,
        [make_localization(A1, s).to_loc(s)],
        [make_localization(A0, t).to_loc(t)],
    )
    with pytest.raises(GluingError):
        LatticeScheme([A0, A1], [honest, doubled])


def test_the_projective_plane_checks_each_given_patch_once(monkeypatch):
    checked = []
    real = LatticeScheme._check_patch_iso

    def counting(self, p):
        checked.append((p.i, p.j))
        real(self, p)

    monkeypatch.setattr(LatticeScheme, "_check_patch_iso", counting)
    projective_space(GF(3), 2)
    # a mirror would repeat its patch's checks, so it is not checked
    assert checked == [(0, 1), (0, 2), (1, 2)]


def test_the_projective_plane_validates_its_triple_overlaps(monkeypatch):
    checked = []
    real = LatticeScheme._check_cocycle

    def counting(self, P, Q):
        checked.append((P.i, P.j, Q.j))
        real(self, P, Q)

    monkeypatch.setattr(LatticeScheme, "_check_cocycle", counting)
    X = projective_space(GF(3), 2)
    assert X.ncharts == 3 and len(X.patches) == 6
    # one check per ordered triple of distinct charts (i, j, k) with i < k: a
    # mirror (k, j, i) holds once its twin does
    assert sorted(checked) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]


def test_a_twisted_transition_breaks_the_cocycle():
    X = projective_space(GF(3), 2)
    P = X.patches_for(1, 2)[0]
    A2 = X.charts[2]
    # e -> 2e on chart 2, an involution over GF(3), extended to D(y)
    sigma = AlgebraMorphism(A2, A2, [2 * v for v in A2.gens()])
    twist = extend_over(P.loc_g, sigma.then(P.loc_g.to_loc))
    twisted = Patch(1, 2, P.loc_f, P.loc_g, P.fwd.then(twist), twist.then(P.bwd))
    others = [q for q in X.patches if q.i < q.j and (q.i, q.j) != (1, 2)]
    # each patch alone is still an isomorphism: only the triple overlap fails
    LatticeScheme(X.charts, [twisted])
    with pytest.raises(GluingError) as err:
        LatticeScheme(X.charts, others + [twisted])
    assert str(err.value).startswith("cocycle violation on charts (0,1,2)")


def test_single_chart_scheme_from_an_algebra():
    A = qq_triple_point()
    X = mk_affine(A)
    assert X.ncharts == 1
    assert X.patches == ()


def test_locally_affine_data_for_the_identity():
    A = qq_triple_point()
    X = mk_affine(A)
    x = A.var(0)
    ident = spec_morphism(morphism(A, A, [x]), source=X, target=X)
    to_aff = spec_morphism(morphism(A, A, [x]), source=X)
    frm_aff = spec_morphism(morphism(A, A, [x]), source=to_aff.target, target=X)
    w = top_open(X)
    assert check_locally_affine(ident, [(w, ident.pullback(w), X, A, to_aff, frm_aff)])
    with pytest.raises(ValueError, match="do not cover"):
        check_locally_affine(ident, [])


# -- compact opens -------------------------------------------------------------------


def test_embedded_basic_opens_spread_across_charts(p1):
    A0, A1 = p1.charts
    t, s = A0.var(0), A1.var(0)
    u0 = embed_basic(p1, 0, basic_open(A0, [t]))
    assert eq(u0.components[0], basic_open(A0, [t]))
    assert eq(u0.components[1], basic_open(A1, [s]))
    assert compatible(u0)
    # embedding the part of chart 0 away from the overlap leaves chart 1 empty
    w = embed_basic(p1, 0, basic_open(A0, [t - 1]))
    assert eq(w.components[1], basic_open(A1, [s])) is False
    assert compatible(w)


def test_embedding_keeps_an_open_on_its_own_chart(p1, punctured):
    for X in (p1, punctured[0]):
        for i, A in enumerate(X.charts):
            x = A.var(0)
            samples = [top(A), bottom(A), basic_open(A, [x + 1]), basic_open(A, [x, x - 1])]
            for w in samples + [basic_open(A, [v]) for v in A.gens()]:
                assert embed_basic(X, i, w).components[i] == w


def test_compact_open_lattice_operations(p1):
    A0, A1 = p1.charts
    t, s = A0.var(0), A1.var(0)
    i0 = embed_basic(p1, 0, top(A0))
    i1 = embed_basic(p1, 1, top(A1))
    u0 = embed_basic(p1, 0, basic_open(A0, [t]))
    assert i0.join(i1).eq(top_open(p1))
    assert u0.join(i1).eq(CompactOpen(p1, [basic_open(A0, [t]), top(A1)]))
    assert not u0.join(i1).eq(top_open(p1))
    assert u0.meet(i0).eq(u0)
    assert u0.leq(i0) and not i0.leq(u0)
    assert bottom_open(p1).leq(u0)
    assert top_open(p1).meet(u0).eq(u0)


def test_incompatible_opens_carry_a_witness(p1):
    A0, A1 = p1.charts
    lopsided = CompactOpen(p1, [top(A0), bottom(A1)])
    assert not compatible(lopsided)


# -- sections over compact opens ------------------------------------------------------


def test_global_sections_of_the_projective_line_are_constants(p1):
    two, four = (constant_section(p1, top_open(p1), c) for c in (2, 4))
    assert section_compatibility_witness(two) is None
    assert pointwise(mul, two, two).values == four.values
    assert pointwise(add, two, two).values == four.values
    assert pointwise(sub, two, two).values == constant_section(p1, top_open(p1), 0).values


def test_affine_section_ring_round_trips_the_algebra():
    A = qq_triple_point()
    X = mk_affine(A)
    x = A.var(0)
    for a in (x, x * x - 1, A.const(7), A.zero):
        assert chart_element(chart_section(X, a)) == a
    # ring structure is preserved
    sx = chart_section(X, x)
    assert pointwise(mul, sx, sx).values == chart_section(X, x * x).values


def test_section_values_must_live_in_the_right_localization(p1):
    A0, _ = p1.charts
    t = A0.var(0)
    with pytest.raises(ValueError, match="does not live in the localization"):
        GlobalSection(p1, top_open(p1), [[t], [p1.charts[1].var(0)]])


def test_section_compatibility_witness_names_the_break(p1):
    A0, A1 = p1.charts
    t, s = A0.var(0), A1.var(0)
    l0 = make_localization(A0, A0.one)
    l1 = make_localization(A1, A1.one)
    bad = GlobalSection(p1, top_open(p1), [[l0.to_loc(t)], [l1.to_loc(s)]])
    w = section_compatibility_witness(bad)
    assert w is not None and "disagree" in w
    good = GlobalSection(
        p1,
        top_open(p1),
        [[l0.algebra.const(3)], [l1.algebra.const(3)]],
    )
    assert section_compatibility_witness(good) is None


def test_section_compatibility_witness_within_one_chart():
    X = projective_line(GF(3))
    A0 = X.charts[0]
    t = A0.var(0)
    u = embed_basic(X, 0, basic_open(A0, [t, t + 1]))
    one = constant_section(X, u, 1)
    assert section_compatibility_witness(one) is None
    values = [list(row) for row in one.values]
    values[0][1] = values[0][1].algebra.element(2)
    assert section_compatibility_witness(GlobalSection(X, u, values)) == (
        "chart 0: values over D(t) and D(t + 1) disagree on the overlap: 1 vs 2"
    )


def test_sections_restrict_along_smaller_opens(punctured):
    PP, u_xy, inc = punctured
    C0, C1 = PP.charts
    lc0 = make_localization(C0, C0.one)
    sec = top_section(PP, [C0.var(0), C1.var(0)])
    assert section_compatibility_witness(sec) is None
    half = CompactOpen(PP, [top(C0), bottom(C1)])
    restricted = restrict_global(PP, sec, half)
    assert restricted.values[0][0] == lc0.to_loc(C0.var(0))
    assert restricted.domain.eq(half)


# -- invertibility supports and the affine hull ----------------------------------------


def test_invertibility_support_on_the_punctured_plane(punctured):
    PP, _, _ = punctured
    C0, C1 = PP.charts
    x0, x1 = C0.var(0), C1.var(0)
    sec_x = top_section(PP, [x0, x1])
    sup = invertibility_support_scheme(PP, top_open(PP), sec_x)
    charts = [C0, C1]
    xs = [x0, x1]
    ix = 0 if eq(basic_open(C0, [x0]), top(C0)) else 1
    iy = 1 - ix
    assert eq(sup.components[ix], top(charts[ix]))
    assert eq(sup.components[iy], basic_open(charts[iy], [xs[iy]]))
    assert not eq(sup.components[iy], top(charts[iy]))


def test_affine_hull_identifies_jointly_covering_sections(punctured):
    PP, _, inc = punctured
    plane = inc.target
    Axy = plane.charts[0]
    px, py = Axy.var(0), Axy.var(1)
    C0, C1 = PP.charts
    sec_x = top_section(PP, [C0.var(0), C1.var(0)])
    sec_y = top_section(PP, [C0.var(1), C1.var(1)])
    eta_star = affine_hull_map(PP)
    assert eta_star([constant_section(PP, top_open(PP), 1)]).eq(top_open(PP))
    assert eta_star([sec_x, sec_y]).eq(top_open(PP))
    # downstairs the corresponding opens stay distinct
    assert not eq(basic_open(Axy, [px, py]), top(Axy))


def test_qcqs_invertibility_lemma_on_fixtures(punctured):
    B = qq_x()
    X_line = mk_affine(B)
    s_line = chart_section(X_line, B.var(0))
    assert qcqs_lemma_check(X_line, top_open(X_line), s_line)
    PP, _, _ = punctured
    C0, C1 = PP.charts
    sec_x = top_section(PP, [C0.var(0), C1.var(0)])
    assert qcqs_lemma_check(PP, top_open(PP), sec_x)


# -- morphisms ---------------------------------------------------------------------


def test_spec_is_contravariant_on_algebra_maps():
    A = qq_x()
    x = A.var(0)
    sq = spec_morphism(morphism(A, A, [x * x]))
    assert local_morphism_witness(sq) is None
    u = embed_basic(sq.target, 0, basic_open(A, [A.var(0)]))
    pulled = sq.pullback(u)
    # preimage of D(x) under x -> x^2 is D(x^2) = D(x)
    assert eq(pulled.components[0], basic_open(A, [x]))


def test_affine_certificates_verify():
    ring, rels = parse_ring("QQ[x]/(x^3 - x)")
    A = PresentedAlgebra(ring, rels)
    SpA = mk_affine(A)
    x = A.var(0)
    to_aff = spec_morphism(morphism(A, A, [x]), source=SpA)
    frm_aff = spec_morphism(morphism(A, A, [x]), source=to_aff.target, target=SpA)
    assert verify_affine_certificate(SpA, A, to_aff, frm_aff)


def test_broken_morphisms_are_detected_with_a_witness():
    B = qq_x()
    X = mk_affine(B)
    Y = mk_affine(B)

    def broken_open(j, w):
        return top_open(X)

    loc1 = make_localization(B, B.one)
    kill = AlgebraMorphism(B, loc1.algebra, [loc1.algebra.zero])
    broken = SchemeMorphism(X, Y, broken_open, [[(0, B.one, kill)]])
    assert local_morphism_witness(broken) is not None


# -- restriction to opens ---------------------------------------------------------------


def test_punctured_plane_is_the_plane_away_from_the_origin(punctured):
    PP, u_xy, inc = punctured
    plane = inc.target
    assert plane.ncharts == 1
    assert PP.ncharts == 2
    assert local_morphism_witness(inc) is None
    originals = [p for p in PP.patches if p.i < p.j]
    LatticeScheme(PP.charts, originals, validate=True)  # re-validates
    # the two pieces of the plane meet through its identity patch
    assert repr(originals) == "[Patch(0->1: D(x) ~ D(y))]"


def test_restricting_across_charts_gives_a_local_inclusion():
    X = projective_line(GF(3))
    A0 = X.charts[0]
    t = A0.var(0)
    u = embed_basic(X, 0, basic_open(A0, [t, t + 1]))
    Xu, inc = restrict_scheme(X, u)
    # two pieces on each chart: chart_open reaches pieces of the other chart
    assert Xu.ncharts == 4
    assert local_morphism_witness(inc) is None


def test_restricting_to_the_bottom_leaves_nothing():
    plane = mk_affine(qq_xy())
    E, inc_e = restrict_scheme(plane, bottom_open(plane))
    assert E.ncharts == 0


def test_restricting_an_affine_line_to_a_basic_open():
    A = qq_x()
    X = mk_affine(A)
    u = embed_basic(X, 0, basic_open(A, [A.var(0)]))
    Xu, inc = restrict_scheme(X, u)
    assert Xu.ncharts == 1
    # the restricted chart presents A localized at x
    assert Xu.charts[0] == make_localization(A, A.var(0)).algebra
    assert local_morphism_witness(inc) is None
