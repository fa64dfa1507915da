"""The extensional comparison between the two scheme presentations.

Points of the functor side become validated morphisms of the lattice side
and come back unchanged; distinct points stay extensionally distinct;
compact opens act pointwise; section supports agree with their pointwise
meaning; realizations of compact opens are certified isomorphic to their
gluing data; the whole bundle is wrapped by comparison_check.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from paper import open_from_realization, ring_of_functions
from support import (
    NILPOTENT_CASES,
    NILPOTENT_IDS,
    affine_opens,
    as_hom,
    carry_point_in,
    finite_algebras,
    gf3_split,
    morphisms_agree,
    multiplicative_group,
    natural_by_pullbacks,
    nilpotent_algebra,
    product_of_points,
    projective_space,
    sample_opens,
    section_value_at_point,
    spec_morphism,
)
from zariski import compare, latscheme, sheaf
from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    enumerate_homs,
    make_localization,
    morphism,
)
from zariski.compare import (
    adjunction_flat,
    comparison_check,
    point_morphism,
    realization_certificate,
)
from zariski.fields import GF, QQ
from zariski.funscheme import (
    atomic_factors,
    eval_points,
    open_at_point,
    realization,
)
from zariski.lattice import basic_open, eq, join, leq, meet, top
from zariski.latscheme import (
    CompactOpen,
    GlobalSection,
    LatticeScheme,
    SchemeMorphism,
    _inclusion,
    embed_basic,
    invertibility_support_scheme,
    local_morphism_witness,
    local_samples,
    make_patch,
    mk_affine,
    projective_line,
    punctured_plane,
    top_open,
)
from zariski.parsing import parse_ring
from zariski.polynomials import PolyRing


F2 = PresentedAlgebra(PolyRing(GF(2), []))
F3 = PresentedAlgebra(PolyRing(GF(3), []))
F5 = PresentedAlgebra(PolyRing(GF(5), []))


def quadratic_field(p: int, c: int) -> PresentedAlgebra:
    """GF(p)[t] / (t^2 - c), the field GF(p^2) when c is a non-square mod p."""
    ring = PolyRing(GF(p), ["t"])
    (t,) = ring.gens()
    return PresentedAlgebra(ring, [t * t - c])


GF9 = quadratic_field(3, -1)
GF25 = quadratic_field(5, 2)


def affine_line(p: int):
    return mk_affine(PresentedAlgebra(PolyRing(GF(p), ["x"])))


@pytest.fixture(scope="module")
def a1():
    A1 = PresentedAlgebra(PolyRing(GF(3), ["x"]))
    return mk_affine(A1)


@pytest.fixture(scope="module")
def p13():
    return projective_line(GF(3))


def local_point_morphism(p):
    """The morphism a point carries, checked to be local."""
    pi = point_morphism(p)
    assert local_morphism_witness(pi) is None
    return pi


# -- points become validated morphisms and come back --------------------------------


def test_affine_points_round_trip_through_the_adjunction(a1):
    pts = eval_points(a1, F3)
    assert len(pts) == O.FROZEN_POINT_COUNTS[("affine_line", 3)]
    A1 = a1.charts[0]
    assert [as_hom(p) for p in pts] == enumerate_homs(A1, F3)
    for p in pts:
        pi = local_point_morphism(p)
        assert adjunction_flat(pi) == p


def test_projective_points_round_trip_through_the_adjunction(p13):
    pts = eval_points(p13, F3)
    assert len(pts) == O.FROZEN_POINT_COUNTS[("projective_line", 3)]
    for p in pts:
        pi = local_point_morphism(p)
        assert adjunction_flat(pi) == p


def test_the_trivial_test_algebra_has_exactly_one_point(a1):
    TRIV = F3.with_relations([F3.one.poly])
    assert len(eval_points(a1, TRIV)) == 1


def test_the_point_over_the_zero_ring_over_qq_round_trips_through_the_adjunction():
    """Spec of the zero ring has no chart piece to map, and the morphism of
    its one point flattens back to that point, which has no factors."""
    Z = PresentedAlgebra(*parse_ring("QQ[t]/(1)"))
    (p,) = eval_points(projective_line(QQ), Z)
    pi = point_morphism(p)
    assert pi.chart_comorphisms == ((), ())
    assert adjunction_flat(pi) == p and p.factors == ()


def test_distinct_points_carry_extensionally_distinct_morphisms(p13):
    opens = sample_opens(p13)
    for B in (F3, gf3_split()):
        pts = eval_points(p13, B)
        sharp = [local_point_morphism(p) for p in pts]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                assert not morphisms_agree(sharp[a], sharp[b], opens)


@pytest.mark.parametrize(
    "X, B",
    [(projective_line(GF(3)), gf3_split()), (affine_line(3), GF9)],
    ids=["P1/GF3xGF3", "A1/GF9"],
)
def test_every_point_morphism_agrees_with_itself(X, B):
    opens = sample_opens(X)
    for p in eval_points(X, B):
        pi = point_morphism(p)
        assert morphisms_agree(pi, point_morphism(p), opens)
        assert morphisms_agree(pi, pi, opens)  # one object on both sides


def test_repeated_pullbacks_equal_a_fresh_morphisms():
    """A morphism remembers nothing: asking it again, or asking a fresh
    morphism of the same point, gives the same opens and pieces."""
    X = projective_line(GF(3))
    opens = sample_opens(X)
    A0 = X.charts[0]
    loc1 = make_localization(A0, A0.one)
    value = loc1.to_loc(A0.var(0))
    for p in eval_points(X, gf3_split()):
        pi = point_morphism(p)
        assert not hasattr(pi, "_memo")
        assert local_morphism_witness(pi) is None
        for u in opens:
            first = pi.pullback(u)
            assert pi.pullback(u) == first
            assert point_morphism(p).pullback(u) == first
        pieces = pi.pull_basic(0, A0.one, value)
        assert isinstance(pieces, tuple)
        assert pi.pull_basic(0, A0.one, value) == pieces
        assert point_morphism(p).pull_basic(0, A0.one, value) == pieces


def test_point_morphisms_of_products_round_trip(p13):
    D3 = product_of_points(3, 2)
    pts = eval_points(p13, D3)
    assert len(pts) == O.FROZEN_PRODUCT_COUNTS[("projective_line", 3, 2)]
    for p in pts[:4]:
        pi = local_point_morphism(p)
        assert adjunction_flat(pi) == p


# -- compact opens act pointwise ------------------------------------------------------


def test_opens_act_pointwise_preserving_the_lattice(p13):
    X = p13
    A0, A1 = X.charts
    u_t = embed_basic(X, 0, basic_open(A0, [A0.var(0)]))
    u_inf = embed_basic(X, 1, basic_open(A1, [A1.var(0)]))
    for p in eval_points(p13, F3):
        at = open_at_point
        assert eq(at(u_t.join(u_inf), p), join(at(u_t, p), at(u_inf, p)))
        assert eq(at(u_t.meet(u_inf), p), meet(at(u_t, p), at(u_inf, p)))
        assert eq(at(top_open(X), p), top(F3))


def test_membership_counts_on_the_projective_line(p13):
    X = p13
    A0 = X.charts[0]
    u_t = embed_basic(X, 0, basic_open(A0, [A0.var(0)]))
    pts = eval_points(p13, F3)
    assert sum(1 for p in pts if eq(open_at_point(u_t, p), top(F3))) == 2  # misses 0 and infinity


# -- realizations of compact opens ------------------------------------------------------


def _assert_realized_points_biject_with_members(B, X, u):
    """The points of the realization of u, pushed along its inclusion, are
    the points of X(B) in u, each once; and the morphism a pushed point
    carries pulls each sample open back as the realized point's morphism
    pulls back the open's preimage in u.  Returns the realized points."""
    Xu = realization(u)
    inc = _inclusion(u, Xu)
    inner = eval_points(Xu, B)
    carried = [carry_point_in(u, p) for p in inner]
    assert len(set(carried)) == len(carried)
    assert set(carried) == {q for q in eval_points(X, B) if eq(open_at_point(u, q), top(B))}
    opens = sample_opens(X)
    preimages = [inc.pullback(U) for U in opens]
    for p, q in zip(inner, carried):
        here, there = point_morphism(p), point_morphism(q)
        for U, V in zip(opens, preimages):
            assert there.pullback(U).eq(here.pullback(V)), (p, U)
    return inner


def test_realized_points_biject_with_members():
    A2 = PresentedAlgebra(PolyRing(GF(3), ["x", "y"]))
    plane = mk_affine(A2)
    u_punct = CompactOpen(plane, [basic_open(A2, [A2.var(0), A2.var(1)])])
    inner = _assert_realized_points_biject_with_members(F3, plane, u_punct)
    assert len(inner) == O.FROZEN_POINT_COUNTS[("punctured_plane", 3)]


@settings(max_examples=80)
@given(finite_algebras(max_size=9), st.data())
def test_realized_points_of_random_opens_biject_with_members(B, data):
    """u = D(g_1..g_k) on A¹ or A² over the field of B."""
    _assert_realized_points_biject_with_members(B, *data.draw(affine_opens(B.field)))


@settings(max_examples=20)
@given(finite_algebras(max_size=25), st.data())
def test_the_comparison_verifies_the_realizations_of_random_opens(B, data):
    """``comparison_check(X_u, [B])`` is VERIFIED for the realization X_u
    of u = D(g_1..g_k) on A¹ or A² over the field of B."""
    _, u = data.draw(affine_opens(B.field))
    ok, report = comparison_check(realization(u), [B])
    assert ok, report


def _with_a_zero_chart(X):
    """X with the zero algebra GF(3)[x]/(1) as one more chart, glued to no
    other: the same scheme, as a zero chart has no points."""
    return LatticeScheme(X.charts + (_algebra("GF(3)[x]/(1)"),), X.patches)


def test_realization_certificates_hold_for_the_fixtures(a1, p13):
    assert realization_certificate(a1) is None
    assert realization_certificate(p13) is None
    Xu, _, _ = punctured_plane(GF(3))
    assert realization_certificate(Xu) is None
    # the top open has no piece on a zero chart, so neither has its realization
    assert realization_certificate(mk_affine(_algebra("GF(3)[x]/(1)"))) is None
    assert realization_certificate(_with_a_zero_chart(p13)) is None


def test_a_realized_patch_that_glues_differently_is_refuted():
    """The realized top of P^1 swapped for that of the line glued by t ->
    2/s: the charts are P^1's, the patch matches none of P^1's."""
    X = projective_line(GF(3))
    A0, A1 = X.charts
    t, s = A0.var(0), A1.var(0)
    inv_t, inv_s = make_localization(A0, t).inverse, make_localization(A1, s).inverse
    twisted = LatticeScheme(
        X.charts, [make_patch(X.charts, 0, 1, t, s, [2 * inv_s], [2 * inv_t])]
    )
    X._memo[("realized", top_open(X))] = realization(top_open(twisted))
    assert realization_certificate(X) == (
        "realized patch between charts 0 and 1 at D(t) does not match any original patch"
    )


@pytest.mark.parametrize(
    "plant, refusal",
    [
        (lambda X: realization(top_open(mk_affine(X.charts[0]))),
         "realized top does not have one chart per original chart"),
        (lambda X: LatticeScheme(X.charts, X.patches), "realized chart 0 is not the localization at 1"),
        (lambda X: realization(top_open(LatticeScheme(X.charts, ()))),
         "realized top has 0 patches where the original data has 1"),
    ],
    ids=["one-chart", "unlocalized", "unglued"],
)
def test_a_realized_top_that_does_not_reproduce_the_charts_is_refuted(plant, refusal):
    """P^1's remembered realization of its top swapped for the top of
    chart 0 alone, for P^1 itself, and for its two charts with no patch."""
    X = projective_line(GF(3))
    X._memo[("realized", top_open(X))] = plant(X)
    assert realization_certificate(X) == refusal


def test_a_realization_builds_no_morphism(monkeypatch):
    """Realizing the top open, alone or inside a verified comparison,
    constructs no ``SchemeMorphism``, and remembers the realized scheme
    alone.  The spy sees the one inclusion ``punctured_plane`` returns."""
    built = []
    inner = SchemeMorphism.__init__

    def counted(self, *args):
        built.append(args[0])
        inner(self, *args)

    monkeypatch.setattr(SchemeMorphism, "__init__", counted)
    for X in (projective_line(GF(3)), projective_space(GF(3), 3)):
        realization(top_open(X))
        assert built == []
        assert isinstance(X._memo[("realized", top_open(X))], LatticeScheme)
    ok, report = comparison_check(projective_line(GF(3)), [F3])
    assert ok and report["realization"] == "ok", report
    assert built == []
    Xu, _, _ = punctured_plane(GF(3))
    assert built == [Xu]


# -- sections and supports ----------------------------------------------------------------


def test_section_support_over_the_whole_line(a1):
    A1 = a1.charts[0]
    t_top = top_open(a1)
    Y_top = realization(t_top)
    assert isinstance(ring_of_functions(Y_top), PresentedAlgebra)
    C_top = Y_top.charts[0]
    loc_top = make_localization(C_top, C_top.one)
    s_x = GlobalSection(top_open(Y_top), [[loc_top.to_loc(C_top.var(0))]])
    W = invertibility_support_scheme(s_x)
    supp = open_from_realization(t_top, W)
    assert eq(supp.components[0], basic_open(A1, [A1.var(0)]))


def test_section_support_over_a_smaller_open_multiplies_in(a1):
    A1 = a1.charts[0]
    x = A1.var(0)
    u_shift = embed_basic(a1, 0, basic_open(A1, [x + A1.one]))
    Y_u = realization(u_shift)
    C_u = Y_u.charts[0]
    loc_u = make_localization(C_u, C_u.one)
    s_xu = GlobalSection(top_open(Y_u), [[loc_u.to_loc(C_u.var(0))]])
    W = invertibility_support_scheme(s_xu)
    supp_u = open_from_realization(u_shift, W)
    assert eq(supp_u.components[0], basic_open(A1, [(x + A1.one) * x]))
    # pointwise: the support's value at each point is the basic open of the
    # section's value there
    for rp in eval_points(Y_u, F3):
        b = section_value_at_point(s_xu, rp)
        p_amb = carry_point_in(u_shift, rp)
        assert eq(basic_open(F3, [b]), open_at_point(supp_u, p_amb))


# -- fullness on an independent morphism -----------------------------------------------------


def test_independent_spec_morphisms_land_in_the_image(a1):
    A1 = a1.charts[0]
    ring_b = PolyRing(GF(3), ["a"])
    B27 = PresentedAlgebra(ring_b, [ring_b.var(0) ** 3 - ring_b.var(0)])
    phi = AlgebraMorphism(A1, B27, [B27.var(0)])
    target = a1
    pi_ind = spec_morphism(phi, target=target)
    p_back = adjunction_flat(pi_ind)
    assert len(p_back.factors) == 3  # B27 splits into three points
    pi_round = point_morphism(p_back)
    assert morphisms_agree(
        pi_round,
        spec_morphism(phi, source=pi_round.source, target=target),
        sample_opens(target),
    )


# -- the bundled comparison -------------------------------------------------------------------


def test_comparison_check_on_the_projective_line_with_naturality(p13):
    D3 = product_of_points(3, 2)
    diag3 = AlgebraMorphism(F3, D3, [])
    pr0 = AlgebraMorphism(D3, F3, [F3.zero])
    pr1 = AlgebraMorphism(D3, F3, [F3.one])
    ok, report = comparison_check(p13, [F3, D3], morphisms=[diag3, pr0, pr1])
    assert ok, report
    assert report["natural"]
    assert report["realization"] == "ok"
    assert report["counts"] == [
        O.FROZEN_POINT_COUNTS[("projective_line", 3)],
        O.FROZEN_PRODUCT_COUNTS[("projective_line", 3, 2)],
    ] == [4, 16]
    for entry in report["per_algebra"]:
        assert entry["morphisms_valid"]
        assert entry["roundtrip"]
        assert entry["distinct"]


@pytest.mark.parametrize(
    "X, B, image, relation",
    [
        (affine_line(3), GF9, GF9.var(0) + 1, "t^2 + 1 maps to 2*t + 1"),
        (projective_line(GF(3)), GF9, GF9.var(0) + 1, "t^2 + 1 maps to 2*t + 1"),
        (affine_line(3), gf3_split(), 2, "e^2 + 2*e maps to 2"),
    ],
    ids=["A1/GF9", "P1/GF9", "A1/GF3xGF3"],
)
def test_comparison_check_refuses_a_map_that_is_not_a_morphism(monkeypatch, X, B, image, relation):
    """A naturality map chi: B -> B that sends a relation of B to a nonzero
    element is refused before any point is enumerated.  Unchecked, A¹ passed
    along t -> t + 1, P¹ blamed a point and the split case raised
    ``NonReducedAlgebraError``, although B is reduced."""
    chi = AlgebraMorphism(B, B, [image])
    assert not chi.is_valid()
    monkeypatch.setattr(compare, "eval_points", None)
    with pytest.raises(ValueError, match=re.escape(f"not an algebra morphism: relation {relation}")):
        comparison_check(X, [B], morphisms=[chi])


@pytest.mark.parametrize(
    "n, p",
    [
        pytest.param(n, p, id=str(p) if n == 2 else f"{p}-P{n}")
        for n in (1, 2, 3, 4)
        for p in (2, 3)
    ],
)
def test_comparison_check_on_the_projective_plane(n, p):
    """Pⁿ over GF(p), n + 1 charts glued pairwise, has (p^(n+1) - 1)/(p - 1)
    points.  The plane's cases keep the ids [2] and [3]."""
    F = PresentedAlgebra(PolyRing(GF(p), []))
    ok, report = comparison_check(projective_space(GF(p), n), [F])
    assert ok, report
    assert report["counts"] == [(p ** (n + 1) - 1) // (p - 1)]


@pytest.mark.parametrize(
    "make, count",
    [
        pytest.param(lambda: mk_affine(_algebra("GF(3)[x]/(1)")), 0, id="empty"),
        pytest.param(lambda: _with_a_zero_chart(projective_line(GF(3))), 4, id="P1+zero"),
    ],
)
def test_comparison_check_verifies_a_scheme_with_a_zero_chart(make, count):
    ok, report = comparison_check(make(), [F3])
    assert ok, report
    assert report["counts"] == [count]
    assert report["realization"] == "ok"


def test_comparison_check_on_the_punctured_plane():
    Xu, _, _ = punctured_plane(GF(3))
    ok, report = comparison_check(Xu, [F3])
    assert ok, report
    assert report["counts"] == [O.FROZEN_POINT_COUNTS[("punctured_plane", 3)]]


def test_comparison_check_on_the_punctured_plane_over_a_quadratic_field():
    Xu, _, _ = punctured_plane(GF(3))
    ok, report = comparison_check(Xu, [GF9])
    assert ok, report
    assert report["counts"] == [9 * 9 - 1]


def test_the_generic_check_of_a_punctured_plane_point_over_a_quadratic_field():
    Xu, _, _ = punctured_plane(GF(3))
    p = eval_points(Xu, GF9)[11]
    assert repr(p) == "<point e=1: chart 0, (t, t + 1, t + 2)>"
    assert local_morphism_witness(point_morphism(p)) is None


# -- one table per point: locality, distinctness and the roundtrip, per atom ------------


def _algebra(text: str) -> PresentedAlgebra:
    return PresentedAlgebra(*parse_ring(text))


def _table(X, p):
    """The point's values on ``local_samples(X)``, locality and roundtrip."""
    return compare._atom_table(p, compare._sample_plan(X))


def _count_tables(monkeypatch):
    calls = []
    inner = compare._atom_table

    def counted(p, *rest):
        calls.append(p)
        return inner(p, *rest)

    monkeypatch.setattr(compare, "_atom_table", counted)
    return calls


REDUCED_CASES = [
    (projective_line(GF(3)), gf3_split()),
    (affine_line(3), GF9),
    (punctured_plane(GF(3))[0], F3),
]
REDUCED_IDS = ["P1/GF3xGF3", "A1/GF9", "PP/GF3"]
# local factors that are not fields: x may go to a nonzero nilpotent
NON_REDUCED_CASES = [
    (affine_line(3), _algebra("GF(3)[t]/(t^2)")),
    (affine_line(2), _algebra("GF(2)[s,t]/(s^2, t^2)")),
    (multiplicative_group(GF(3)), _algebra("GF(3)[t]/(t^2)")),
    (projective_line(GF(3)), _algebra("GF(3)[t]/(t^2)")),
    (punctured_plane(GF(2))[0], _algebra("GF(2)[t]/(t^2)")),
]
NON_REDUCED_IDS = ["A1/GF3-t2", "A1/GF2-s2t2", "Gm/GF3-t2", "P1/GF3-t2", "PP/GF2-t2"]
FINGERPRINT_CASES = REDUCED_CASES + NON_REDUCED_CASES
FINGERPRINT_IDS = REDUCED_IDS + NON_REDUCED_IDS


def _assert_the_table_matches_the_generic_checkers(X, pts):
    """Per point, the table's locality verdict is ``local_morphism_witness``'s
    and its roundtrip ``adjunction_flat``'s; equal values are
    ``morphisms_agree`` on every pair, with the first point taken twice.
    Morphisms remember nothing, so each one's pullbacks of the sample opens
    are taken once here, and ``morphisms_agree`` compares the samples."""
    opens, samples = sample_opens(X), local_samples(X)
    carried, pulled, prints = [], [], []
    for p in pts + pts[:1]:
        values, local, roundtrip = _table(X, p)
        pi = point_morphism(p)
        assert local == (local_morphism_witness(pi) is None), p
        assert roundtrip == (adjunction_flat(pi) == p), p
        carried.append(pi)
        pulled.append([pi.pullback(u) for u in opens])
        prints.append(values)
    for a in range(len(carried)):
        for b in range(a + 1, len(carried)):
            same_opens = all(u.eq(v) for u, v in zip(pulled[a], pulled[b]))
            agree = same_opens and morphisms_agree(carried[a], carried[b], (), samples)
            assert (prints[a] == prints[b]) == agree, (pts[a], b)
            # the first point taken a second time is the only pair that agrees
            assert agree == (a == 0 and b == len(pts))


@pytest.mark.parametrize("X, B", FINGERPRINT_CASES, ids=FINGERPRINT_IDS)
def test_fingerprints_are_equal_exactly_when_the_morphisms_agree(X, B):
    _assert_the_table_matches_the_generic_checkers(X, eval_points(X, B))


@pytest.mark.parametrize("X, B", FINGERPRINT_CASES, ids=FINGERPRINT_IDS)
def test_the_fingerprint_decides_every_sample_opens_pullback(X, B):
    """For a local morphism the table's values fix the pulled-back opens:
    D(x_k) of chart j pulls back to the atoms where x_k's value is a unit,
    chart j's top to the atoms where 1 has a value, and X's top to all."""
    samples = local_samples(X)
    factors = atomic_factors(B)
    every = set(range(len(factors)))

    def is_unit(c):
        return c.algebra.try_invert(c) is not None

    for p in eval_points(X, B):
        values, local, _ = _table(X, p)
        assert local
        values = dict(zip(samples, values))
        expected = [(top_open(X), every)]
        for j, A in enumerate(X.charts):
            loc1 = make_localization(A, A.one)
            at_one = values[(j, A.one, loc1.algebra.one)]
            expected.append((
                embed_basic(X, j, top(A)),
                {idx for idx in every if at_one[idx] is not None},
            ))
            for k in range(A.nvars):
                at_x = values[(j, A.one, loc1.to_loc(A.var(k)))]
                expected.append((
                    embed_basic(X, j, basic_open(A, [A.var(k)])),
                    {idx for idx in every if at_x[idx] is not None and is_unit(at_x[idx])},
                ))
        assert [u for (u, _) in expected] == sample_opens(X)
        pi = point_morphism(p)
        for u, atoms in expected:
            w = pi.pullback(u).components[0]
            assert atoms == {
                idx for idx, (e, _) in enumerate(factors) if leq(basic_open(B, [e]), w)
            }, u


@pytest.mark.parametrize(
    "B", [GF9, gf3_split(), _algebra("GF(3)[t]/(t^2)")], ids=["GF9", "GF3xGF3", "GF3-t2"]
)
def test_a_sample_over_a_smaller_piece_takes_inverse_values(monkeypatch, B):
    """The section 1/x over D(x) is n/f**k with k = 1: its value at an atom
    is the inverse of x's value there, None where that is not a unit."""
    X = affine_line(3)
    x = X.charts[0].var(0)
    loc = make_localization(X.charts[0], x)
    inverse = (0, x, loc.algebra.var(loc.inv_index))
    monkeypatch.setattr(compare, "local_samples", lambda Y: local_samples(Y) + (inverse,))
    plan = compare._sample_plan(X)
    assert plan[-1][3] == 1
    for p in eval_points(X, B):
        values, local, roundtrip = compare._atom_table(p, plan)
        assert local and roundtrip
        images = [phi.images[0] for (_, _, phi) in p.factors]
        assert values[-1] == tuple(b.algebra.try_invert(b) for b in images)


def test_a_support_that_disagrees_with_the_values_is_not_local():
    """Give the sample x the support of the sample 1: at the point x = 0 the
    value of x is not a unit, yet the point now lies in the support."""
    X = affine_line(3)
    (j, f, n, k, _), one = compare._sample_plan(X)
    wrong = [(j, f, n, k, one[4]), one]
    points = eval_points(X, F3)
    assert [as_hom(p).images[0] for p in points] == [F3.zero, F3.one, -F3.one]
    assert [compare._atom_table(p, wrong)[1:] for p in points] == [
        (False, False), (True, True), (True, True)
    ]


def test_the_non_reduced_cases_send_x_to_a_nonzero_nilpotent():
    for X, B in NON_REDUCED_CASES[:2]:
        images = [as_hom(p).images[0] for p in eval_points(X, B)]
        assert any(not x.is_zero() and (x * x).is_zero() for x in images)


def test_a_repeated_point_is_reported_first_pair_first(monkeypatch):
    """Points 9 and 7 get the tables of points 1 and 3: the pairwise sweep
    meets (1, 9) before (3, 7), although 7 comes before 9."""
    X, B = projective_line(GF(3)), gf3_split()
    inner, pts = compare._atom_table, []

    def twinned(p, *rest):
        pts.append(p)
        k = len(pts) - 1
        return inner(pts[{9: 1, 7: 3}.get(k, k)], *rest)

    monkeypatch.setattr(compare, "_atom_table", twinned)
    ok, report = comparison_check(X, [B])
    assert not ok
    (entry,) = report["per_algebra"]
    assert entry["morphisms_valid"] and entry["roundtrip"] and not entry["distinct"]
    assert entry["witness"] == (
        f"points {pts[1]!r} and {pts[9]!r} carry extensionally equal morphisms"
    )


@pytest.mark.parametrize("X, B", REDUCED_CASES, ids=REDUCED_IDS)
def test_comparison_over_a_reduced_algebra_compares_no_pairs(monkeypatch, X, B):
    calls = _count_tables(monkeypatch)
    ok, report = comparison_check(X, [B])
    assert ok, report
    assert len(calls) == len(set(calls)) == report["counts"][0]


def test_comparison_over_a_non_reduced_algebra_compares_no_pairs(monkeypatch):
    calls = _count_tables(monkeypatch)
    ok, report = comparison_check(affine_line(3), [_algebra("GF(3)[t]/(t^2)")])
    assert ok, report
    assert report["counts"] == [9]
    assert len(calls) == len(set(calls)) == 9


@pytest.mark.parametrize("p, k, split", NILPOTENT_CASES, ids=NILPOTENT_IDS)
def test_glued_schemes_compare_over_algebras_with_nilpotents(p, k, split):
    B = nilpotent_algebra(p, k, split)
    chi = morphism(PresentedAlgebra(PolyRing(GF(p), [])), B, [])
    for name, X in (
        ("projective_line", projective_line(GF(p))),
        ("punctured_plane", punctured_plane(GF(p))[0]),
    ):
        count = O.FROZEN_NILPOTENT_COUNTS[(name, p, k, split)]
        ok, report = comparison_check(X, [B], morphisms=[chi])
        assert ok, report
        assert report["counts"] == [count]


def test_comparison_over_a_thick_point_verifies_every_point():
    ok, report = comparison_check(affine_line(5), [_algebra("GF(5)[t]/(t^3)")])
    assert ok, report
    assert report["counts"] == [125]


@settings(max_examples=25)
@given(finite_algebras(max_size=27))
def test_fingerprints_decide_agreement_over_random_finite_algebras(B):
    """The table against the generic checkers on every point of the fixture
    schemes.  Multi-chart schemes take reduced algebras of at most 9 (the
    projective line) or 5 elements (the punctured plane): the oracle
    compares every pair of points."""
    F, size = B.field, len(B.enumerate_elements())
    schemes = [affine_line(F.char), multiplicative_group(F)]
    schemes += [projective_line(F)] * (size <= 9) + [punctured_plane(F)[0]] * (size <= 5)
    for X in schemes:
        _assert_the_table_matches_the_generic_checkers(X, eval_points(X, B))
        ok, report = comparison_check(X, [B])
        assert ok, report


@settings(max_examples=25)
@given(finite_algebras(max_size=27), st.data())
def test_naturality_by_tables_agrees_with_the_pullback_oracle(B, data):
    """Naturality along the Frobenius of B, along GF(p) -> B and along B ->
    B/(1 - e) for an atom e: the table verdict of ``comparison_check``
    against pulling every sample open back through both sides of the
    square, on the affine line, the projective line (B of at most 9
    elements) and the punctured plane (at most 5)."""
    F, size = B.field, len(B.enumerate_elements())
    atoms = atomic_factors(B)
    kind = data.draw(st.sampled_from(["frobenius", "constants"] + ["factor"] * bool(atoms)))
    if kind == "frobenius":
        chi = AlgebraMorphism(B, B, [v**F.char for v in B.gens()])
    elif kind == "constants":
        chi = AlgebraMorphism(PresentedAlgebra(PolyRing(F, [])), B, [])
    else:
        chi = data.draw(st.sampled_from(atoms))[1]
    schemes = [affine_line(F.char)]
    schemes += [projective_line(F)] * (size <= 9) + [punctured_plane(F)[0]] * (size <= 5)
    for X in schemes:
        ok, report = comparison_check(X, [B], morphisms=[chi])
        assert ok and report["natural"], report
        assert all(
            natural_by_pullbacks(p, chi) for p in eval_points(X, chi.source)
        )


@pytest.mark.parametrize("twist", ["next point", "identity for Frobenius"])
def test_a_point_pushed_to_the_wrong_point_is_refuted(monkeypatch, twist):
    """``map_point`` sends each point to the next point of A^1(GF9), or
    pushes it along the identity in place of Frobenius: the first point it
    moves is named with chi, the sample and both values."""
    X, frobenius = affine_line(3), AlgebraMorphism(GF9, GF9, [GF9.var(0) ** 3])
    honest = compare.map_point

    def twisted(p, chi):
        if twist == "next point":
            pts = eval_points(p.scheme, chi.target)
            return pts[(pts.index(honest(p, chi)) + 1) % len(pts)]
        return honest(p, AlgebraMorphism.identity(GF9))

    monkeypatch.setattr(compare, "map_point", twisted)
    ok, report = comparison_check(X, [GF9], morphisms=[frobenius])
    assert not ok and not report["natural"]
    pushed = [(p, twisted(p, frobenius)) for p in eval_points(X, GF9)]
    p, q = next((p, q) for p, q in pushed if q != honest(p, frobenius))
    x_at_q, x_at_p = as_hom(q).images[0], as_hom(p).images[0]
    assert report["naturality_witness"] == (
        f"point {p!r} along {frobenius!r} at chart 0, D(1), x/(1)**0: "
        f"({x_at_q}) at the pushed point vs ({x_at_p ** 3}) pushed"
    )


# -- a point the table rejects is reported, never passed -------------------------------------


def _reject_one_point(monkeypatch, at, what):
    """Make the table turn down ``what`` ("local" or "roundtrip") at the
    point of index ``at``; returns the points in the order tabled."""
    calls = _count_tables(monkeypatch)
    counted = compare._atom_table

    def rejecting(p, *rest):
        values, local, roundtrip = counted(p, *rest)
        if len(calls) - 1 == at:
            return values, local and what != "local", roundtrip and what != "roundtrip"
        return values, local, roundtrip

    monkeypatch.setattr(compare, "_atom_table", rejecting)
    return calls


def _broken(p):
    """A morphism that pulls every open back to the top but kills x."""
    X, S = p.scheme, mk_affine(p.test_algebra)
    B = p.test_algebra
    loc1 = make_localization(B, B.one)
    kill = AlgebraMorphism(X.charts[0], loc1.algebra, [loc1.algebra.zero])
    return SchemeMorphism(S, X, lambda j, w: top_open(S), [[(0, B.one, kill)]])


def _raise(p):
    raise ValueError("no morphism for this point")


@pytest.mark.parametrize("carry", [None, _broken, _raise], ids=["honest", "broken", "raises"])
def test_a_point_the_table_finds_not_local_is_reported(monkeypatch, carry):
    X = affine_line(3)
    pts = _reject_one_point(monkeypatch, 1, "local")
    if carry is not None:
        monkeypatch.setattr(compare, "point_morphism", carry)
    ok, report = comparison_check(X, [F3])
    assert not ok
    (entry,) = report["per_algebra"]
    assert not entry["morphisms_valid"]
    assert entry["roundtrip"] and entry["distinct"]
    assert len(pts) == 2  # the sweep stops at the rejected point
    witness = {
        None: f"the per-atom check finds {pts[1]!r} not local, the generic one local",
        _broken: "point does not carry a local morphism: "
        + local_morphism_witness(_broken(pts[1])),
        _raise: "no morphism for this point",
    }[carry]
    assert entry["witness"] == witness


@pytest.mark.parametrize("flat", ["honest", "wrong"])
def test_a_point_the_table_does_not_get_back_is_reported(monkeypatch, flat):
    X = projective_line(GF(3))
    pts = _reject_one_point(monkeypatch, 2, "roundtrip")
    if flat == "wrong":
        monkeypatch.setattr(compare, "adjunction_flat", lambda pi: pts[0])
    ok, report = comparison_check(X, [F3])
    assert not ok
    (entry,) = report["per_algebra"]
    assert entry["morphisms_valid"] and entry["distinct"]
    assert not entry["roundtrip"]
    assert len(pts) == 3
    assert entry["witness"] == {
        "honest": f"the per-atom roundtrip misses {pts[2]!r}, adjunction_flat returns it",
        "wrong": f"flat(sharp({pts[2]!r})) = {pts[0]!r}",
    }[flat]


# -- the comparison's work grows linearly in the points ----------------------------------------


def _count_morphism_building(monkeypatch):
    """Calls that build or check the morphism a point carries."""
    calls = []
    for name in (
        "point_morphism", "local_morphism_witness", "adjunction_flat",
        "_collapse", "open_at_point", "_lowest_chart",
    ):
        inner = getattr(compare, name)

        def counted(*args, name=name, inner=inner):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(compare, name, counted)
    return calls


@pytest.mark.parametrize("p, B", [(3, GF9), (5, GF25)], ids=["GF9", "GF25"])
def test_comparison_evaluates_each_open_a_bounded_number_of_times_per_point(
    monkeypatch, p, B
):
    calls = _count_morphism_building(monkeypatch)
    ok, report = comparison_check(affine_line(p), [B])
    assert ok, report
    assert report["counts"] == [p * p]
    # the table reads each atom's chart map: no open of Spec(B) is evaluated
    assert calls == []


def test_each_point_reads_one_table_and_builds_no_morphism(monkeypatch):
    calls = _count_morphism_building(monkeypatch)
    tables = _count_tables(monkeypatch)
    ok, report = comparison_check(projective_line(GF(3)), [GF9])
    assert ok, report
    assert report["counts"] == [10]
    # without naturality morphisms no point builds a morphism at all
    assert calls == []
    D3 = product_of_points(3, 2)
    tables.clear()
    ok, report = comparison_check(
        projective_line(GF(3)), [F3, D3], morphisms=[AlgebraMorphism(F3, D3, [])]
    )
    assert ok and report["natural"], report
    # naturality reads the first pass's tables: one per point of F3 and of D3
    assert calls == []
    assert len(tables) == len(set(tables)) == 4 + 16


def test_comparison_over_a_split_algebra_does_not_rebuild_its_factors(monkeypatch):
    calls = []
    inner = PresentedAlgebra.with_relations

    def counted(self, *args, **kwargs):
        calls.append(self)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(PresentedAlgebra, "with_relations", counted)
    ok, report = comparison_check(projective_line(GF(3)), [gf3_split()])
    assert ok, report
    assert report["counts"] == [16]
    assert len(calls) <= 4


# -- validation does per point only what depends on the point ---------------------------


def _gf3_quotient(relation) -> PresentedAlgebra:
    ring = PolyRing(GF(3), ["t"])
    return PresentedAlgebra(ring, [relation(ring.var(0))])


# built fresh for each test
VALIDATION_CASES = [
    lambda: (affine_line(3), _gf3_quotient(lambda t: t * t + 1)),
    lambda: (projective_line(GF(3)), _gf3_quotient(lambda t: t * t - t)),
]
VALIDATION_IDS = ["A1/GF9", "P1/GF3xGF3"]


@pytest.mark.parametrize("case", VALIDATION_CASES, ids=VALIDATION_IDS)
def test_comparison_never_restricts_a_localization_to_itself(monkeypatch, case):
    X, B = case()
    same_sided = []
    for module in (latscheme, sheaf):
        inner = module.restriction_map

        def counted(loc_f, loc_g, inner=inner):
            if loc_f == loc_g:
                same_sided.append(loc_f)
            return inner(loc_f, loc_g)

        monkeypatch.setattr(module, "restriction_map", counted)
    ok, report = comparison_check(X, [B])
    assert ok, report
    assert same_sided == []


@pytest.mark.parametrize(
    "make, small, large",
    [
        (projective_line, F5, GF25),
        (lambda F: punctured_plane(F)[0], F3, gf3_split()),
    ],
    ids=["P1/GF5-GF25", "PP/GF3-GF3xGF3"],
)
def test_transports_per_comparison_do_not_grow_with_the_points(
    monkeypatch, make, small, large
):
    calls = []
    inner = latscheme.transport_piece

    def counted(patch, h):
        calls.append(h)
        return inner(patch, h)

    monkeypatch.setattr(latscheme, "transport_piece", counted)
    per_comparison = []
    for B in (small, large):
        calls.clear()
        ok, report = comparison_check(make(GF(B.field.char)), [B])
        assert ok, report
        per_comparison.append((report["counts"][0], len(calls)))
    (n_small, t_small), (n_large, t_large) = per_comparison
    assert n_large > 3 * n_small
    # each sample open and sample support of the fresh scheme is embedded once
    assert t_large == t_small


def _certificates_of_one_comparison(monkeypatch, case):
    """The unit certificates one comparison computes, each at most once."""
    X, B = case()
    calls, algebras = [], []
    inner = PresentedAlgebra.unit_certificate

    def counted(self, gens):
        algebras.append(self)  # keeps ids unique for the whole run
        calls.append((id(self), tuple(g.poly for g in gens)))
        return inner(self, gens)

    monkeypatch.setattr(PresentedAlgebra, "unit_certificate", counted)
    ok, report = comparison_check(X, [B])
    assert ok, report
    assert len(calls) == len(set(calls))
    return calls


@pytest.mark.parametrize("case", VALIDATION_CASES, ids=VALIDATION_IDS)
def test_each_unit_certificate_is_computed_once_per_comparison(monkeypatch, case):
    _certificates_of_one_comparison(monkeypatch, case)


@pytest.mark.parametrize(
    "case",
    [
        lambda: (projective_line(GF(3)), _gf3_quotient(lambda t: t * t + 1)),
        lambda: (affine_line(3), _gf3_quotient(lambda t: t * t)),
    ],
    ids=["P1/GF9", "A1/GF3-t2"],
)
def test_a_comparison_that_needs_inverses_certifies_each_once(monkeypatch, case):
    """A patch map on P^1 inverts phi(Q.f); over a non-reduced algebra a
    value's unit test is an inverse."""
    assert _certificates_of_one_comparison(monkeypatch, case)


def test_an_equal_algebra_built_later_gets_memos_of_its_own(monkeypatch):
    X = projective_line(GF(3))
    B1 = _gf3_quotient(lambda t: t * t + 1)
    ok, report = comparison_check(X, [B1])
    assert ok, report
    B2 = _gf3_quotient(lambda t: t * t + 1)
    assert B2 == B1 and B2 is not B1
    calls = []
    inner = PresentedAlgebra.unit_certificate

    def counted(self, gens):
        calls.append(self)
        return inner(self, gens)

    monkeypatch.setattr(PresentedAlgebra, "unit_certificate", counted)
    ok, report = comparison_check(X, [B2])
    assert ok, report
    # B2's inverses are certified for B2, not read off B1
    assert any(A is B2 for A in calls) and not any(A is B1 for A in calls)
    assert B2._memo["atoms"][0][1].source is B2
    assert B2._memo["atoms"] is not B1._memo["atoms"]
    # Spec(B2) and its localizations are never built
    assert "spec" not in B2._memo
    assert not any(isinstance(k, tuple) and k[0] == "loc" for k in B2._memo)


def test_the_sample_plan_is_remembered_once_per_scheme():
    """A comparison leaves exactly two entries on its scheme: the plan and
    the realization of the top.  The remembered plan is the one a fresh
    scheme builds, component by component."""
    for make, B in ((projective_line, GF9), (lambda F: punctured_plane(F)[0], F3)):
        X, fresh = make(GF(3)), make(GF(3))
        plan = compare._sample_plan(X)
        assert compare._sample_plan(X) is plan
        assert set(X._memo) == {"plan"}
        ok, report = comparison_check(X, [B])
        assert ok, report
        assert compare._sample_plan(X) is plan
        assert set(X._memo) == {"plan", ("realized", top_open(X))}
        theirs = compare._sample_plan(fresh)
        assert len(plan) == len(theirs)
        for mine, other in zip(plan, theirs):
            assert len(mine) == len(other) == 5
            for a, b in zip(mine, other):
                assert a == b, (mine, other)


def test_remembered_inverses_are_the_certified_ones():
    B = gf3_split()  # GF(3) x GF(3): e and e - 1 are zero divisors
    e = B.var(0)
    for c in B.enumerate_elements():
        first = B.try_invert(c)
        for _ in range(2):
            again = B.try_invert(c)
            if first is None:
                assert again is None
                assert B.unit_certificate([c]) is None
            else:
                assert again is first  # remembered, not certified again
                assert again * c == B.one
    assert B.try_invert(e) is None and B.try_invert(e) is None
    assert B.try_invert(2 * e - 1) * (2 * e - 1) == B.one


def test_the_broken_morphism_is_still_caught_with_the_same_witness():
    B = PresentedAlgebra(PolyRing(QQ, ["x"]))
    X, Y = mk_affine(B), mk_affine(B)
    loc1 = make_localization(B, B.one)
    kill = AlgebraMorphism(B, loc1.algebra, [loc1.algebra.zero])
    broken = SchemeMorphism(X, Y, lambda j, w: top_open(X), [[(0, B.one, kill)]])
    honest = spec_morphism(morphism(B, B, [B.var(0) ** 2]), source=X, target=Y)
    witness = (
        "one-sided bound failed on chart 0, piece D(1), section x: pulled-back "
        "support [D(1)] is not below the support of the pulled-back section [D()]"
    )
    assert local_morphism_witness(broken) == witness
    # after an honest morphism has been validated against the same target
    assert local_morphism_witness(honest) is None
    assert local_morphism_witness(broken) == witness
