"""The extensional comparison between the two scheme presentations.

Points of the functor side become validated morphisms of the lattice side
and come back unchanged; distinct points stay extensionally distinct;
compact opens act pointwise; section supports agree with their pointwise
meaning; realizations of compact opens are certified isomorphic to their
gluing data; the whole bundle is wrapped by comparison_check.
"""

import pytest
from hypothesis import given, settings

import oracles as O
from support import finite_algebras, gf3_split, morphisms_agree, product_of_points
from zariski import compare, latscheme, sheaf
from zariski.algebra import (
    AlgebraMorphism,
    ExtractionCapError,
    PresentedAlgebra,
    enumerate_homs,
    make_localization,
    morphism,
)
from zariski.compare import (
    _sample_opens,
    adjunction_flat,
    carry_point_in,
    comparison_check,
    point_morphism,
    realization_certificate,
    realize,
    section_value_at_point,
)
from zariski.fields import GF, QQ
from zariski.funscheme import (
    atomic_factors,
    eval_points,
    functorial,
    map_point,
    membership,
    multiplicative_group,
    open_at_point,
    realization,
)
from zariski.lattice import basic_open, eq, join, leq, meet, top
from zariski.latscheme import (
    CompactOpen,
    GlobalSection,
    SchemeMorphism,
    embed_basic,
    local_morphism_witness,
    local_samples,
    mk_affine,
    projective_line,
    punctured_plane,
    spec_morphism,
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
def fun_a1():
    A1 = PresentedAlgebra(PolyRing(GF(3), ["x"]))
    return functorial(mk_affine(A1))


@pytest.fixture(scope="module")
def fun_p13():
    return functorial(projective_line(GF(3)))


def local_point_morphism(fun, p):
    """The morphism a point carries, checked to be local."""
    pi = point_morphism(fun.lat, p)
    assert local_morphism_witness(pi) is None
    return pi


# -- points become validated morphisms and come back --------------------------------


def test_affine_points_round_trip_through_the_adjunction(fun_a1):
    pts = eval_points(fun_a1, F3)
    assert len(pts) == O.FROZEN_POINT_COUNTS[("affine_line", 3)]
    A1 = fun_a1.algebra
    assert [p.as_hom() for p in pts] == enumerate_homs(A1, F3)
    for p in pts:
        pi = local_point_morphism(fun_a1, p)
        assert adjunction_flat(fun_a1, pi) == p


def test_projective_points_round_trip_through_the_adjunction(fun_p13):
    pts = eval_points(fun_p13, F3)
    assert len(pts) == O.FROZEN_POINT_COUNTS[("projective_line", 3)]
    for p in pts:
        pi = local_point_morphism(fun_p13, p)
        assert adjunction_flat(fun_p13, pi) == p


def test_the_trivial_test_algebra_has_exactly_one_point(fun_a1):
    TRIV = F3.with_relations([F3.one.poly])
    assert len(eval_points(fun_a1, TRIV)) == 1


def test_distinct_points_carry_extensionally_distinct_morphisms(fun_p13):
    opens = _sample_opens(fun_p13.lat)
    for B in (F3, gf3_split()):
        pts = eval_points(fun_p13, B)
        sharp = [local_point_morphism(fun_p13, p) for p in pts]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                assert not morphisms_agree(sharp[a], sharp[b], opens)


@pytest.mark.parametrize(
    "X, B",
    [(projective_line(GF(3)), gf3_split()), (affine_line(3), GF9)],
    ids=["P1/GF3xGF3", "A1/GF9"],
)
def test_every_point_morphism_agrees_with_itself(X, B):
    opens = _sample_opens(X)
    for p in eval_points(functorial(X), B):
        pi = point_morphism(X, p)
        assert morphisms_agree(pi, point_morphism(X, p), opens)
        assert morphisms_agree(pi, pi, opens)  # both sides read one memo


def test_memoized_pullbacks_equal_a_fresh_morphisms():
    X = projective_line(GF(3))
    opens = _sample_opens(X)
    A0 = X.charts[0]
    loc1 = make_localization(A0, A0.one)
    value = loc1.to_loc(A0.var(0))
    for p in eval_points(functorial(X), gf3_split()):
        pi = point_morphism(X, p)
        assert local_morphism_witness(pi) is None
        for u in opens:
            first = pi.pullback(u)
            assert pi.pullback(u) == first
            assert point_morphism(X, p).pullback(u) == first
        pieces = pi.pull_basic(0, A0.one, value)
        assert isinstance(pieces, tuple)
        assert pi.pull_basic(0, A0.one, value) == pieces
        assert point_morphism(X, p).pull_basic(0, A0.one, value) == pieces


def test_point_morphisms_of_products_round_trip(fun_p13):
    D3 = product_of_points(3, 2)
    pts = eval_points(fun_p13, D3)
    assert len(pts) == O.FROZEN_PRODUCT_COUNTS[("projective_line", 3, 2)]
    for p in pts[:4]:
        pi = local_point_morphism(fun_p13, p)
        assert adjunction_flat(fun_p13, pi) == p


# -- compact opens act pointwise ------------------------------------------------------


def test_opens_act_pointwise_preserving_the_lattice(fun_p13):
    X = fun_p13.lat
    A0, A1 = X.charts
    u_t = embed_basic(X, 0, basic_open(A0, [A0.var(0)]))
    u_inf = embed_basic(X, 1, basic_open(A1, [A1.var(0)]))
    for p in eval_points(fun_p13, F3):
        at = open_at_point
        assert eq(at(u_t.join(u_inf), p), join(at(u_t, p), at(u_inf, p)))
        assert eq(at(u_t.meet(u_inf), p), meet(at(u_t, p), at(u_inf, p)))
        assert eq(at(top_open(X), p), top(F3))


def test_membership_counts_on_the_projective_line(fun_p13):
    X = fun_p13.lat
    A0 = X.charts[0]
    u_t = embed_basic(X, 0, basic_open(A0, [A0.var(0)]))
    pts = eval_points(fun_p13, F3)
    assert sum(1 for p in pts if membership(u_t, p)) == 2  # misses 0 and infinity


# -- realizations of compact opens ------------------------------------------------------


def test_realized_points_biject_with_members():
    A2 = PresentedAlgebra(PolyRing(GF(3), ["x", "y"]))
    plane = mk_affine(A2)
    fun_plane = functorial(plane)
    u_punct = CompactOpen(plane, [basic_open(A2, [A2.var(0), A2.var(1)])])
    inner = eval_points(realization(fun_plane, u_punct), F3)
    assert len(inner) == O.FROZEN_POINT_COUNTS[("punctured_plane", 3)]
    carried = {carry_point_in(fun_plane, u_punct, rp) for rp in inner}
    assert carried == {
        p for p in eval_points(fun_plane, F3) if membership(u_punct, p)
    }


def test_realization_certificates_hold_for_the_fixtures(fun_a1, fun_p13):
    assert realization_certificate(fun_a1) is None
    assert realization_certificate(fun_p13) is None
    Xu, _, _ = punctured_plane(GF(3))
    assert realization_certificate(functorial(Xu)) is None


# -- sections and supports ----------------------------------------------------------------


def test_section_support_over_the_whole_line(fun_a1):
    rd = realize(fun_a1)
    A1 = fun_a1.algebra
    t_top = top_open(fun_a1.lat)
    R_top = rd.sections(t_top)
    assert isinstance(R_top, PresentedAlgebra)
    Y_top = realization(fun_a1, t_top)
    C_top = Y_top.lat.charts[0]
    loc_top = make_localization(C_top, C_top.one)
    s_x = GlobalSection(Y_top.lat, top_open(Y_top.lat), [[loc_top.to_loc(C_top.var(0))]])
    supp = rd.support(t_top, s_x)
    assert eq(supp.components[0], basic_open(A1, [A1.var(0)]))


def test_section_support_over_a_smaller_open_multiplies_in(fun_a1):
    rd = realize(fun_a1)
    A1 = fun_a1.algebra
    x = A1.var(0)
    u_shift = embed_basic(fun_a1.lat, 0, basic_open(A1, [x + A1.one]))
    Y_u = realization(fun_a1, u_shift)
    C_u = Y_u.lat.charts[0]
    loc_u = make_localization(C_u, C_u.one)
    s_xu = GlobalSection(Y_u.lat, top_open(Y_u.lat), [[loc_u.to_loc(C_u.var(0))]])
    supp_u = rd.support(u_shift, s_xu)
    assert eq(supp_u.components[0], basic_open(A1, [(x + A1.one) * x]))
    # pointwise: the support's value at each point is the basic open of the
    # section's value there
    for rp in eval_points(Y_u, F3):
        b = section_value_at_point(s_xu, rp)
        p_amb = carry_point_in(fun_a1, u_shift, rp)
        assert eq(basic_open(F3, [b]), open_at_point(supp_u, p_amb))


# -- fullness on an independent morphism -----------------------------------------------------


def test_independent_spec_morphisms_land_in_the_image(fun_a1):
    A1 = fun_a1.algebra
    ring_b = PolyRing(GF(3), ["a"])
    B27 = PresentedAlgebra(ring_b, [ring_b.var(0) ** 3 - ring_b.var(0)])
    phi = AlgebraMorphism(A1, B27, [B27.var(0)])
    target = fun_a1.lat
    pi_ind = spec_morphism(phi, target=target)
    p_back = adjunction_flat(fun_a1, pi_ind)
    assert len(p_back.factors) == 3  # B27 splits into three points
    pi_round = point_morphism(target, p_back)
    assert morphisms_agree(
        pi_round,
        spec_morphism(phi, source=pi_round.source, target=target),
        _sample_opens(target),
    )


# -- the bundled comparison -------------------------------------------------------------------


def test_comparison_check_on_the_projective_line_with_naturality(fun_p13):
    D3 = product_of_points(3, 2)
    diag3 = AlgebraMorphism(F3, D3, [])
    pr0 = AlgebraMorphism(D3, F3, [F3.zero])
    pr1 = AlgebraMorphism(D3, F3, [F3.one])
    ok, report = comparison_check(
        fun_p13.lat,
        [F3, D3],
        morphisms=[diag3, pr0, pr1],
        expected_counts=[
            O.FROZEN_POINT_COUNTS[("projective_line", 3)],
            O.FROZEN_PRODUCT_COUNTS[("projective_line", 3, 2)],
        ],
    )
    assert ok, report
    assert report["natural"]
    assert report["realization"] == "ok"
    assert report["counts"] == [4, 16]
    for entry in report["per_algebra"]:
        assert entry["morphisms_valid"]
        assert entry["roundtrip"]
        assert entry["distinct"]


def test_comparison_check_on_the_punctured_plane():
    Xu, _, _ = punctured_plane(GF(3))
    ok, report = comparison_check(
        Xu,
        [F3],
        expected_counts=[O.FROZEN_POINT_COUNTS[("punctured_plane", 3)]],
    )
    assert ok, report


@pytest.mark.xfail(
    strict=True,
    raises=ExtractionCapError,
    reason="known defect: localizations use plain grevlex, so at a unit "
    "denominator extract_fraction cannot clear the inverse variable",
)
def test_comparison_check_on_the_punctured_plane_over_a_quadratic_field():
    Xu, _, _ = punctured_plane(GF(3))
    ok, report = comparison_check(Xu, [GF9])
    assert ok, report
    assert report["counts"] == [9 * 9 - 1]


# -- distinctness: one fingerprint per point, over any finite test algebra --------------


def _algebra(text: str) -> PresentedAlgebra:
    return PresentedAlgebra(*parse_ring(text))


def _count_fingerprints(monkeypatch):
    calls = []
    inner = compare._fingerprint

    def counted(pi, *args):
        calls.append(pi)
        return inner(pi, *args)

    monkeypatch.setattr(compare, "_fingerprint", counted)
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
    (multiplicative_group(GF(3)).lat, _algebra("GF(3)[t]/(t^2)")),
]
NON_REDUCED_IDS = ["A1/GF3-t2", "A1/GF2-s2t2", "Gm/GF3-t2"]
FINGERPRINT_CASES = REDUCED_CASES + NON_REDUCED_CASES
FINGERPRINT_IDS = REDUCED_IDS + NON_REDUCED_IDS


def _carried_with_a_repeat(X, B):
    """Every point's validated morphism, then the first point's again."""
    pts = eval_points(functorial(X), B)
    carried = [point_morphism(X, p) for p in pts]
    assert all(local_morphism_witness(pi) is None for pi in carried)
    return pts, carried + [point_morphism(X, pts[0])]


def _assert_fingerprints_match_the_oracle(pts, carried, opens, samples):
    """Fingerprint equality is ``morphisms_agree`` on every pair."""
    prints = [compare._fingerprint(pi, samples) for pi in carried]
    for a in range(len(carried)):
        for b in range(a + 1, len(carried)):
            agree = morphisms_agree(carried[a], carried[b], opens, samples)
            assert (prints[a] == prints[b]) == agree, (pts[a], b)


@pytest.mark.parametrize("X, B", FINGERPRINT_CASES, ids=FINGERPRINT_IDS)
def test_fingerprints_are_equal_exactly_when_the_morphisms_agree(X, B):
    opens, samples = _sample_opens(X), local_samples(X)
    pts, carried = _carried_with_a_repeat(X, B)
    _assert_fingerprints_match_the_oracle(pts, carried, opens, samples)
    # the first point carried a second time is the only pair that agrees
    assert compare._agreeing_pair(carried, samples) == (0, len(pts))


@pytest.mark.parametrize("X, B", FINGERPRINT_CASES, ids=FINGERPRINT_IDS)
def test_the_fingerprint_decides_every_sample_opens_pullback(X, B):
    """For a local morphism the section values fix the pulled-back opens:
    D(x_k) of chart j pulls back to the atoms where x_k's value is a unit,
    chart j's top to the atoms where 1 has a value, and X's top to all."""
    samples = local_samples(X)
    factors = atomic_factors(B)
    every = set(range(len(factors)))

    def is_unit(c):
        return c.algebra.try_invert(c) is not None

    for pi in _carried_with_a_repeat(X, B)[1]:
        values = dict(zip(samples, compare._fingerprint(pi, samples)))
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
        assert [u for (u, _) in expected] == _sample_opens(X)
        for u, atoms in expected:
            w = pi.pullback(u).components[0]
            assert atoms == {
                idx for idx, (e, _) in enumerate(factors) if leq(basic_open(B, [e]), w)
            }, u


def test_the_non_reduced_cases_send_x_to_a_nonzero_nilpotent():
    for X, B in NON_REDUCED_CASES[:2]:
        images = [p.as_hom().images[0] for p in eval_points(functorial(X), B)]
        assert any(not x.is_zero() and (x * x).is_zero() for x in images)


def test_a_repeated_point_is_reported_first_pair_first():
    X = projective_line(GF(3))
    opens, samples = _sample_opens(X), local_samples(X)
    pts = eval_points(functorial(X), gf3_split())
    order = [1, 0, 2, 0, 1]
    carried = [point_morphism(X, pts[i]) for i in order]
    assert compare._agreeing_pair(carried, samples) == (0, 4)


@pytest.mark.parametrize("X, B", REDUCED_CASES, ids=REDUCED_IDS)
def test_comparison_over_a_reduced_algebra_compares_no_pairs(monkeypatch, X, B):
    calls = _count_fingerprints(monkeypatch)
    ok, report = comparison_check(X, [B])
    assert ok, report
    assert len(calls) == len(set(map(id, calls))) == report["counts"][0]


def test_comparison_over_a_non_reduced_algebra_compares_no_pairs(monkeypatch):
    calls = _count_fingerprints(monkeypatch)
    ok, report = comparison_check(affine_line(3), [_algebra("GF(3)[t]/(t^2)")])
    assert ok, report
    assert report["counts"] == [9]
    assert len(calls) == len(set(map(id, calls))) == 9


def test_comparison_over_a_thick_point_verifies_every_point():
    ok, report = comparison_check(affine_line(5), [_algebra("GF(5)[t]/(t^3)")])
    assert ok, report
    assert report["counts"] == [125]


@settings(max_examples=25)
@given(finite_algebras(max_size=27))
def test_fingerprints_decide_agreement_over_random_finite_algebras(B):
    for X in (affine_line(B.field.char), multiplicative_group(B.field).lat):
        opens, samples = _sample_opens(X), local_samples(X)
        pts = eval_points(functorial(X), B)
        carried = [point_morphism(X, p) for p in pts]
        _assert_fingerprints_match_the_oracle(pts, carried, opens, samples)
        ok, report = comparison_check(X, [B])
        assert ok, report


# -- the comparison's work grows linearly in the points ----------------------------------------


@pytest.mark.parametrize("p, B", [(3, GF9), (5, GF25)], ids=["GF9", "GF25"])
def test_comparison_evaluates_each_open_a_bounded_number_of_times_per_point(
    monkeypatch, p, B
):
    calls = []
    inner = compare.open_at_point

    def counted(U, pt):
        calls.append(pt)
        return inner(U, pt)

    monkeypatch.setattr(compare, "open_at_point", counted)
    ok, report = comparison_check(affine_line(p), [B])
    assert ok, report
    n = report["counts"][0]
    assert n == p * p
    # each carried morphism evaluates one open per local sample, x and 1:
    # the fingerprint pulls back no opens
    assert len(calls) <= 2 * n


def test_each_point_builds_its_comorphisms_once(monkeypatch):
    calls = []
    inner = compare._collapse

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(compare, "_collapse", counted)
    ok, report = comparison_check(projective_line(GF(3)), [GF9])
    assert ok, report
    assert report["counts"] == [10]
    # one collapse per point and target chart of P^1
    assert len(calls) == 2 * 10


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


@pytest.mark.parametrize("case", VALIDATION_CASES, ids=VALIDATION_IDS)
def test_each_unit_certificate_is_computed_once_per_comparison(monkeypatch, case):
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
    assert calls and len(calls) == len(set(calls))


def test_an_equal_algebra_built_later_gets_memos_of_its_own(monkeypatch):
    B1 = _gf3_quotient(lambda t: t * t + 1)
    ok, report = comparison_check(affine_line(3), [B1])
    assert ok, report
    B2 = _gf3_quotient(lambda t: t * t + 1)
    assert B2 == B1 and B2 is not B1
    calls = []
    inner = PresentedAlgebra.unit_certificate

    def counted(self, gens):
        calls.append(self)
        return inner(self, gens)

    monkeypatch.setattr(PresentedAlgebra, "unit_certificate", counted)
    ok, report = comparison_check(affine_line(3), [B2])
    assert ok, report
    assert calls  # B2's inverses are certified for B2, not read off B1
    assert make_localization(B2, B2.var(0)).base is B2
    assert atomic_factors(B2)[0][1].source is B2
    assert compare._affine_of(B2).charts[0] is B2


def test_remembered_embeddings_equal_those_of_a_fresh_scheme():
    for make, B in ((projective_line, GF9), (lambda F: punctured_plane(F)[0], F3)):
        X, fresh = make(GF(3)), make(GF(3))
        ok, report = comparison_check(X, [B])
        assert ok, report
        for i, A in enumerate(X.charts):
            opens = [top(A), basic_open(A, [A.var(0)]), basic_open(A, [A.var(0) + 1])]
            for w in opens:
                first = embed_basic(X, i, w)
                assert embed_basic(X, i, w) is first
                assert first.components == embed_basic(fresh, i, w).components


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


def test_comparison_check_flags_wrong_expectations(fun_p13):
    ok, report = comparison_check(fun_p13.lat, [F3], expected_counts=[5])
    assert not ok
    assert report["counts"] == [4]
    assert report["expected_counts"] == [5]
