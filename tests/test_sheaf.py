"""Sections over basic opens: restriction, compatibility, gluing."""

import random

import pytest

from support import gf3_split, qq_x, qq_xy, random_element
from zariski.algebra import (
    extract_fraction,
    make_localization,
)
from zariski.algebra import PresentedAlgebra
from zariski.fields import GF, QQ
from zariski.lattice import basic_open, eq, leq, meet
from zariski.parsing import parse_ring
from zariski.sheaf import (
    BasicOpenSection,
    CoverData,
    SectionFamily,
    global_section,
    glue,
    incompatibility_witness,
    invertibility_support_basic,
    restrict,
    restriction_map,
    section_equal,
)


def section(loc, numerator, power):
    """The section numerator / f**power over D(f)."""
    return BasicOpenSection(loc, loc.to_loc(numerator) * loc.inverse**power)


def is_invertible(s):
    return s.loc.algebra.try_invert(s.value) is not None


def _cover_qq_x():
    A = qq_x()
    x = A.var(0)
    return A, CoverData(A, [x, 1 - x])


def _cover_qq_xy():
    A = qq_xy()
    x, y = A.gens()
    return A, CoverData(A, [x, y, 1 - x - y])


# -- single sections -----------------------------------------------------------


def test_sections_are_fractions_over_a_basic_open():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    s = section(loc, x * x + x, 1)  # (x^2+x)/x
    t = global_section(loc, x + 1)
    assert section_equal(s, t)
    assert not section_equal(s, global_section(loc, x))
    with pytest.raises(ValueError):
        section_equal(s, global_section(make_localization(A, x + 1), x))


def test_restriction_maps_exist_only_onto_smaller_opens():
    A = qq_x()
    x = A.var(0)
    lx, lxx1 = make_localization(A, x), make_localization(A, x * (x + 1))
    to_smaller = restriction_map(lx, lxx1)
    assert to_smaller(lx.inverse) * lxx1.to_loc(x) == lxx1.algebra.one
    lx2 = make_localization(A, x * x)  # the same open, another denominator
    assert restriction_map(lx2, lx)(lx2.inverse) == lx.inverse**2
    with pytest.raises(ValueError, match=r"D\(x \+ 1\) is not below D\(x\)"):
        restriction_map(lx, make_localization(A, x + 1))
    with pytest.raises(ValueError, match="different algebras"):
        restriction_map(lx, make_localization(qq_xy(), qq_xy().var(0)))


def test_restriction_maps_compose():
    A = qq_x()
    x = A.var(0)
    f, g, h = x, x * (x - 1), x * (x - 1) * (x + 2)
    lf, lg, lh = (make_localization(A, d) for d in (f, g, h))
    fg = restriction_map(lf, lg)
    gh = restriction_map(lg, lh)
    fh = restriction_map(lf, lh)
    s = section(lf, x + 5, 2).value
    assert gh(fg(s)) == fh(s)
    # restricting to the same open is the identity on values
    ff = restriction_map(lf, lf)
    assert ff(s) == s


def test_restrict_reexpresses_fractions_on_smaller_opens():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    s = section(loc, x + 1, 1)  # (x+1)/x
    smaller = restrict(s, x * (x - 1))
    assert smaller.denominator == x * (x - 1)
    # (x+1)/x = (x+1)(x-1)/(x(x-1))
    expected = section(make_localization(A, x * (x - 1)), (x + 1) * (x - 1), 1)
    assert section_equal(smaller, expected)
    with pytest.raises(ValueError):
        restrict(s, x + 1)


# -- covers ---------------------------------------------------------------------


def test_cover_certificates_reevaluate_to_one():
    A, cov = _cover_qq_x()
    combo = A.zero
    for c, p in zip(cov.certificate, cov.pieces):
        combo = combo + c * p
    assert combo == A.one
    A2, cov2 = _cover_qq_xy()
    combo2 = A2.zero
    for c, p in zip(cov2.certificate, cov2.pieces):
        combo2 = combo2 + c * p
    assert combo2 == A2.one


def test_non_covers_are_rejected_with_a_reason():
    A = qq_xy()
    x, y = A.gens()
    with pytest.raises(ValueError, match="does not cover"):
        CoverData(A, [x, y])  # misses the origin
    B = gf3_split()
    e = B.var(0)
    CoverData(B, [e, 1 - e])  # fine: orthogonal idempotents
    with pytest.raises(ValueError, match="does not cover"):
        CoverData(B, [e])


def test_families_must_match_the_cover():
    A, cov = _cover_qq_x()
    x = A.var(0)
    s0 = global_section(make_localization(A, x), x)
    with pytest.raises(ValueError):
        SectionFamily(cov, [s0])  # one section missing
    wrong = global_section(make_localization(A, x + 2), x)
    with pytest.raises(ValueError):
        SectionFamily(cov, [s0, wrong])


# -- gluing ------------------------------------------------------------------------


def _split_family(A, cov, a):
    return SectionFamily(
        cov, [global_section(make_localization(A, p), a) for p in cov.pieces]
    )


def test_split_then_glue_recovers_the_normal_form():
    rng = random.Random(99)
    for factory in (_cover_qq_x, _cover_qq_xy):
        A, cov = factory()
        for _ in range(10):
            a = random_element(rng, A)
            fam = _split_family(A, cov, a)
            assert incompatibility_witness(fam) is None
            assert glue(fam) == a


def test_glue_then_restrict_returns_the_inputs():
    rng = random.Random(100)
    A, cov = _cover_qq_x()
    x = A.var(0)
    # a family given by honest fractions: a/x on D(x), its matching value on D(1-x)
    for _ in range(10):
        a = random_element(rng, A)
        fam = _split_family(A, cov, a)
        glued = glue(fam)
        for s, p in zip(fam.sections, cov.pieces):
            again = global_section(make_localization(A, p), glued)
            assert section_equal(again, s)


def test_gluing_true_fractions_needs_denominator_clearing():
    # over D(x) take 1/x does not glue; but x/(x) = 1 does; exercise a real
    # fraction that happens to be global: (x - x^2)/x = 1 - x
    A, cov = _cover_qq_x()
    x = A.var(0)
    s_frac = section(make_localization(A, x), x - x * x, 1)
    t = global_section(make_localization(A, 1 - x), 1 - x)
    fam = SectionFamily(cov, [s_frac, t])
    witness = incompatibility_witness(fam)
    assert witness is None
    assert glue(fam) == 1 - x


def test_gluing_along_a_cover_by_one_unit_piece():
    ring, rels = parse_ring("QQ[t]/(t^2 - 2)")
    A = PresentedAlgebra(ring, rels)
    t = A.var(0)
    cov = CoverData(A, [t])
    fam = SectionFamily(cov, [global_section(make_localization(A, t), t + 1)])
    assert glue(fam) == t + 1


def test_incompatible_families_are_refused_with_a_witness():
    A, cov = _cover_qq_x()
    x = A.var(0)
    fam = SectionFamily(
        cov,
        [
            global_section(make_localization(A, x), x),
            global_section(make_localization(A, 1 - x), x + 1),
        ],
    )
    w = incompatibility_witness(fam)
    assert w is not None
    i, j, ri, rj = w
    assert (i, j) == (0, 1)
    assert not section_equal(ri, rj)
    with pytest.raises(ValueError, match="not compatible"):
        glue(fam)


def test_partition_of_unity_glues_mixed_constants():
    # on GF(3) x GF(3): value 1 on one factor, 2 on the other; glues to an
    # element that is neither constant
    B = gf3_split()
    e = B.var(0)
    cov = CoverData(B, [e, 1 - e])
    fam = SectionFamily(
        cov,
        [
            global_section(make_localization(B, e), B.one),
            global_section(make_localization(B, 1 - e), B.const(GF(3).of_int(2))),
        ],
    )
    glued = glue(fam)
    # check by restriction: equals 1 on D(e) and 2 on D(1-e)
    le, lc = make_localization(B, e), make_localization(B, 1 - e)
    assert le.to_loc(glued) == le.to_loc(B.one)
    assert lc.to_loc(glued) == lc.to_loc(B.const(GF(3).of_int(2)))
    assert glued == e + 2 * (1 - e)  # 1 on the e-part, 2 on the complement
    assert glued * e == e  # restricts to 1 on the e-component
    assert glued * (1 - e) == 2 * (1 - e)


# -- invertibility ------------------------------------------------------------------


def test_invertibility_is_decided_in_the_localization():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    assert is_invertible(global_section(loc, x))
    assert is_invertible(section(loc, x * x, 1))
    assert not is_invertible(global_section(loc, x - 1))
    assert not is_invertible(global_section(loc, A.zero))
    full = make_localization(A, A.one)
    assert not is_invertible(global_section(full, x))
    assert is_invertible(global_section(full, A.const(QQ.of_int(5))))


def test_invertibility_support_is_the_largest_invertible_open():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    s = global_section(loc, x - 1)  # (x-1)/1 over D(x)
    supp = invertibility_support_basic(s)
    assert eq(supp, basic_open(A, [x * (x - 1)]))
    # restricting there is invertible
    assert is_invertible(restrict(s, x * (x - 1)))
    # and it dominates every sampled basic open with invertible restriction
    rng = random.Random(5)
    for _ in range(20):
        g = random_element(rng, A)
        if A.radical_member(g, [x]):  # only opens inside D(x) qualify
            if is_invertible(restrict(s, g)):
                assert leq(basic_open(A, [g]), supp)


def test_zero_section_supports_nothing():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    z = global_section(loc, A.zero)
    assert eq(invertibility_support_basic(z), basic_open(A, []))
