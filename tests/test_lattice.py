"""The lattice of compact opens of an affine spectrum.

Elements are radical-ideal classes of finite generator lists; order and
equality are decided by radical membership.  The laws of a bounded
distributive lattice and of the universal support are property-tested here
on random inputs; the acceptance suite reruns them at its own scale.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from paper import support_law_witness
from support import gf3_split, gf5_circle, qq_x, qq_xy, random_open, random_poly
from zariski.algebra import PresentedAlgebra, make_localization
from zariski.lattice import (
    basic_open,
    bottom,
    eq,
    join,
    join_all,
    leq,
    meet,
    open_from_localization,
    open_to_localization,
    top,
)
from zariski.parsing import parse_ring


def _random_opens(seed, algebra, count=3):
    rng = random.Random(seed)
    return [random_open(rng, algebra) for _ in range(count)]


# -- canonical generators --------------------------------------------------------


def test_basic_open_canonicalizes_generators():
    A = qq_xy()
    x, y = A.gens()
    u = basic_open(A, [y, A.zero, x, x])
    assert len(u.generators) == 2  # zero and duplicate dropped
    assert u == basic_open(A, [x, y])
    assert hash(u) == hash(basic_open(A, [x, y]))
    assert basic_open(A, []) == bottom(A)
    assert str(u).startswith("D(")


def test_top_and_bottom():
    A = qq_x()
    x = A.var(0)
    assert eq(basic_open(A, [A.one]), top(A))
    assert eq(basic_open(A, [A.const(-7)]), top(A))
    assert eq(basic_open(A, [A.zero]), bottom(A))
    assert not eq(basic_open(A, [x]), top(A))
    assert leq(bottom(A), basic_open(A, [x]))
    assert leq(basic_open(A, [x]), top(A))


def test_order_is_radical_refinement():
    A = qq_xy()
    x, y = A.gens()
    assert leq(basic_open(A, [x * y]), basic_open(A, [x]))
    assert leq(basic_open(A, [x**2]), basic_open(A, [x]))
    assert leq(basic_open(A, [x]), basic_open(A, [x**2]))  # radical equality
    assert eq(basic_open(A, [x]), basic_open(A, [x**3]))
    assert not leq(basic_open(A, [x]), basic_open(A, [x * y]))
    assert leq(basic_open(A, [x + y]), basic_open(A, [x, y * y]))
    assert not leq(basic_open(A, [x + 1]), basic_open(A, [x, y]))
    # D(x) join D(y) is strictly below the whole plane
    assert not leq(top(A), join(basic_open(A, [x]), basic_open(A, [y])))


def test_unit_partitions_reach_the_top():
    A = qq_x()
    x = A.var(0)
    assert eq(join(basic_open(A, [x]), basic_open(A, [x - 1])), top(A))
    B = gf3_split()
    e = B.var(0)
    assert eq(join(basic_open(B, [e]), basic_open(B, [1 - e])), top(B))
    assert eq(meet(basic_open(B, [e]), basic_open(B, [1 - e])), bottom(B))


def test_order_agrees_with_generatorwise_radical_membership():
    rng = random.Random(20240817)
    A = qq_xy()
    for _ in range(40):
        u = random_open(rng, A)
        v = random_open(rng, A)
        direct = all(A.radical_member(g, list(v.generators)) for g in u.generators)
        assert leq(u, v) == direct


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bounded_lattice_laws(seed):
    A = qq_xy()
    u, v, w = _random_opens(seed, A)
    t, b = top(A), bottom(A)
    assert eq(join(u, v), join(v, u))
    assert eq(meet(u, v), meet(v, u))
    assert eq(join(u, join(v, w)), join(join(u, v), w))
    assert eq(meet(u, meet(v, w)), meet(meet(u, v), w))
    assert eq(join(u, u), u) and eq(meet(u, u), u)
    assert eq(join(u, meet(u, v)), u)  # absorption
    assert eq(meet(u, join(u, v)), u)
    assert eq(join(u, b), u) and eq(meet(u, t), u)
    assert eq(meet(u, b), b) and eq(join(u, t), t)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distributivity(seed):
    A = qq_xy()
    u, v, w = _random_opens(seed, A)
    assert eq(meet(u, join(v, w)), join(meet(u, v), meet(u, w)))
    assert eq(join(u, meet(v, w)), meet(join(u, v), join(u, w)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_order_interacts_with_operations(seed):
    A = qq_xy()
    u, v, w = _random_opens(seed, A)
    assert leq(meet(u, v), u)
    assert leq(u, join(u, v))
    assert leq(u, v) == eq(join(u, v), v)
    assert leq(u, v) == eq(meet(u, v), u)
    if leq(u, v):
        assert leq(meet(u, w), meet(v, w))
        assert leq(join(u, w), join(v, w))


def test_join_all_folds():
    A = qq_xy()
    x, y = A.gens()
    parts = [basic_open(A, [x]), basic_open(A, [y]), basic_open(A, [x - 1])]
    u = join_all(A, parts)
    for p in parts:
        assert leq(p, u)
    assert eq(u, join(parts[0], join(parts[1], parts[2])))
    assert eq(join_all(A, []), bottom(A))


# -- supports ----------------------------------------------------------------------


def test_universal_support_laws_on_random_samples():
    rng = random.Random(7)
    A = qq_xy()
    pairs = [
        (
            A.element(random_poly(rng, A.ring)),
            A.element(random_poly(rng, A.ring)),
        )
        for _ in range(25)
    ]
    assert support_law_witness(A, lambda h: basic_open(A, [h]), pairs) is None


def test_support_laws_fail_loudly_for_a_broken_support():
    A = qq_x()
    # constant-top "support" violates d(0) = bottom
    witness = support_law_witness(A, lambda f: top(A), [])
    assert witness == "d(0) != bottom"


def test_multiplicative_meet_identifies_saturated_pairs():
    # meets against D(x, y) cannot tell the whole plane from the punctured
    # plane even though the two opens differ
    A = qq_xy()
    x, y = A.gens()
    u = basic_open(A, [x, y])
    assert not eq(top(A), u)
    assert eq(meet(top(A), u), meet(u, u))


# -- the localization isomorphism ----------------------------------------------------


@pytest.mark.parametrize(
    "algebra_factory,var_index",
    [(qq_x, 0), (qq_xy, 0), (gf5_circle, 1)],
)
def test_localization_isomorphism_round_trips(algebra_factory, var_index):
    rng = random.Random(2024)
    A = algebra_factory()
    f = A.var(var_index) + A.one  # some nonzero denominator
    loc = make_localization(A, f)
    for _ in range(15):
        # downstairs-first: any open below D(f)
        u = meet(random_open(rng, A), basic_open(A, [f]))
        lifted = open_to_localization(loc, u)
        assert eq(open_from_localization(loc, lifted), u)
    for _ in range(15):
        # upstairs-first: any open of the localized algebra
        w = random_open(rng, loc.algebra)
        down = open_from_localization(loc, w)
        assert leq(down, basic_open(A, [f]))
        assert eq(open_to_localization(loc, down), w)


def test_an_open_comes_down_from_a_localization_at_a_unit():
    A = PresentedAlgebra(*parse_ring("QQ[t]/(t^2 - 2)"))
    t = A.var(0)
    loc = make_localization(A, t)
    down = open_from_localization(loc, basic_open(loc.algebra, [loc.to_loc(t + 1)]))
    assert eq(down, basic_open(A, [(t + 1) * t]))


def test_localization_isomorphism_rejects_foreign_elements():
    A = qq_x()
    x = A.var(0)
    loc = make_localization(A, x)
    with pytest.raises(ValueError):
        open_to_localization(loc, basic_open(A, [x + 1]))  # not below D(x)
    B = qq_xy()
    with pytest.raises(ValueError):
        open_from_localization(loc, basic_open(B, [B.var(0)]))
