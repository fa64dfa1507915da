"""Shared helpers for the test suite: small random objects, common algebras.

Randomness is always driven by a caller-supplied ``random.Random`` so every
test run is reproducible from its seed.
"""

import fractions
import itertools
import sys
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub

from hypothesis import strategies as st

import oracles as O
from zariski import funscheme
from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    extract_fraction,
    make_localization,
    try_extend,
)
from zariski.compare import point_morphism
from zariski.fields import GF, QQ
from zariski.funscheme import (
    SchemePoint,
    _chart_map,
    _lowest_chart,
    map_point,
    realization,
)
from zariski.latscheme import (
    CompactOpen,
    LatticeScheme,
    SchemeMorphism,
    _inclusion,
    chart_variable_samples,
    embed_basic,
    make_patch,
    mk_affine,
    top_open,
)
from zariski.lattice import basic_open, eq, top
from zariski.polynomials import Poly, PolyRing, poly_sort_key
from zariski.sheaf import restriction_map


def qq_x() -> PresentedAlgebra:
    return PresentedAlgebra(PolyRing(QQ, ["x"]))


def qq_xy() -> PresentedAlgebra:
    return PresentedAlgebra(PolyRing(QQ, ["x", "y"]))


def affine_line(field):
    return mk_affine(PresentedAlgebra(PolyRing(field, ["x"])))


def affine_plane(field):
    return mk_affine(PresentedAlgebra(PolyRing(field, ["x", "y"])))


def multiplicative_group(field):
    A = affine_plane(field).charts[0]
    return mk_affine(A.with_relations([(A.var(0) * A.var(1) - 1).poly]))


def gf5_circle() -> PresentedAlgebra:
    """GF(5)[x,y] / (x^2 + y^2 - 1)."""
    ring = PolyRing(GF(5), ["x", "y"])
    x, y = ring.gens()
    return PresentedAlgebra(ring, [x * x + y * y - ring.one])


def gf5_hyperbola() -> PresentedAlgebra:
    """GF(5)[x,y] / (x*y - 1)."""
    ring = PolyRing(GF(5), ["x", "y"])
    x, y = ring.gens()
    return PresentedAlgebra(ring, [x * y - ring.one])


def qq_triple_point() -> PresentedAlgebra:
    """QQ[x] / (x^3 - x)."""
    ring = PolyRing(QQ, ["x"])
    (x,) = ring.gens()
    return PresentedAlgebra(ring, [x**3 - x])


def gf3_split() -> PresentedAlgebra:
    """GF(3)[e] / (e^2 - e): two disjoint points, idempotent coordinates."""
    ring = PolyRing(GF(3), ["e"])
    (e,) = ring.gens()
    return PresentedAlgebra(ring, [e * e - e])


def projective_space(field, n: int) -> LatticeScheme:
    """Pⁿ (n <= 4) as n + 1 affine n-spaces: chart i has the coordinates
    X_k/X_i (k != i), named by k's letter in "xyzwv", and every two charts
    i < j are glued along D(X_j/X_i) ~ D(X_i/X_j), where
    X_k/X_i = (X_k/X_j) / (X_i/X_j)."""
    coords = [[k for k in range(n + 1) if k != i] for i in range(n + 1)]
    charts = [PresentedAlgebra(PolyRing(field, ["xyzwv"[k] for k in ks])) for ks in coords]

    def var(i, k):  # X_k/X_i on chart i
        return charts[i].var(coords[i].index(k))

    def images(i, j):  # chart i's variables in chart j, localized at X_i/X_j
        loc = make_localization(charts[j], var(j, i))
        return [loc.inverse if k == j else loc.to_loc(var(j, k)) * loc.inverse for k in coords[i]]

    patches = [
        make_patch(charts, i, j, var(i, j), var(j, i), images(i, j), images(j, i))
        for i, j in itertools.combinations(range(n + 1), 2)
    ]
    return LatticeScheme(charts, patches)


def product_of_points(p: int, k: int) -> PresentedAlgebra:
    """GF(p) x ... x GF(p) (k factors) presented with orthogonal idempotents.

    Variables e1..e_{k-1} with relations ei^2 = ei, ei*ej = 0; the last
    idempotent is 1 - e1 - ... - e_{k-1}.
    """
    if k == 1:
        return PresentedAlgebra(PolyRing(GF(p), []))
    names = [f"e{i}" for i in range(1, k)]
    ring = PolyRing(GF(p), names)
    gens = ring.gens()
    rels = [e * e - e for e in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            rels.append(gens[i] * gens[j])
    return PresentedAlgebra(ring, rels)


# GF(p)[t]/(t^k) as (p, k, False), and GF(2)[t,u]/(t^2, u^2 + u), the product of
# two copies of GF(2)[t]/(t^2), as (2, 2, True): none of them reduced
NILPOTENT_CASES = [(2, 2, False), (2, 3, False), (3, 2, False), (3, 3, False), (2, 2, True)]
NILPOTENT_IDS = ["GF2-t2", "GF2-t3", "GF3-t2", "GF3-t3", "GF2-t2xGF2-t2"]


def nilpotent_algebra(p, k, split):
    """GF(p)[t]/(t^k) or, with ``split``, GF(p)[t,u]/(t^k, u^2 - u): the rings
    whose unimodular pairs ``oracles.unimodular_pair_count`` counts."""
    ring = PolyRing(GF(p), ["t", "u"][: 1 + split])
    gens = ring.gens()
    return PresentedAlgebra(ring, [gens[0] ** k] + [gens[-1] ** 2 - gens[-1]] * split)


def random_poly(rng, ring, max_degree=2, max_terms=3, coeff_bound=3):
    """A random polynomial: up to ``max_terms`` monomials of total degree
    <= ``max_degree`` with integer coefficients in [-coeff_bound, coeff_bound].
    """
    p = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        mono = ring.one
        for _ in range(rng.randint(0, max_degree)):
            mono = mono * ring.var(rng.randrange(ring.nvars))
        p = p + mono.scale(rng.randint(-coeff_bound, coeff_bound))
    return p


def random_element(rng, algebra, max_degree=2, max_terms=3, coeff_bound=3):
    return algebra.element(
        random_poly(rng, algebra.ring, max_degree, max_terms, coeff_bound)
    )


def random_nonzero_element(rng, algebra, max_degree=2, max_terms=3, coeff_bound=3):
    while True:
        a = random_element(rng, algebra, max_degree, max_terms, coeff_bound)
        if not a.is_zero():
            return a


def random_open(rng, algebra, max_gens=3, max_degree=2, max_terms=3):
    gens = [
        random_poly(rng, algebra.ring, max_degree, max_terms)
        for _ in range(rng.randint(0, max_gens))
    ]
    return basic_open(algebra, [algebra.element(g) for g in gens])


# -- brute-force oracles for the finite-algebra searches ---------------------------


def exhaustive_homs(source, target):
    """All algebra maps source -> target by trying every assignment of
    elements of ``target`` to the variables: the oracle for ``enumerate_homs``."""
    candidates = target.enumerate_elements()
    out = []
    for images in itertools.product(candidates, repeat=source.nvars):
        image_polys = [im.poly for im in images]
        if all(
            target.element(r.substitute(image_polys, target.ring)).is_zero()
            for r in source.relations
        ):
            out.append(AlgebraMorphism(source, target, images))
    return out


def reduced_by_definition(B):
    """No nonzero element of ``B`` lies in the radical of the zero ideal:
    the oracle for ``is_reduced``."""
    return not any(
        not b.is_zero() and B.radical_member(b, []) for b in B.enumerate_elements()
    )


def atoms_by_search(B):
    """The minimal nonzero idempotents of ``B`` among all its elements,
    sorted by ``poly_sort_key``: the oracle for ``funscheme.atomic_factors``."""
    idems = [b for b in B.enumerate_elements() if b * b == b and not b.is_zero()]
    atoms = [e for e in idems if not any(f != e and f * e == f for f in idems)]
    return sorted(atoms, key=lambda e: poly_sort_key(e.poly))


@st.composite
def finite_algebras(draw, max_size=125):
    """GF(p)[x] or GF(p)[x, y] over GF(2), GF(3) or GF(5), modulo a monic
    relation in each variable and, half the time, a mixed one: at most
    ``max_size`` elements, reduced or not, connected or not, sometimes
    trivial."""
    p = draw(st.sampled_from([2, 3, 5]))
    room = 0  # p**room <= max_size: the product of the degrees
    while p ** (room + 1) <= max_size:
        room += 1
    ring = PolyRing(GF(p), ["x", "y"][: draw(st.integers(1, 2))])
    rels, degrees = [], []
    for v in ring.gens():
        d = draw(st.integers(1, room))
        room //= d
        degrees.append(d)
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        rels.append(v**d + sum(((v**k).scale(c) for k, c in enumerate(coeffs)), ring.zero))
    if ring.nvars == 2 and draw(st.booleans()):
        below = st.tuples(*[st.integers(0, d - 1) for d in degrees])
        terms = draw(st.dictionaries(below, st.integers(1, p - 1), min_size=1, max_size=3))
        if any(any(m) for m in terms):  # a constant alone would give the zero ring
            rels.append(ring.from_terms(terms))
    return PresentedAlgebra(ring, rels)


@st.composite
def unit_covers(draw, B):
    """One to three elements of the finite algebra ``B`` that generate the
    unit ideal: arbitrary g_1..g_{k-1} and h = 1 - sum(c_i * g_i), so that
    sum(c_i * g_i) + h = 1.  Pieces that are units come up often (h = 1
    when every c_i is zero)."""
    elements = st.sampled_from(B.enumerate_elements())
    gs = [draw(elements) for _ in range(draw(st.integers(0, 2)))]
    h = B.one - sum((draw(elements) * g for g in gs), B.zero)
    return draw(st.permutations(gs + [h]))


@st.composite
def affine_opens(draw, field):
    """A¹ or A² over ``field`` with a compact open D(g_1..g_k), k = 1..3:
    each g has one to three terms of degree at most 2 in each variable, and
    may be a unit."""
    A = PresentedAlgebra(PolyRing(field, ["x", "y"][: draw(st.integers(1, 2))]))
    exponents = st.tuples(*[st.integers(0, 2)] * A.nvars)
    terms = st.dictionaries(exponents, st.integers(1, field.char - 1), min_size=1, max_size=3)
    gens = [A.element(A.ring.from_terms(t)) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    X = mk_affine(A)
    return X, CompactOpen(X, [basic_open(A, gens)])


def image_open(phi, w):
    """The open of phi's target generated by the images of w's generators."""
    return basic_open(phi.target, [phi(g) for g in w.generators])


def spec_morphism(phi, source=None, target=None):
    """The morphism Spec(B) -> Spec(A) of ``phi : A -> B`` between one-chart
    schemes, fresh ones unless given: D(g) pulls back to D(phi(g)), and
    sections pull back along phi."""
    B = phi.target
    X = mk_affine(B) if source is None else source
    Y = mk_affine(phi.source) if target is None else target
    loc1 = make_localization(B, B.one)
    return SchemeMorphism(
        X, Y, lambda j, w: CompactOpen(X, [image_open(phi, w)]), [[(0, B.one, phi.then(loc1.to_loc))]]
    )


def morphisms_agree(pi1, pi2, opens, samples=None):
    """Extensional agreement of two morphisms with one-chart affine source,
    pair by pair: the oracle for the values of ``compare._atom_table``.

    Compares pullbacks on the sample compact opens, then the pulled-back
    chart variables (``samples``, by default ``chart_variable_samples`` of
    every target chart): the pulled pieces of the two morphisms must agree
    as fractions on every pairwise intersection of their regions.
    """
    if pi1.source is not pi2.source or pi1.target is not pi2.target:
        return False
    for u in opens:
        if not pi1.pullback(u).eq(pi2.pullback(u)):
            return False
    if pi1.source.ncharts != 1:
        return True
    B = pi1.source.charts[0]
    if samples is None:
        samples = [
            s
            for j in range(pi1.target.ncharts)
            for s in chart_variable_samples(pi1.target, j)
        ]
    for sample in samples:
        fam2 = pi2.pull_basic(*sample)
        for (_, h1, val1) in pi1.pull_basic(*sample):
            n1, k1 = extract_fraction(make_localization(B, h1), val1)
            for (_, h2, val2) in fam2:
                n2, k2 = extract_fraction(make_localization(B, h2), val2)
                common = make_localization(B, h1 * h2)
                if common.to_loc(n1 * h2**k2) != common.to_loc(n2 * h1**k1):
                    return False
    return True


def atom_table_by_elements(p, plan):
    """(values, local, roundtrip) of the point p on the sample ``plan``
    (``compare._sample_plan``), each value an element of its local factor:
    every chart map built by ``funscheme._chart_map``, every sample value
    m(n) * m(f)**-k evaluated by morphisms and normal forms, every unit
    certified by ``try_invert``.  The element-based table that
    ``compare._atom_table`` reads on codes: its oracle, through
    ``table_codes``."""
    X = p.scheme

    def unit(b):
        return b.algebra.try_invert(b) is not None

    maps = [[_chart_map(X, c, phi, j) for j in range(X.ncharts)] for (_, c, phi) in p.factors]
    values, local = [], True
    for (j, f, n, k, gens) in plan:
        row = []
        for (_, c, phi), ms in zip(p.factors, maps):
            m, value = ms[j], None
            if m is not None and unit(m(f)):
                value = m(n) * m(f).algebra.try_invert(m(f)) ** k
            row.append(value)
            local = local and (value is not None and unit(value)) == any(unit(phi(g)) for g in gens[c])
        values.append(tuple(row))
    lowest = [next((j, m) for j, m in enumerate(ms) if m is not None) for ms in maps]
    return tuple(values), local, local and lowest == [(c, phi) for (_, c, phi) in p.factors]


def table_codes(p, table):
    """A table of ``atom_table_by_elements`` with each value replaced by its
    index in its local factor's ``enumerate_elements()``, the code that
    ``compare._atom_table`` keeps."""
    values, local, roundtrip = table
    index = [{b: i for i, b in enumerate(phi.target.enumerate_elements())} for (_, _, phi) in p.factors]
    return tuple([tuple([None if v is None else at[v] for v, at in zip(row, index)]) for row in values]), local, roundtrip


def sample_opens(X):
    """X's top, each chart's top and each chart variable's D(x_k), as
    compact opens of X: the opens the pullback oracles compare on."""
    out = [top_open(X)]
    for j, A in enumerate(X.charts):
        out.append(embed_basic(X, j, top(A)))
        for k in range(A.nvars):
            out.append(embed_basic(X, j, basic_open(A, [A.var(k)])))
    return out


def locality_by_product(X, B, pieces):
    """Locality of X along the cover {D(f)} of B by walking every family of
    local points and comparing each pair's restrictions to their overlap:
    the oracle for ``funscheme.check_locality``.  Reads ``eval_points``
    through the module, so a test that patches it patches the oracle too."""
    if not eq(basic_open(B, list(pieces)), top(B)):
        raise ValueError("the given elements do not cover the test algebra")
    locs = [make_localization(B, f) for f in pieces]
    global_points = funscheme.eval_points(X, B)
    restricted = {tuple(map_point(p, loc.to_loc) for loc in locs) for p in global_points}
    if len(restricted) != len(global_points):
        return False
    local_points = [funscheme.eval_points(X, loc.algebra) for loc in locs]
    n = len(pieces)

    def restricted(i, j):  # the points of piece i restricted to D(f_i * f_j)
        to_overlap = restriction_map(locs[i], make_localization(B, pieces[i] * pieces[j]))
        return [map_point(q, to_overlap) for q in local_points[i]]

    images = [{j: restricted(i, j) for j in range(n) if j != i} for i in range(n)]
    matching = sum(
        all(
            images[i][j][family[i]] == images[j][i][family[j]]
            for i in range(n)
            for j in range(i + 1, n)
        )
        for family in itertools.product(*(range(len(q)) for q in local_points))
    )
    return matching == len(global_points)


def natural_by_pullbacks(p, chi):
    """Whether the naturality square of the point p of X(B) along chi : B ->
    B2 commutes on opens: the morphism of ``map_point(p, chi)`` pulls each
    of ``sample_opens(X)`` back to chi's image of the pullback along p's
    morphism.  The oracle for the naturality verdict of
    ``compare.comparison_check``."""
    pi_p = point_morphism(p)
    pi_q = point_morphism(map_point(p, chi))
    return all(
        eq(pi_q.pullback(u).components[0], image_open(chi, pi_p.pullback(u).components[0]))
        for u in sample_opens(p.scheme)
    )


# -- tuple reference for packed monomials ---------------------------------------
# Monomials as exponent tuples, the representation the kernels packed into
# ints replace: the oracle for ``polynomials``' packed arithmetic.


def tuple_key(order, m):
    """The order on exponent tuples as a tuple key: grevlex ranks by total
    degree, then by the last exponent reversed; lex by the exponents in
    turn; ``inner.eliminating()`` by the last exponent, then by ``inner``."""
    if order.inner is not None:
        return (m[-1], *tuple_key(order.inner, m[:-1]))
    if order.kind == "lex":
        return tuple(m)
    return (sum(m), *(-e for e in reversed(m)))


def tuple_lead(f):
    """The leading exponent tuple of the nonzero ``f`` under ``tuple_key``,
    asserted to be the package's own leading monomial."""
    lead = max(f.terms, key=partial(tuple_key, f.ring.order))
    assert f.ring._mono(f._lead()) == lead
    return lead


def tuple_staircase(A):
    """``oracles.staircase`` of the presented algebra ``A``: its leading
    tuples read by ``tuple_lead``, its order by ``tuple_key``."""
    leads = [tuple_lead(b) for b in A.gb.basis]
    return O.staircase(A.names, leads, partial(tuple_key, A.ring.order))


def tuple_divides(a, b):
    return all(map(le, a, b))


def tuple_lcm(a, b):
    return tuple(map(max, a, b))


def tuple_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def tuple_product(f, g):
    """The terms of ``f * g`` as a dict of exponent tuples, zero sums dropped."""
    p = f.ring.field.char
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return {m: c % p if p else c for m, c in acc.items() if (c % p if p else c)}


def fraction_divide(f, divisors):
    """Multivariate division on the field's own scalars: the oracle for
    ``groebner.divide``.

    The same steps in the same order (largest working term first under
    ``tuple_key``, the first divisor whose leading monomial divides it),
    with one field operation per tail term: over QQ on ``Fraction``s, over
    GF(p) on residues reduced when their term is popped.
    """
    ring = f.ring
    p = ring.field.char

    def key(m):  # heapq pops the least: negate the order key
        return tuple(-k for k in tuple_key(ring.order, m))

    leads = [(i, tuple_lead(d)) for i, d in enumerate(divisors) if d.terms]
    tails = {}
    quots = [{} for _ in divisors]
    rem = {}
    terms = dict(f.terms)
    heap = [(key(m), m) for m in terms]
    heapify(heap)
    while heap:
        mp = heappop(heap)[1]
        cp = terms.pop(mp)
        if p:
            cp %= p
        if not cp:
            continue
        for idx, lm in leads:
            if all(map(le, lm, mp)):
                break
        else:
            rem[mp] = cp
            continue
        if idx not in tails:
            d = divisors[idx].terms
            tails[idx] = (inverse(ring.field, d[lm]), [(m, c) for m, c in d.items() if m != lm])
        inv, tail = tails[idx]
        q = cp * inv % p if p else cp * inv
        a = tuple(map(sub, mp, lm))
        quots[idx][a] = q
        for mt, ct in tail:
            m = tuple(map(add, mt, a))
            c = terms.get(m)
            if c is None:
                terms[m] = -q * ct
                heappush(heap, (key(m), m))
            else:
                terms[m] = c - q * ct
    return [Poly(ring, q) for q in quots], Poly(ring, rem)


def inverse(field, c):
    """The field's inverse of the nonzero scalar ``c``."""
    return pow(c, -1, field.char) if field.char else 1 / Fraction(c)


def monic(f):
    """``f`` scaled to leading coefficient 1 (zero stays zero)."""
    if f.is_zero():
        return f
    return f.scale(inverse(f.ring.field, f.terms[tuple_lead(f)]))


# -- the integer form against Fraction-per-term arithmetic ------------------------------


def is_canonical(f):
    """Whether ``f`` holds its canonical integer form: nonzero ``int`` terms
    over an ``int`` denominator, which over GF(p) is 1 with residues in
    ``1 .. p-1``, and over QQ is positive and coprime to the terms."""
    p, d, cs = f.ring.field.char, f._d, list(f._t.values())
    if type(d) is not int or not all(type(c) is int and c for c in cs):
        return False
    if p:
        return d == 1 and all(0 < c < p for c in cs)
    return d > 0 and gcd(d, *cs) == 1


def in_field(p, terms):
    """``terms``, exponent tuples to ``int``s or ``Fraction``s, read one
    coefficient at a time in QQ (p = 0) or GF(p), zeros dropped: the
    Fraction-per-term reference that ``Poly.terms`` must equal."""
    out = {}
    for m, c in terms.items():
        c = Fraction(c)
        if p:
            c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            out[m] = c
    return out


def ref_sum(a, b, sign=1):
    """The terms of ``a + sign * b`` on ``Fraction``s, unreduced."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * Fraction(c)
    return out


def ref_product(a, b):
    """The terms of ``a * b`` on ``Fraction``s, unreduced."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + Fraction(c1) * c2
    return out


def ref_substitute(a, images, nvars):
    """The terms of ``a`` at ``x_i -> images[i]``, term dicts over ``nvars``
    variables, by repeated ``ref_product``."""
    out = {}
    for m, c in a.items():
        term = {(0,) * nvars: Fraction(c)}
        for i, e in enumerate(m):
            for _ in range(e):
                term = ref_product(term, images[i])
        out = ref_sum(out, term)
    return out


def fraction_calls(run):
    """``(run(), names)``: the names of the functions of the ``fractions``
    module that ``run()`` entered, seen by a profile hook that passes every
    event on to the hook already installed, if any."""
    names = []
    outer = sys.getprofile()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            names.append(frame.f_code.co_name)
        if outer is not None:
            outer(frame, event, arg)

    sys.setprofile(hook)
    try:
        out = run()
    finally:
        sys.setprofile(outer)
    return out, names


# -- points carried by hand: oracles for the comparison --------------------------------


def as_hom(p):
    """The morphism ``A -> B`` a point of an affine scheme is, reassembled
    from its factor morphisms: a(x) is the sum over atoms of e * phi_e(x)."""
    X = p.scheme
    if X.ncharts != 1 or X.patches:
        raise ValueError("not a point of an affine scheme")
    A = X.charts[0]
    B = p.test_algebra
    if len(p.factors) == 1 and p.factors[0][0] == B.one:
        return p.factors[0][2]
    images = []
    for i in range(A.nvars):
        total = B.zero
        for (e, _, phi) in p.factors:
            total = total + B.element(phi.images[i].poly) * e
        images.append(total)
    return AlgebraMorphism(A, B, images)


def section_value_at_point(s, p):
    """The value in B of a section over the top open at a point of the same
    scheme: on each atom, the chart value carried by the point's chart map."""
    X = s.domain.owner
    if p.scheme is not X:
        raise ValueError("point does not live on the section's scheme")
    B = p.test_algebra
    total = B.zero
    for (e, c, phi) in p.factors:
        w = s.domain.components[c]
        if len(w.generators) != 1 or w.generators[0] != X.charts[c].one:
            raise ValueError("section is not presented over chart tops")
        # 1 is a unit everywhere, so the extension always exists
        lifted = try_extend(make_localization(X.charts[c], X.charts[c].one), phi)
        total = total + B.element(lifted(s.values[c][0]).poly) * e
    return total


def carry_point_in(u, rp):
    """Push a point of the realization of ``u`` along the inclusion into the
    ambient scheme: compose each atom's chart map with ``A_i -> (A_i)_g``."""
    if rp.scheme is not realization(u):
        raise ValueError("point does not live on the realization of the open")
    pieces = [(i, g) for i, w in enumerate(u.components) for g in w.generators]
    X, factors = u.owner, []
    for (e, idx, phi) in rp.factors:
        parent, g = pieces[idx]
        hom = make_localization(X.charts[parent], g).to_loc.then(phi)
        factors.append((e, *_lowest_chart(X, parent, hom)))
    return SchemePoint(X, rp.test_algebra, factors)


def lowest_chart_by_overlap(X, c, phi):
    """The lowest chart i <= c whose overlap with chart c, pulled back along
    the atom's chart map phi, is the top of B_e: the radical-membership
    criterion, the oracle for ``funscheme._lowest_chart``."""
    t_b = top(phi.target)
    return next(
        (i for i in range(c) if eq(image_open(phi, X.overlap(c, i)), t_b)), c
    )


def open_to_realization(U, V):
    """A compact open ``V <= U`` of X carried to the realization of U, by
    pulling back along its inclusion: the oracle that
    ``open_from_realization`` inverts."""
    if not V.leq(U):
        raise ValueError("the open is not below the realized one")
    return _inclusion(U, realization(U)).pullback(V)
