"""Shared helpers for the test suite: small random objects, common algebras.

Randomness is always driven by a caller-supplied ``random.Random`` so every
test run is reproducible from its seed.
"""

import itertools
from heapq import heapify, heappop, heappush
from operator import add, le, sub

from hypothesis import strategies as st

from zariski.algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    extract_fraction,
    make_localization,
    try_extend,
)
from zariski.fields import GF, QQ
from zariski.funscheme import SchemePoint, _realized, _reduce_factor, realization
from zariski.latscheme import chart_variable_samples
from zariski.polynomials import MonomialOrder, Poly, PolyRing, poly_sort_key


def qq_x() -> PresentedAlgebra:
    return PresentedAlgebra.free(QQ, ["x"])


def qq_xy() -> PresentedAlgebra:
    return PresentedAlgebra.free(QQ, ["x", "y"])


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


def product_of_points(p: int, k: int) -> PresentedAlgebra:
    """GF(p) x ... x GF(p) (k factors) presented with orthogonal idempotents.

    Variables e1..e_{k-1} with relations ei^2 = ei, ei*ej = 0; the last
    idempotent is 1 - e1 - ... - e_{k-1}.
    """
    if k == 1:
        return PresentedAlgebra.free(GF(p), [])
    names = [f"e{i}" for i in range(1, k)]
    ring = PolyRing(GF(p), names)
    gens = ring.gens()
    rels = [e * e - e for e in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            rels.append(gens[i] * gens[j])
    return PresentedAlgebra(ring, rels)


def random_poly(rng, ring, max_degree=2, max_terms=3, coeff_bound=3):
    """A random polynomial: up to ``max_terms`` monomials of total degree
    <= ``max_degree`` with integer coefficients in [-coeff_bound, coeff_bound].
    """
    p = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        mono = ring.one
        for _ in range(rng.randint(0, max_degree)):
            mono = mono * ring.var(rng.randrange(ring.nvars))
        p = p + mono.scale(ring.field.of_int(rng.randint(-coeff_bound, coeff_bound)))
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
    from zariski.lattice import basic_open

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
        rels.append(ring.from_terms(terms))
    return PresentedAlgebra(ring, rels)


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


def fraction_divide(f, divisors, want_quotients=True):
    """Multivariate division on the field's own scalars: the oracle for
    ``groebner.divide``.

    The same steps in the same order (largest working term first, the first
    divisor whose leading monomial divides it), with one field operation
    per tail term: over QQ on ``Fraction``s, over GF(p) on residues reduced
    when their term is popped.
    """
    ring = f.ring
    p = ring.field.char
    hkey = ring._heap_key
    leads = [(i, d.lead_monomial()) for i, d in enumerate(divisors) if d.terms]
    tails = {}
    quots = [{} for _ in divisors] if want_quotients else None
    rem = {}
    terms = dict(f.terms)
    heap = [(hkey(m), m) for m in terms]
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
            tails[idx] = (ring.field.inv(d[lm]), [(m, c) for m, c in d.items() if m != lm])
        inv, tail = tails[idx]
        q = cp * inv % p if p else cp * inv
        a = tuple(map(sub, mp, lm))
        if quots is not None:
            quots[idx][a] = q
        for mt, ct in tail:
            m = tuple(map(add, mt, a))
            c = terms.get(m)
            if c is None:
                terms[m] = -q * ct
                heappush(heap, (hkey(m), m))
            else:
                terms[m] = c - q * ct
    if quots is not None:
        quots = [Poly(ring, q) for q in quots]
    return quots, Poly(ring, rem)


def monic(f):
    """``f`` scaled to leading coefficient 1 (zero stays zero)."""
    if f.is_zero():
        return f
    return f.scale(f.ring.field.inv(f.lead_coeff()))


# -- points carried by hand: oracles for the comparison --------------------------------


def as_hom(p):
    """The morphism ``A -> B`` a point of an affine scheme is, reassembled
    from its factor morphisms: a(x) is the sum over atoms of e * phi_e(x)."""
    A = p.scheme.algebra
    if A is None:
        raise ValueError("not a point of an affine scheme")
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
    X = s.scheme
    if p.scheme.lat is not X:
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


def carry_point_in(fun, u, rp):
    """Push a point of the realization of ``u`` along the inclusion into the
    ambient scheme: compose each atom's chart map with ``A_i -> (A_i)_g``."""
    if rp.scheme is not realization(fun, u):
        raise ValueError("point does not live on the realization of the open")
    pieces = [(i, g) for i, w in enumerate(u.components) for g in w.generators]
    factors = []
    for (e, idx, phi) in rp.factors:
        parent, g = pieces[idx]
        hom = make_localization(fun.lat.charts[parent], g).to_loc.then(phi)
        factors.append((e, *_reduce_factor(fun, parent, hom)))
    return SchemePoint(fun, rp.test_algebra, factors)


def open_to_realization(X, U, V):
    """A compact open ``V <= U`` of X carried to the realization of U, by
    pulling back along its inclusion: the oracle that
    ``open_from_realization`` inverts."""
    if not V.leq(U):
        raise ValueError("the open is not below the realized one")
    return _realized(U)[1].pullback(V)
