"""Schemes as functors of points on finitely presented algebras.

The functor of points of a scheme is read off the same ``LatticeScheme`` that presents it as a locally
ringed lattice, and a point names that scheme.  An affine scheme is the case of one chart and no patches.
Points over a finite test algebra B are computed exactly: B splits along its atomic idempotents into local
factors B_e, and each factor's points are the chart homs kept at their lowest chart.  A point over a local
ring lies in chart j exactly when some patch denominator to chart j maps to a unit (the open subfunctor
D(f)).  So X(B_e) is the disjoint union of the strata U_j(B_e) minus the lower charts, and chart j's hom
search, given those denominators as non-unit conditions (``_is_unit``), builds its own stratum alone, with
no chart map.  Compact opens of the scheme evaluate pointwise to basic opens of B; locality (the equalizer
condition along a cover of B) and the realization of a compact open as a scheme of its own are decidable at
this scale.
"""

from __future__ import annotations

from itertools import product as _iproduct
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    PresentedAlgebra,
    _kernel_mod_p,
    _homs,
    _morphism,
    enumerate_homs,
    make_localization,
    try_extend,
)
from .fields import _Frozen, _Value
from .lattice import ZarElement, basic_open, eq, top
from .latscheme import (
    CompactOpen,
    LatticeScheme,
    restrict_scheme,
)
from .polynomials import _poly, _set, poly_sort_key
from .sheaf import restriction_map


class NonReducedAlgebraError(ValueError):
    """A test algebra's atoms do not decompose it as they must."""


def functorial(X: LatticeScheme) -> LatticeScheme:
    """The functor of points of X, which is X itself: both sides read the
    same charts and patches.  Kept for the benchmark workloads that call it."""
    return X


class SchemePoint(_Value):
    """A point of a scheme over a test algebra B.

    ``factors`` lists (idempotent e, chart index, morphism chart -> B/(1-e)) over the atomic idempotent
    decomposition of B; each factor's chart index is the lowest chart containing the factor's image, which
    makes the representation canonical.  Over the trivial algebra the factor list is empty.
    """

    __slots__ = ("scheme", "test_algebra", "factors")

    def __init__(
        self,
        scheme: LatticeScheme,
        test_algebra: PresentedAlgebra,
        factors: Sequence[Tuple[AlgebraElement, int, AlgebraMorphism]],
    ):
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "test_algebra", test_algebra)
        object.__setattr__(self, "factors", tuple(factors))

    def _key(self):
        return (id(self.scheme), self.test_algebra, self.factors)

    def __repr__(self):
        parts = []
        for (e, i, phi) in self.factors:
            imgs = ", ".join(str(v) for v in phi.images)
            parts.append(f"e={e}: chart {i}, ({imgs})")
        return f"<point {'; '.join(parts) or 'trivial'}>"


# -- reducedness and idempotents ------------------------------------------------


def is_reduced(B: PresentedAlgebra) -> bool:
    """No nonzero nilpotents, decided by the kernel of Frobenius.

    Over GF(p) the map b -> b**p is GF(p)-linear, and it kills a nonzero element exactly when B has a
    nonzero nilpotent (b**(p**k) = 0 makes some b**(p**i) a nonzero element with zero p-th power).  So B is
    reduced iff Frobenius has full rank on the staircase basis: one row reduction over GF(p) of the matrix
    ``_frobenius`` keeps on B, whose difference with the identity gives the atoms (``atomic_factors``).  The
    answer is remembered on B (in ``B._memo``, next to its inverses), so tabling many points over one
    algebra (``compare._atom_table``) decides it once.
    """
    return B._remember("reduced", lambda: not _kernel_mod_p(_frobenius(B)[1], B.field.char))


def atomic_factors(B: PresentedAlgebra) -> List[Tuple[AlgebraElement, AlgebraMorphism]]:
    """Each atom e of B, in ``poly_sort_key`` order, with its projection B -> B/(1 - e): one factor algebra
    per atom (a fresh list).

    The atoms (minimal nonzero idempotents) are read off Frobenius.  In any finite GF(p)-algebra, reduced or
    not, the fixed space of b -> b**p is GF(p)^r, spanned by the r atoms: B is a product of local rings, and
    in a local one b**p == b forces b into GF(p).  So a fixed b is a sum of c_k * e_k, the idempotent
    1 - (b - c)**(p - 1) = 1 - sum_k c**(p - 1 - k) * b**k is the sum of the atoms on which b takes the
    value c, and splitting 1 along every basis vector of the fixed space leaves exactly the atoms
    (Berlekamp), all on the codes of B's regular representation (``_Regular``).  A fixed space of dimension
    one makes 1 the only atom, projected by the identity.  The zero ring has no atoms, over any field, and
    builds no Frobenius matrix; other algebras over QQ are refused.  Remembered on B, in
    ``B._memo["atoms"]``; the Frobenius matrix is the one ``is_reduced`` reads (``_frobenius``).
    """
    return list(B._remember("atoms", _atomic_factors, B))


def _atomic_factors(B: PresentedAlgebra) -> Tuple[Tuple[AlgebraElement, AlgebraMorphism], ...]:
    if B.is_trivial():
        return ()
    stairs, frob = _frobenius(B)
    p, fixed = B.field.char, [[1]]  # a staircase {1} is all fixed
    if stairs[1:]:
        fixed = _kernel_mod_p([[(a - (i == j)) % p for j, a in enumerate(row)] for i, row in enumerate(frob)], p)
    if len(fixed) == 1:
        return ((B.one, AlgebraMorphism.identity(B)),)
    R, atoms = _regular(B), None
    one = R.weights[0]  # the code of 1: stairs[0] is the monomial 1
    # 1 - (x - c)**(p - 1) = 1 - sum_k c**(p - 1 - k) * x**k, as C(p - 1, k) = (-1)**k mod p
    terms = [[pow(c, p - 1 - k, p) for k in range(p)] for c in range(p)]
    for x in fixed:
        if not any(x[1:]):
            continue
        xs = [one, R.code(x)]
        for _ in range(p - 2):
            xs.append(R.mul(xs[-1], xs[1]))
        rows = list(zip(*map(R.digits, xs)))  # rows[i][k]: coordinate i of x**k
        level_sets = [R.code([(i == 0) - sum(map(int.__mul__, t, row)) for i, row in enumerate(rows)])
                      for t in terms]
        pieces = (R.mul(e, u) for e in atoms for u in level_sets) if atoms else level_sets
        atoms = [u for u in pieces if u]
        if len(atoms) == len(fixed):
            break
    if [sum(col) % p for col in zip(*map(R.digits, atoms))] != R.digits(one):
        raise NonReducedAlgebraError(f"atomic idempotents of {B!r} do not decompose the unit")
    elements = sorted(map(R.element, atoms), key=lambda e: poly_sort_key(e.poly))
    return tuple([(e, factor_projection(B, e)) for e in elements])


def _frobenius(B: PresentedAlgebra) -> Tuple[List[int], List[List[int]]]:
    """The packed staircase basis of a finite B over GF(p) and the matrix of b -> b**p on it: column j holds
    the coordinates of (basis j)**p.  Built once per B, in ``B._memo["frobenius"]``, for ``is_reduced`` and
    ``atomic_factors``; raises ``ValueError`` over QQ or if B is infinite."""
    return B._remember("frobenius", _frobenius_matrix, B)


def _frobenius_matrix(B: PresentedAlgebra) -> Tuple[List[int], List[List[int]]]:
    stairs, p = B._stairs(), B.field.char
    if len(stairs) < 2:  # a prime field builds no regular representation, and 1**p == 1 everywhere
        return stairs, [[1]] * len(stairs)
    R = B._remember("regular", _Regular, B, stairs)
    return stairs, [list(r) for r in zip(*[R.digits(R.power(w, p) if m else w) for m, w in R.weights.items()])]


def _regular(B: PresentedAlgebra) -> "_Regular":
    """B's regular representation, built once per B, in ``B._memo["regular"]``."""
    return B._remember("regular", lambda: _Regular(B, B._stairs()))


class _Regular(_Frozen):
    """A finite algebra B over GF(p) in its regular representation (Cohen, *A Course in Computational
    Algebraic Number Theory*, GTM 138, 1993).  An element is its code, its coordinates on B's packed
    staircase read as base-p digits: code i names ``B.enumerate_elements()[i]``.  ``products[i][j]`` is
    stairs[i] * stairs[j], a staircase monomial or one normal form per product monomial, packed into one
    int with coordinate k at bit ``k * width``, so that no slot of a product's sum carries."""

    __slots__ = ("algebra", "p", "stairs", "weights", "products", "width")

    def __init__(self, B: PresentedAlgebra, stairs: List[int]):
        p, n = B.field.char, len(stairs)
        width = (n * n * (p - 1) ** 3).bit_length()  # bounds a slot of a product's sum
        row_of, forms = {m: i for i, m in enumerate(stairs)}, {}
        for m in {a + b for a in stairs for b in stairs}:
            terms = {m: 1} if m in row_of else B.normal_form(_poly(B.ring, {m: 1}))._t
            forms[m] = sum([c << width * row_of[u] for u, c in terms.items()])
        weights = {m: p ** (n - 1 - i) for i, m in enumerate(stairs)}
        products = [[forms[a + b] for b in stairs] for a in stairs]
        for name, value in zip(self.__slots__, (B, p, stairs, weights, products, width)):
            _set(self, name, value)

    def mul(self, a: int, b: int) -> int:
        acc, y = 0, self.digits(b)
        for xi, row in zip(self.digits(a), self.products):
            if xi:
                for yj, w in zip(y, row):
                    if yj:
                        acc += xi * yj * w
        return self.code([acc >> self.width * k & (1 << self.width) - 1 for k in range(len(y))])

    def power(self, a: int, e: int) -> int:
        out = a  # e >= 1, squared and multiplied bit by bit from the top
        for bit in bin(e)[3:]:
            out = self.mul(self.mul(out, out), a) if bit == "1" else self.mul(out, out)
        return out

    def code(self, x: List[int]) -> int:  # of the coordinates x, reduced mod p
        return sum([d % self.p * w for d, w in zip(x, self.weights.values())])

    def digits(self, code: int) -> List[int]:
        return [code // w % self.p for w in self.weights.values()]

    def encode(self, b: AlgebraElement) -> int:
        weights = self.weights
        return sum([c * weights[m] for m, c in b.poly._t.items()])

    def element(self, code: int) -> AlgebraElement:  # B.enumerate_elements()[code], built alone
        terms = {m: d for m, d in zip(self.stairs, self.digits(code)) if d}
        return AlgebraElement(self.algebra, _poly(self.algebra.ring, terms))


def connected_factor(B: PresentedAlgebra, e: AlgebraElement) -> PresentedAlgebra:
    """The factor B/(1 - e) of the idempotent decomposition."""
    return B.with_relations([(B.one - e).poly])


def factor_projection(B: PresentedAlgebra, e: AlgebraElement) -> AlgebraMorphism:
    """The projection B -> B/(1 - e) onto the factor of the idempotent e."""
    Bt = connected_factor(B, e)
    return _morphism(B, Bt, Bt.gens())


# -- point enumeration -----------------------------------------------------------


def _chart_map(
    X: LatticeScheme, c: int, phi: AlgebraMorphism, j: int
) -> Optional[AlgebraMorphism]:
    """The map A_j -> B_e of an atom carried on chart c by phi: phi itself, or
    through the first patch Q from c to j at which phi(Q.f) is a unit.  B_e
    is local, so a map exists exactly when the atom lies in chart j."""
    # chart c's identity patch gives phi too, but builds a patch per call: 60
    # comparisons under cProfile (2 vCPUs) took 0.29-0.39 s so, 0.26-0.29 s here
    if j == c:
        return phi
    for Q in X.patches_for(c, j):
        psi = try_extend(Q.loc_f, phi)
        if psi is not None:
            return Q.chart_bwd.then(psi)
    return None


def _lowest_chart(
    X: LatticeScheme, c: int, phi: AlgebraMorphism
) -> Tuple[int, AlgebraMorphism]:
    """The lowest chart of an atom carried on chart c by phi, with its map."""
    for j in range(c):
        m = _chart_map(X, c, phi, j)
        if m is not None:
            return j, m
    return c, phi


def _is_unit(reduced: bool, B: PresentedAlgebra, code: int) -> bool:
    """Whether the element of code ``code`` (``_Regular``) of a local factor B of a finite test algebra is a
    unit: nonzero when the test algebra is reduced (its local factors are fields), else not nilpotent."""
    return code != 0 if reduced else any(sum([a * (code // w % p) for w, a in row]) % p
                                         for p, row in B._remember("nilradical", _nilradical, B))


def _nilradical(B: PresentedAlgebra) -> Tuple[tuple, ...]:
    """The nonzero rows of F^N, F the Frobenius matrix and p^N >= dim B, whose common kernel is B's nilradical
    (b**dim B == 0): each as p and its nonzero entries, each with the weight of its coordinate in a code."""
    (stairs, frob), p = _frobenius(B), B.field.char
    power, reach = frob, p
    while reach < len(stairs):
        power = [[sum(map(int.__mul__, row, col)) % p for col in zip(*frob)] for row in power]
        reach *= p
    weights = _regular(B).weights.values()
    return tuple([(p, [(w, a) for w, a in zip(weights, row) if a]) for row in power if any(row)])


def eval_points(X: LatticeScheme, B: PresentedAlgebra) -> List[SchemePoint]:
    """All points of X over the finite test algebra B, canonically represented.

    B splits along its atomic idempotents into local factors, and each factor's points are the chart homs
    kept at their lowest chart: every hom of chart 0, and the beta of chart j > 0 with no unit beta(Q.f) for
    a patch Q to a lower chart (``_is_unit``), which the search of chart j takes as non-unit conditions
    (``algebra._homs``), so it builds no hom to drop.  Only a chart j > 0 asks whether B is reduced.  The
    zero ring has no atoms, so its one point is the empty product, with no factors.
    """
    per_atom: List[List[Tuple[AlgebraElement, int, AlgebraMorphism]]] = []
    for e, to_factor in atomic_factors(B):
        Be = to_factor.target
        per_atom.append([
            (e, j, beta)
            for j, A in enumerate(X.charts)
            for beta in (_homs(A, Be, [Q.f.poly for i in range(j) for Q in X.patches_for(j, i)],
                               (lambda b: not b.is_zero()) if is_reduced(B)
                               else lambda b, R=_regular(Be): _is_unit(False, Be, R.encode(b)))
                         if j else enumerate_homs(A, Be))
        ])
    return [SchemePoint(X, B, list(combo)) for combo in _iproduct(*per_atom)]


def open_at_point(U: CompactOpen, p: SchemePoint) -> ZarElement:
    """Evaluate a compact open at a point: a basic open of B."""
    if U.owner is not p.scheme:
        raise ValueError("open does not live on the point's scheme")
    B = p.test_algebra
    gens: List[AlgebraElement] = []
    for (e, j, phi) in p.factors:
        w = U.components[j]
        for g in w.generators:
            image = phi(g)
            gens.append(B.element(image.poly) * e)
    return basic_open(B, gens)


# -- functoriality ----------------------------------------------------------------


def _atom_under(
    atoms: Sequence[AlgebraElement], chi: AlgebraMorphism, to_factor: AlgebraMorphism
) -> int:
    """For chi : B -> B2, the index among B's ``atoms`` of the one atom e under the atom e2 of B2 that
    ``to_factor`` projects to: chi(e) = 1 in B2/(1 - e2)."""
    for i, e in enumerate(atoms):
        if to_factor(chi(e)) == to_factor.target.one:
            return i
    raise NonReducedAlgebraError(
        "no factor of the source decomposition covers an atom of the target"
    )


def map_point(p: SchemePoint, chi: AlgebraMorphism) -> SchemePoint:
    """Push a point of X(B) forward along chi : B -> B2."""
    X, B, B2 = p.scheme, p.test_algebra, chi.target
    if B != chi.source:
        raise ValueError("point does not live over the morphism's source")
    factors2 = []
    for e2, to_factor in atomic_factors(B2):
        _, j, phi = p.factors[_atom_under([e for (e, _, _) in p.factors], chi, to_factor)]
        images = [to_factor(chi(B.element(v.poly))) for v in phi.images]
        psi = AlgebraMorphism(X.charts[j], to_factor.target, images)
        factors2.append((e2, *_lowest_chart(X, j, psi)))
    return SchemePoint(X, B2, factors2)


# -- realization of a compact open ---------------------------------------------------


def realization(U: CompactOpen) -> LatticeScheme:
    """The compact open U as a scheme of its own, ``restrict_scheme(U)``.

    Glued from one localized chart per basic piece of U, so a single piece
    realizes to the affine scheme of the localization.  Remembered on U's
    scheme X in ``X._memo[("realized", U)]``, so its points compare equal.
    """
    return U.owner._remember(("realized", U), restrict_scheme, U)


# -- locality along a cover of the test algebra ---------------------------------------


def check_locality(
    X: LatticeScheme, B: PresentedAlgebra, pieces: Sequence[AlgebraElement]
) -> bool:
    """X(B) is exactly the matching families along the cover {D(f)} of B.

    Checks by enumeration that restriction to the cover pieces is injective and that the families agreeing
    on the pairwise overlaps are as many as the global points.  Each local point is restricted to each
    overlap once; the families are then joined piece by piece, a point of piece k joining a partial family
    whose points it equals on their overlaps with piece k.
    """
    if not eq(basic_open(B, list(pieces)), top(B)):
        raise ValueError("the given elements do not cover the test algebra")
    locs = [make_localization(B, f) for f in pieces]
    global_points = eval_points(X, B)
    restricted = {tuple(map_point(p, loc.to_loc) for loc in locs) for p in global_points}
    if len(restricted) != len(global_points):
        return False
    rows = []  # per piece i: each point of X(B_fi) as its images on the overlaps D(fi*fj)
    for i, loc in enumerate(locs):
        maps = [
            (j, restriction_map(loc, make_localization(B, pieces[i] * g)))
            for j, g in enumerate(pieces)
            if j != i
        ]
        local_points = eval_points(X, loc.algebra)
        rows.append([{j: map_point(p, m) for j, m in maps} for p in local_points])
    families: List[tuple] = [()]
    for k, piece_rows in enumerate(rows):
        families = [
            family + (row,)
            for family in families
            for row in piece_rows
            if all(earlier[k] == row[i] for i, earlier in enumerate(family))
        ]
    return len(families) == len(global_points)

