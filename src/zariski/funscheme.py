"""Schemes as functors of points on finitely presented algebras.

A functorial scheme is the functor of points of chart-and-patch data, the
same data that presents a lattice scheme; an affine scheme is the case of
one chart and no patches.  Its points over a finite test algebra B are
computed exactly: B splits along its atomic idempotents into connected
factors, and each factor's points are the chart homs kept at their lowest
chart.  With several charts the factors must be fields (B reduced) so that
every point lands entirely in one chart.  Compact opens of the functor are
compact opens of the underlying chart data and evaluate pointwise to basic
opens of B; locality (the equalizer condition along a cover of B) and the
realization of a compact open as a scheme of its own are decidable at this
scale.
"""

from __future__ import annotations

from itertools import product as _iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    PresentedAlgebra,
    enumerate_homs,
    extract_fraction,
    make_localization,
    try_extend,
)
from .lattice import ZarElement, basic_open, eq, induced_hom, top
from .latscheme import (
    CompactOpen,
    LatticeScheme,
    SchemeMorphism,
    extend_over,
    global_sections,
    mk_affine,
    restrict_scheme,
)
from .polynomials import Monomial, PolyRing, poly_sort_key


class NonReducedAlgebraError(ValueError):
    """Multi-chart point enumeration needs a reduced test algebra."""


class FunctorialScheme:
    """A scheme presented as a functor of points.

    ``lat`` is the chart presentation; points are evaluated chart by chart
    and compact opens of the functor live over it.
    """

    __slots__ = ("lat",)

    def __init__(self, lat: LatticeScheme):
        object.__setattr__(self, "lat", lat)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FunctorialScheme is immutable")

    @property
    def charts(self) -> Tuple[PresentedAlgebra, ...]:
        return self.lat.charts

    @property
    def algebra(self) -> Optional[PresentedAlgebra]:
        """The chart algebra of an affine scheme (one chart, no patches)."""
        if self.lat.ncharts == 1 and not self.lat.data.patches:
            return self.lat.charts[0]
        return None

    def __repr__(self):
        if self.algebra is not None:
            return f"Sp({self.algebra!r})"
        return f"FunctorialScheme({self.lat.ncharts} charts)"


def representable(A: PresentedAlgebra) -> FunctorialScheme:
    return FunctorialScheme(mk_affine(A))


def functorial(X: LatticeScheme) -> FunctorialScheme:
    """Wrap a chart presentation as a functor of points."""
    return FunctorialScheme(X)


class SchemePoint:
    """A point of a functorial scheme over a test algebra B.

    ``factors`` lists (idempotent e, chart index, morphism chart -> B/(1-e))
    over the atomic idempotent decomposition of B; each factor's chart index
    is the lowest chart containing the factor's image, which makes the
    representation canonical.  Over the trivial algebra the factor list is
    empty.
    """

    __slots__ = ("scheme", "test_algebra", "factors", "_hash")

    def __init__(
        self,
        scheme: FunctorialScheme,
        test_algebra: PresentedAlgebra,
        factors: Sequence[Tuple[AlgebraElement, int, AlgebraMorphism]],
    ):
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "test_algebra", test_algebra)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SchemePoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, SchemePoint):
            return NotImplemented
        return (
            self.scheme is other.scheme
            and self.test_algebra == other.test_algebra
            and self.factors == other.factors
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.scheme), self.test_algebra, self.factors))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        parts = []
        for (e, i, phi) in self.factors:
            imgs = ", ".join(str(v) for v in phi.images)
            parts.append(f"e={e}: chart {i}, ({imgs})")
        return f"<point {'; '.join(parts) or 'trivial'}>"


# -- reducedness and idempotents ------------------------------------------------


def is_reduced(B: PresentedAlgebra) -> bool:
    """No nonzero nilpotents, decided by the kernel of Frobenius.

    Over GF(p) the map b -> b**p is GF(p)-linear, and it kills a nonzero
    element exactly when B has a nonzero nilpotent (b**(p**k) = 0 makes some
    b**(p**i) a nonzero element with zero p-th power).  So B is reduced iff
    Frobenius has full rank on the staircase basis: dim B normal forms and
    one row reduction over GF(p).  The same matrix less the identity gives
    the atoms (``atomic_factors``).  The answer is remembered on B (in
    ``B._memo``, next to its inverses), so pushing many points into one
    algebra decides it once.
    """
    if not B.field.is_finite:
        raise ValueError("cannot enumerate an algebra over QQ")
    if "reduced" not in B._memo:
        B._memo["reduced"] = B.is_trivial() or not _kernel_mod_p(
            _frobenius(B)[1], B.field.char
        )
    return B._memo["reduced"]


def atomic_factors(B: PresentedAlgebra) -> List[Tuple[AlgebraElement, AlgebraMorphism]]:
    """Each atom e of B, in ``poly_sort_key`` order, with its projection
    B -> B/(1 - e): one factor algebra per atom (a fresh list).

    The atoms (minimal nonzero idempotents) are read off Frobenius.  In any
    finite GF(p)-algebra, reduced or not, the fixed space of b -> b**p is
    GF(p)^r, spanned by the r atoms: B is a product of local rings, and in
    a local one b**p == b forces b into GF(p).  So a fixed b is a sum of
    c_k * e_k, the idempotent 1 - (b - c)**(p - 1) is the sum of the atoms
    on which b takes the value c, and splitting 1 along every basis vector
    of the fixed space leaves exactly the atoms (Berlekamp).  A fixed space
    of dimension one makes 1 the only atom, projected by the identity.  The
    trivial algebra has no atoms; algebras over QQ are refused.  Remembered
    on B, in ``B._memo["atoms"]``.
    """
    memo = B._memo
    if "atoms" not in memo:
        memo["atoms"] = tuple(_atomic_factors(B))
    return list(memo["atoms"])


def _atomic_factors(B: PresentedAlgebra) -> List[Tuple[AlgebraElement, AlgebraMorphism]]:
    if not B.field.is_finite:
        raise ValueError("cannot enumerate an algebra over QQ")
    if B.is_trivial():
        return []
    p = B.field.char
    stairs, frob = _frobenius(B)
    for i, row in enumerate(frob):
        row[i] = (row[i] - 1) % p
    fixed = _kernel_mod_p(frob, p)
    if len(fixed) == 1:
        return [(B.one, AlgebraMorphism.identity(B))]
    atoms = [B.one]
    for x in fixed:
        b = AlgebraElement(B, B.ring.from_terms(dict(zip(stairs, x))))
        if b.poly.is_constant():
            continue
        level_sets = [1 - (b - c) ** (p - 1) for c in range(p)]
        atoms = [
            piece
            for e in atoms
            for piece in (e * u for u in level_sets)
            if not piece.is_zero()
        ]
        if len(atoms) == len(fixed):
            break
    atoms.sort(key=lambda e: poly_sort_key(e.poly))
    if sum(atoms, B.zero) != B.one:
        raise NonReducedAlgebraError(
            f"atomic idempotents of {B!r} do not decompose the unit"
        )
    return [(e, factor_projection(B, e)) for e in atoms]


def _frobenius(B: PresentedAlgebra) -> Tuple[List[Monomial], List[List[int]]]:
    """The staircase basis of a nontrivial finite B over GF(p) and the matrix
    of b -> b**p on it: column j holds the coordinates of (basis j)**p."""
    stairs = B.staircase()
    row_of = {m: i for i, m in enumerate(stairs)}
    p = B.field.char
    rows = [[0] * len(stairs) for _ in stairs]
    for j, m in enumerate(stairs):
        if not any(m):
            rows[j][j] = 1  # 1**p == 1, without a normal form
            continue
        power = B.element(B.ring.from_terms({m: 1})) ** p
        for mono, c in power.poly.terms.items():
            rows[row_of[mono]][j] = c
    return stairs, rows


def _kernel_mod_p(rows: List[List[int]], p: int) -> List[List[int]]:
    """A basis of {x : rows * x = 0} over GF(p), one vector per non-pivot
    column, by reducing ``rows`` to reduced row echelon form in place."""
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        for pivot in range(r, len(rows)):
            if rows[pivot][col]:
                break
        else:
            continue
        inv = pow(rows[pivot][col], -1, p)
        top_row = [a * inv % p for a in rows[pivot]]
        rows[pivot] = rows[r]
        rows[r] = top_row
        for i, row in enumerate(rows):
            factor = row[col]
            if factor and i != r:
                rows[i] = [(a - factor * b) % p for a, b in zip(row, top_row)]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = 1
        for r, col in enumerate(pivots):
            x[col] = -rows[r][free] % p
        basis.append(x)
    return basis


def connected_factor(B: PresentedAlgebra, e: AlgebraElement) -> PresentedAlgebra:
    """The factor B/(1 - e) of the idempotent decomposition."""
    if e == B.one:
        return B
    return B.with_relations([(B.one - e).poly])


def factor_projection(B: PresentedAlgebra, e: AlgebraElement) -> AlgebraMorphism:
    """The projection B -> B/(1 - e) onto the factor of the idempotent e."""
    Bt = connected_factor(B, e)
    return AlgebraMorphism(B, Bt, [Bt.var(i) for i in range(B.nvars)])


# -- point enumeration -----------------------------------------------------------


def _chart_candidates(
    X: FunctorialScheme, j: int, Bt: PresentedAlgebra
) -> List[AlgebraMorphism]:
    """Homs from chart j that do not reduce to a lower chart."""
    out = []
    t_b = top(Bt)
    for beta in enumerate_homs(X.charts[j], Bt):
        reducible = False
        for i in range(j):
            u_ji = X.lat.data.overlap(j, i)
            if eq(induced_hom(beta, u_ji), t_b):
                reducible = True
                break
        if not reducible:
            out.append(beta)
    return out


def eval_points(X: FunctorialScheme, B: PresentedAlgebra) -> List[SchemePoint]:
    """All points of X over the test algebra B, canonically represented.

    B splits along its atomic idempotents, and each factor's points are the
    chart homs kept at their lowest chart.  One-chart schemes accept any
    finite B; with several charts B must also be reduced.
    """
    if B.is_trivial():
        return [SchemePoint(X, B, ())]
    if X.lat.ncharts > 1 and not is_reduced(B):
        raise NonReducedAlgebraError(
            f"cannot enumerate multi-chart points over the non-reduced {B!r}"
        )
    per_atom: List[List[Tuple[AlgebraElement, int, AlgebraMorphism]]] = []
    for e, to_factor in atomic_factors(B):
        options = []
        for j in range(X.lat.ncharts):
            for beta in _chart_candidates(X, j, to_factor.target):
                options.append((e, j, beta))
        per_atom.append(options)
    points = []
    for combo in _iproduct(*per_atom):
        points.append(SchemePoint(X, B, list(combo)))
    return points


def open_at_point(U: CompactOpen, p: SchemePoint) -> ZarElement:
    """Evaluate a compact open at a point: a basic open of B."""
    X = p.scheme
    if U.owner is not X.lat:
        raise ValueError("open does not live on the point's scheme")
    B = p.test_algebra
    gens: List[AlgebraElement] = []
    for (e, j, phi) in p.factors:
        w = U.components[j]
        for g in w.generators:
            image = phi(g)
            gens.append(B.element(image.poly) * e)
    return basic_open(B, gens)


def membership(U: CompactOpen, p: SchemePoint) -> bool:
    """Whether the point lies in the compact open."""
    return eq(open_at_point(U, p), top(p.test_algebra))


# -- functoriality ----------------------------------------------------------------


def _reduce_factor(
    X: FunctorialScheme, chart: int, hom: AlgebraMorphism
) -> Tuple[int, AlgebraMorphism]:
    """Carry a chart hom to the lowest chart containing its point."""
    Bt = hom.target
    t_b = top(Bt)
    j = chart
    while True:
        moved = False
        for i in range(j):
            u_ji = X.lat.data.overlap(j, i)
            if not eq(induced_hom(hom, u_ji), t_b):
                continue
            for Q in X.lat.data.patches_for(j, i):
                hom_ext = try_extend(Q.loc_f, hom)
                if hom_ext is None:
                    continue
                hom = Q.chart_bwd.then(hom_ext)
                j = i
                moved = True
                break
            if moved:
                break
            raise NonReducedAlgebraError(
                "factor algebra is not connected: no single patch carries "
                "the point"
            )
        if not moved:
            return j, hom


def map_point(
    X: FunctorialScheme, p: SchemePoint, chi: AlgebraMorphism
) -> SchemePoint:
    """Push a point of X(B) forward along chi : B -> B2."""
    B2 = chi.target
    if p.test_algebra != chi.source:
        raise ValueError("point does not live over the morphism's source")
    if B2.is_trivial():
        return SchemePoint(X, B2, ())
    if X.lat.ncharts > 1 and not is_reduced(B2):
        raise NonReducedAlgebraError(
            f"cannot push multi-chart points into the non-reduced {B2!r}"
        )
    factors2 = []
    for e2, to_factor in atomic_factors(B2):
        B2e = to_factor.target
        hit = None
        for (e, j, phi) in p.factors:
            if to_factor(chi(p.test_algebra.element(e.poly))) == B2e.one:
                hit = (j, phi)
                break
        if hit is None:
            raise NonReducedAlgebraError(
                "no factor of the source decomposition covers an atom of "
                "the target"
            )
        j, phi = hit
        images = [
            to_factor(chi(p.test_algebra.element(v.poly)))
            for v in phi.images
        ]
        psi = AlgebraMorphism(X.charts[j], B2e, images)
        j2, psi2 = _reduce_factor(X, j, psi)
        factors2.append((e2, j2, psi2))
    return SchemePoint(X, B2, factors2)


# -- realization of a compact open ---------------------------------------------------


def _realized(U: CompactOpen) -> Tuple[FunctorialScheme, SchemeMorphism]:
    """The realization of U with its inclusion, remembered on U's scheme."""
    key = ("realized", U)
    got = U.owner._memo.get(key)
    if got is None:
        Xu, inc = restrict_scheme(U.owner, U)
        got = (FunctorialScheme(Xu), inc)
        U.owner._memo[key] = got
    return got


def realization(X: FunctorialScheme, U: CompactOpen) -> FunctorialScheme:
    """The compact open U as a scheme of its own.

    Glued from one localized chart per basic piece of U, so a single piece
    realizes to the affine scheme of the localization.  Kept with U's
    inclusion in ``X.lat._memo[("realized", U)]``, so its points compare equal.
    """
    if U.owner is not X.lat:
        raise ValueError("open does not live on the scheme")
    return _realized(U)[0]


def open_from_realization(
    X: FunctorialScheme, U: CompactOpen, W: CompactOpen
) -> CompactOpen:
    """Carry a compact open of the realization back into X (below U)."""
    if W.owner is not _realized(U)[0].lat:
        raise ValueError("open does not live on the realization")
    pieces: List[Tuple[int, AlgebraElement]] = []
    for i, w in enumerate(U.components):
        for g in w.generators:
            pieces.append((i, g))
    comps: List[List[AlgebraElement]] = [[] for _ in range(X.lat.ncharts)]
    for idx, (i, g) in enumerate(pieces):
        loc = make_localization(X.lat.charts[i], g)
        for h in W.components[idx].generators:
            num, _ = extract_fraction(loc, h)
            comps[i].append(g * num)
    return CompactOpen(
        X.lat,
        [basic_open(X.lat.charts[i], comps[i]) for i in range(X.lat.ncharts)],
    )


# -- locality along a cover of the test algebra ---------------------------------------


def check_locality(
    X: FunctorialScheme, B: PresentedAlgebra, pieces: Sequence[AlgebraElement]
) -> bool:
    """X(B) is exactly the matching families along the cover {D(f)} of B.

    Checks by enumeration that restriction to the cover pieces is injective
    and that every family agreeing on the pairwise overlaps comes from a
    unique global point.
    """
    if not eq(basic_open(B, list(pieces)), top(B)):
        raise ValueError("the given elements do not cover the test algebra")
    locs = [make_localization(B, f) for f in pieces]
    global_points = eval_points(X, B)
    restricted = []
    for p in global_points:
        restricted.append(tuple(map_point(X, p, loc.to_loc) for loc in locs))
    if len(set(restricted)) != len(global_points):
        return False
    local_points = [eval_points(X, loc.algebra) for loc in locs]
    # pairwise-overlap restriction maps into a shared double localization
    n = len(pieces)
    overlap_maps: Dict[Tuple[int, int], AlgebraMorphism] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            loc_ij = make_localization(B, pieces[i] * pieces[j])
            overlap_maps[(i, j)] = extend_over(locs[i], loc_ij.to_loc)
    matching = 0
    for family in _iproduct(*local_points):
        good = True
        for i in range(n):
            for j in range(i + 1, n):
                left = map_point(X, family[i], overlap_maps[(i, j)])
                right = map_point(X, family[j], overlap_maps[(j, i)])
                if left != right:
                    good = False
                    break
            if not good:
                break
        if good:
            matching += 1
    return matching == len(global_points)


# -- rings of functions ---------------------------------------------------------------


def ring_of_functions(X: FunctorialScheme):
    """The functions on X: the chart algebra itself when X is affine, else
    the section ring over the top compact open."""
    A = X.algebra
    if A is not None:
        return A
    return global_sections(X.lat)


# -- fixtures ---------------------------------------------------------------------------


def affine_line(field) -> FunctorialScheme:
    return representable(PresentedAlgebra(PolyRing(field, ["x"])))


def affine_plane(field) -> FunctorialScheme:
    return representable(PresentedAlgebra(PolyRing(field, ["x", "y"])))


def multiplicative_group(field) -> FunctorialScheme:
    ring = PolyRing(field, ["x", "y"])
    xy_minus_1 = ring.var(0) * ring.var(1) - ring.one
    return representable(PresentedAlgebra(ring, [xy_minus_1]))
