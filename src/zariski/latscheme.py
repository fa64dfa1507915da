"""Schemes as finite affine gluing data over a lattice of compact opens.

A scheme is a list of chart algebras plus principal patches: for charts i
and j, a patch records basic opens D(f) and D(g) on the two sides and a
mutually inverse pair of algebra isomorphisms between the localizations.
Construction validates the patch isomorphisms, agreement of multiple
patches over one chart pair, and the triple-overlap (cocycle) condition,
each by explicit normal-form comparisons inside a common localization.

On top of the validated data live compact opens (one lattice element per
chart, compatible across patches), global sections (compatible families of
localized elements with a decidable equality), the scheme-level
invertibility support, morphisms with their pullback/pushforward data, and
the checkers for the local-morphism condition and affineness certificates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    POWER_CAP,
    AlgebraElement,
    AlgebraMorphism,
    Localization,
    PresentedAlgebra,
    extract_fraction,
    make_localization,
    try_extend,
)
from .lattice import (
    ZarElement,
    basic_open,
    bottom,
    eq,
    induced_hom,
    join,
    join_all,
    leq,
    meet,
    top,
)
from .sheaf import (
    BasicOpenSection,
    CoverData,
    SectionFamily,
    glue,
    invertibility_support_basic,
    restrict,
    restriction_map,
    section_equal,
)


class GluingError(ValueError):
    """Gluing data failed validation; the message carries the witness."""


def extend_over(loc: Localization, phi: AlgebraMorphism) -> AlgebraMorphism:
    """Extend ``phi : base -> C`` to ``base_f -> C``; f's image must be a unit."""
    out = try_extend(loc, phi)
    if out is None:
        raise GluingError(
            f"{phi(loc.denominator)} is not invertible in {phi.target!r}; "
            "cannot extend through the localization"
        )
    return out


class Patch:
    """One principal overlap piece between charts i and j.

    ``fwd`` and ``bwd`` are mutually inverse maps between (A_i)_f and
    (A_j)_g; validation happens in GluingData, not here.
    """

    __slots__ = ("i", "j", "f", "g", "loc_f", "loc_g", "fwd", "bwd", "_chart_bwd")

    def __init__(
        self,
        i: int,
        j: int,
        loc_f: Localization,
        loc_g: Localization,
        fwd: AlgebraMorphism,
        bwd: AlgebraMorphism,
    ):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "loc_f", loc_f)
        object.__setattr__(self, "loc_g", loc_g)
        object.__setattr__(self, "f", loc_f.denominator)
        object.__setattr__(self, "g", loc_g.denominator)
        object.__setattr__(self, "fwd", fwd)
        object.__setattr__(self, "bwd", bwd)
        object.__setattr__(self, "_chart_bwd", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Patch is immutable")

    @property
    def chart_bwd(self) -> AlgebraMorphism:
        """``A_j -> (A_i)_f``: chart j's localization map followed by
        ``bwd``, composed on first use and kept on the patch."""
        if self._chart_bwd is None:
            object.__setattr__(self, "_chart_bwd", self.loc_g.to_loc.then(self.bwd))
        return self._chart_bwd

    def mirror(self) -> "Patch":
        return Patch(self.j, self.i, self.loc_g, self.loc_f, self.bwd, self.fwd)

    def __repr__(self):
        return f"Patch({self.i}->{self.j}: D({self.f}) ~ D({self.g}))"


def make_patch(
    charts: Sequence[PresentedAlgebra],
    i: int,
    j: int,
    f: AlgebraElement,
    g: AlgebraElement,
    images_forward: Sequence[AlgebraElement],
    images_backward: Sequence[AlgebraElement],
) -> Patch:
    """Build a patch from the two bases' variable images.

    ``images_forward`` sends chart i's variables into (A_j)_g, and
    ``images_backward`` sends chart j's variables into (A_i)_f; the
    inverse-variable images are derived by inverting the denominators.
    """
    Ai, Aj = charts[i], charts[j]
    loc_f = make_localization(Ai, f)
    loc_g = make_localization(Aj, g)
    alpha = AlgebraMorphism(Ai, loc_g.algebra, images_forward)
    beta = AlgebraMorphism(Aj, loc_f.algebra, images_backward)
    fwd = extend_over(loc_f, alpha)
    bwd = extend_over(loc_g, beta)
    return Patch(i, j, loc_f, loc_g, fwd, bwd)


def transport_piece(patch: Patch, h: AlgebraElement) -> AlgebraElement:
    """Carry the basic piece D(h) ∧ D(f) across the patch: an element of A_j
    whose basic open is the image of D(h) ∧ D(f) under the patch map."""
    image = patch.fwd(patch.loc_f.to_loc(h))
    return patch.g * extract_fraction(patch.loc_g, image)[0]


class GluingData:
    """Validated chart-and-patch data; the combinatorial core of a scheme."""

    __slots__ = ("charts", "patches", "_by_pair")

    def __init__(
        self,
        charts: Sequence[PresentedAlgebra],
        patches: Sequence[Patch] = (),
        validate: bool = True,
    ):
        charts = tuple(charts)
        full: List[Patch] = []
        for p in patches:
            if not (0 <= p.i < len(charts) and 0 <= p.j < len(charts)):
                raise GluingError(f"patch {p!r} references a missing chart")
            if p.i == p.j:
                raise GluingError("patches must connect two distinct charts")
            if p.loc_f.base != charts[p.i] or p.loc_g.base != charts[p.j]:
                raise GluingError(f"patch {p!r} does not match its charts")
            full.append(p)
            full.append(p.mirror())
        by_pair: Dict[Tuple[int, int], List[Patch]] = {}
        for p in full:
            by_pair.setdefault((p.i, p.j), []).append(p)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "patches", tuple(full))
        object.__setattr__(self, "_by_pair", by_pair)
        if validate:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GluingData is immutable")

    def patches_for(self, i: int, j: int) -> List[Patch]:
        return self._by_pair.get((i, j), [])

    def overlap(self, i: int, j: int) -> ZarElement:
        """The overlap with chart j, as an open of chart i."""
        return basic_open(self.charts[i], [p.f for p in self.patches_for(i, j)])

    # -- validation -------------------------------------------------------
    def _validate(self):
        for p in self.patches:
            self._check_patch_iso(p)
        pairs = sorted({(p.i, p.j) for p in self.patches if p.i < p.j})
        for (i, j) in pairs:
            ps = self.patches_for(i, j)
            for a in range(len(ps)):
                for b in range(a + 1, len(ps)):
                    self._check_patch_agreement(ps[a], ps[b])
        n = len(self.charts)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) < 3:
                        continue
                    for P in self.patches_for(i, j):
                        for Q in self.patches_for(j, k):
                            self._check_cocycle(P, Q)

    def _check_patch_iso(self, p: Patch):
        if p.fwd.source != p.loc_f.algebra or p.fwd.target != p.loc_g.algebra:
            raise GluingError(f"{p!r}: forward map has wrong endpoints")
        if p.bwd.source != p.loc_g.algebra or p.bwd.target != p.loc_f.algebra:
            raise GluingError(f"{p!r}: backward map has wrong endpoints")
        if not p.fwd.is_valid() or not p.bwd.is_valid():
            raise GluingError(f"{p!r}: transition is not an algebra morphism")
        for idx in range(p.loc_f.algebra.nvars):
            v = p.loc_f.algebra.var(idx)
            if p.bwd(p.fwd(v)) != v:
                raise GluingError(
                    f"{p!r}: transition maps are not mutually inverse "
                    f"(backward(forward({p.loc_f.algebra.names[idx]})) = "
                    f"{p.bwd(p.fwd(v))})"
                )
        for idx in range(p.loc_g.algebra.nvars):
            v = p.loc_g.algebra.var(idx)
            if p.fwd(p.bwd(v)) != v:
                raise GluingError(
                    f"{p!r}: transition maps are not mutually inverse "
                    f"(forward(backward({p.loc_g.algebra.names[idx]})) = "
                    f"{p.fwd(p.bwd(v))})"
                )

    def _check_patch_agreement(self, P: Patch, Q: Patch):
        """Two patches over one chart pair must agree where both transport."""
        Aj = self.charts[P.j]
        t_pq = extract_fraction(P.loc_g, P.fwd(P.loc_f.to_loc(Q.f)))[0]
        t_qp = extract_fraction(Q.loc_g, Q.fwd(Q.loc_f.to_loc(P.f)))[0]
        s = P.g * Q.g * t_pq * t_qp
        loc_s = make_localization(Aj, s)
        if loc_s.algebra.is_trivial():
            return
        via_p = restriction_map(P.loc_g, loc_s)
        via_q = restriction_map(Q.loc_g, loc_s)
        Ai = self.charts[P.i]
        for idx in range(Ai.nvars):
            v = Ai.var(idx)
            left = via_p(P.fwd(P.loc_f.to_loc(v)))
            right = via_q(Q.fwd(Q.loc_f.to_loc(v)))
            if left != right:
                raise GluingError(
                    f"patches {P!r} and {Q!r} disagree on their common "
                    f"region at {Ai.names[idx]}: {left} vs {right}"
                )

    def _check_cocycle(self, P: Patch, Q: Patch):
        """Composite transport i->j->k must match the direct patches i->k."""
        Ai = self.charts[P.i]
        Ak = self.charts[Q.j]
        # region on chart i where both hops are defined, pushed to chart k
        r = extract_fraction(P.loc_f, P.bwd(P.loc_g.to_loc(Q.f)))[0]
        n_r = extract_fraction(P.loc_g, P.fwd(P.loc_f.to_loc(r)))[0]
        b = extract_fraction(Q.loc_g, Q.fwd(Q.loc_f.to_loc(P.g * n_r)))[0]
        via_region = basic_open(Ak, [Q.g * b])
        direct = self.patches_for(P.i, Q.j)
        u_ki = basic_open(Ak, [R.g for R in direct])
        if not leq(via_region, u_ki):
            raise GluingError(
                f"cocycle violation: the composite image of charts "
                f"({P.i},{P.j},{Q.j}) reaches D({Q.g * b}), outside the "
                f"recorded overlap with chart {P.i}"
            )
        psi2 = Q.loc_f.to_loc.then(Q.fwd)  # A_j -> (A_k)_{g_Q}
        for R in direct:
            s = Q.g * b * R.g
            loc_s = make_localization(Ak, s)
            if loc_s.algebra.is_trivial():
                continue
            into_s_from_q = restriction_map(Q.loc_g, loc_s)
            into_s_from_r = restriction_map(R.loc_g, loc_s)
            hop_j = extend_over(P.loc_g, psi2.then(into_s_from_q))
            for idx in range(Ai.nvars):
                v = Ai.var(idx)
                via = hop_j(P.fwd(P.loc_f.to_loc(v)))
                straight = into_s_from_r(R.fwd(R.loc_f.to_loc(v)))
                if via != straight:
                    raise GluingError(
                        f"cocycle violation on charts ({P.i},{P.j},{Q.j}): "
                        f"composite sends {Ai.names[idx]} to {via} but the "
                        f"direct patch sends it to {straight}"
                    )


class LatticeScheme:
    """A scheme presented by validated gluing data.

    ``_memo`` remembers values that depend on the scheme alone, for its
    lifetime: ``embed_basic`` by ``(i, w)``, the ``local_samples`` list by
    ``"samples"``, the invertibility support of a sample by
    ``(j, f, value)``, the realization of an open U by ``("realized", U)``,
    and, on the spectrum of a test algebra, ``compare.point_morphism``'s
    collapse maps by ``(Bt, piece)``.
    """

    __slots__ = ("data", "_memo")

    def __init__(self, data: GluingData):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LatticeScheme is immutable")

    @property
    def charts(self) -> Tuple[PresentedAlgebra, ...]:
        return self.data.charts

    @property
    def ncharts(self) -> int:
        return len(self.data.charts)

    def __repr__(self):
        return f"LatticeScheme({self.ncharts} charts, {len(self.data.patches)//2} patches)"


def mk_affine(A: PresentedAlgebra) -> LatticeScheme:
    return LatticeScheme(GluingData([A], []))


# -- compact opens ---------------------------------------------------------------


class CompactOpen:
    """A compact open of a scheme: one lattice element per chart.

    The components must agree across patches (``open_compatibility_witness``
    finds none that disagree); the constructors used by the library produce
    compatible data.
    """

    __slots__ = ("owner", "components", "_hash")

    def __init__(self, owner: LatticeScheme, components: Sequence[ZarElement]):
        components = tuple(components)
        if len(components) != owner.ncharts:
            raise ValueError("need one lattice component per chart")
        for w, A in zip(components, owner.charts):
            if w.owner != A:
                raise ValueError("component over the wrong chart algebra")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CompactOpen is immutable")

    def __eq__(self, other):
        if not isinstance(other, CompactOpen):
            return NotImplemented
        return self.owner is other.owner and self.components == other.components

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.owner), self.components))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return "[" + "; ".join(str(w) for w in self.components) + "]"

    def __repr__(self):
        return f"<open {self}>"

    def _same_owner(self, other: "CompactOpen"):
        if self.owner is not other.owner:
            raise ValueError("compact opens of different schemes")

    def join(self, other: "CompactOpen") -> "CompactOpen":
        self._same_owner(other)
        return CompactOpen(
            self.owner,
            [join(a, b) for a, b in zip(self.components, other.components)],
        )

    def meet(self, other: "CompactOpen") -> "CompactOpen":
        self._same_owner(other)
        return CompactOpen(
            self.owner,
            [meet(a, b) for a, b in zip(self.components, other.components)],
        )

    def leq(self, other: "CompactOpen") -> bool:
        self._same_owner(other)
        return all(leq(a, b) for a, b in zip(self.components, other.components))

    def eq(self, other: "CompactOpen") -> bool:
        return self.leq(other) and other.leq(self)


def top_open(X: LatticeScheme) -> CompactOpen:
    return CompactOpen(X, [top(A) for A in X.charts])


def bottom_open(X: LatticeScheme) -> CompactOpen:
    return CompactOpen(X, [bottom(A) for A in X.charts])


def embed_basic(X: LatticeScheme, i: int, w: ZarElement) -> CompactOpen:
    """The compact open generated by an open of one chart: transported
    copies fill in the other charts' components.

    Remembered on X by ``(i, w)``: point morphisms into X ask for the same
    few opens at every point, and each costs a ``transport_piece`` per
    patch and generator.
    """
    if w.owner != X.charts[i]:
        raise ValueError("open does not live on the named chart")
    hit = X._memo.get((i, w))
    if hit is not None:
        return hit
    comps: List[ZarElement] = []
    for j, Aj in enumerate(X.charts):
        if j == i:
            comps.append(basic_open(Aj, list(w.generators)))
            continue
        gens: List[AlgebraElement] = []
        for p in X.data.patches_for(i, j):
            for h in w.generators:
                gens.append(transport_piece(p, h))
        comps.append(basic_open(Aj, gens))
    out = CompactOpen(X, comps)
    X._memo[(i, w)] = out
    return out


def open_compatibility_witness(u: CompactOpen) -> Optional[str]:
    """None if the components agree across all patches, else a witness."""
    X = u.owner
    for p in X.data.patches:
        wi, wj = u.components[p.i], u.components[p.j]
        transported = basic_open(
            X.charts[p.j], [transport_piece(p, h) for h in wi.generators]
        )
        expected = meet(wj, basic_open(X.charts[p.j], [p.g]))
        if not eq(transported, expected):
            return (
                f"component mismatch across {p!r}: transport gives "
                f"{transported}, chart {p.j} holds {expected}"
            )
    return None


# -- global sections --------------------------------------------------------------


class GlobalSection:
    """A compatible family of localized elements over a compact open.

    ``values[i][k]`` lives in the localization of chart i at the k-th
    generator of ``domain.components[i]``.
    """

    __slots__ = ("scheme", "domain", "values", "_hash")

    def __init__(
        self,
        scheme: LatticeScheme,
        domain: CompactOpen,
        values: Sequence[Sequence[AlgebraElement]],
    ):
        values = tuple(tuple(row) for row in values)
        if len(values) != scheme.ncharts:
            raise ValueError("need one value row per chart")
        for i, (row, w) in enumerate(zip(values, domain.components)):
            if len(row) != len(w.generators):
                raise ValueError(
                    f"chart {i}: need one value per generator of {w}"
                )
            for v, g in zip(row, w.generators):
                loc = make_localization(scheme.charts[i], g)
                if v.algebra != loc.algebra:
                    raise ValueError(
                        f"chart {i}: value {v} does not live in the "
                        f"localization at {g}"
                    )
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GlobalSection is immutable")

    def piece(self, i: int, k: int) -> BasicOpenSection:
        g = self.domain.components[i].generators[k]
        loc = make_localization(self.scheme.charts[i], g)
        return BasicOpenSection(loc, self.values[i][k])

    def pieces(self) -> List[Tuple[int, AlgebraElement, BasicOpenSection]]:
        out = []
        for i, w in enumerate(self.domain.components):
            for k, g in enumerate(w.generators):
                out.append((i, g, self.piece(i, k)))
        return out

    def __eq__(self, other):
        if not isinstance(other, GlobalSection):
            return NotImplemented
        return (
            self.scheme is other.scheme
            and self.domain == other.domain
            and self.values == other.values
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.scheme), self.domain, self.values))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(v) for v in row) for row in self.values
        )
        return f"<section [{rows}] over {self.domain}>"


def section_compatibility_witness(s: GlobalSection) -> Optional[str]:
    """None if the family is a section: compatible within and across charts."""
    X = s.scheme
    for i, w in enumerate(s.domain.components):
        gens = w.generators
        for k in range(len(gens)):
            for l in range(k + 1, len(gens)):
                a = restrict(s.piece(i, k), gens[k] * gens[l])
                b = restrict(s.piece(i, l), gens[k] * gens[l])
                if not section_equal(a, b):
                    return (
                        f"chart {i}: values over D({gens[k]}) and "
                        f"D({gens[l]}) disagree on the overlap: "
                        f"{a.value} vs {b.value}"
                    )
    for p in X.data.patches:
        if p.i > p.j:
            continue
        Ai, Aj = X.charts[p.i], X.charts[p.j]
        for k, gk in enumerate(s.domain.components[p.i].generators):
            for l, gl in enumerate(s.domain.components[p.j].generators):
                r = extract_fraction(p.loc_f, p.bwd(p.loc_g.to_loc(gl)))[0]
                m = gk * p.f * r
                loc_m = make_localization(Ai, m)
                if loc_m.algebra.is_trivial():
                    continue
                a_side = restrict(s.piece(p.i, k), m)
                carry = p.chart_bwd.then(restriction_map(p.loc_f, loc_m))
                loc_gl = make_localization(Aj, gl)
                carry_loc = extend_over(loc_gl, carry)
                b_side = BasicOpenSection(loc_m, carry_loc(s.values[p.j][l]))
                if not section_equal(a_side, b_side):
                    return (
                        f"charts {p.i}/{p.j}: values over D({gk}) and "
                        f"D({gl}) disagree across the patch at D({m}): "
                        f"{a_side.value} vs {b_side.value}"
                    )
    return None


class SectionRing:
    """The ring of sections over a compact open, as a computable carrier:
    pointwise operations, decidable equality, and a membership check."""

    __slots__ = ("scheme", "domain")

    def __init__(self, scheme: LatticeScheme, domain: CompactOpen):
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SectionRing is immutable")

    def _locs(self, i: int) -> List[Localization]:
        return [
            make_localization(self.scheme.charts[i], g)
            for g in self.domain.components[i].generators
        ]

    def _const(self, c: int) -> GlobalSection:
        values = [
            [loc.algebra.element(c) for loc in self._locs(i)]
            for i in range(self.scheme.ncharts)
        ]
        return GlobalSection(self.scheme, self.domain, values)

    @property
    def zero(self) -> GlobalSection:
        return self._const(0)

    @property
    def one(self) -> GlobalSection:
        return self._const(1)

    def section(self, values: Sequence[Sequence[AlgebraElement]]) -> GlobalSection:
        s = GlobalSection(self.scheme, self.domain, values)
        witness = section_compatibility_witness(s)
        if witness is not None:
            raise ValueError(f"not a section: {witness}")
        return s

    def _zip(self, s: GlobalSection, t: GlobalSection, op) -> GlobalSection:
        if s.domain != self.domain or t.domain != self.domain:
            raise ValueError("sections over a different compact open")
        values = [
            [op(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(s.values, t.values)
        ]
        return GlobalSection(self.scheme, self.domain, values)

    def add(self, s: GlobalSection, t: GlobalSection) -> GlobalSection:
        return self._zip(s, t, lambda a, b: a + b)

    def sub(self, s: GlobalSection, t: GlobalSection) -> GlobalSection:
        return self._zip(s, t, lambda a, b: a - b)

    def mul(self, s: GlobalSection, t: GlobalSection) -> GlobalSection:
        return self._zip(s, t, lambda a, b: a * b)

    def neg(self, s: GlobalSection) -> GlobalSection:
        return self._zip(s, s, lambda a, b: -a)

    def eq(self, s: GlobalSection, t: GlobalSection) -> bool:
        if s.domain != self.domain or t.domain != self.domain:
            raise ValueError("sections over a different compact open")
        return s.values == t.values

    # -- the affine dictionary ------------------------------------------------
    def embed_chart_element(self, i: int, a: AlgebraElement) -> GlobalSection:
        """The section a/1 of a single-chart scheme over its top."""
        if self.scheme.ncharts != 1 or i != 0:
            raise ValueError("embedding applies to single-chart schemes")
        values = [[loc.to_loc(a) for loc in self._locs(0)]]
        return GlobalSection(self.scheme, self.domain, values)

    def extract_chart_element(self, s: GlobalSection, i: int) -> AlgebraElement:
        """Reassemble a chart element from a section whose chart-i component
        covers the chart (glue of the pieces)."""
        A = self.scheme.charts[i]
        gens = self.domain.components[i].generators
        cover = CoverData(A, gens)
        fam = SectionFamily(
            cover, [s.piece(i, k) for k in range(len(gens))]
        )
        return glue(fam)


def global_sections(X: LatticeScheme) -> SectionRing:
    return SectionRing(X, top_open(X))


def restrict_global(
    X: LatticeScheme, s: GlobalSection, v: CompactOpen
) -> GlobalSection:
    """Restrict a section to a smaller compact open, regluing per piece."""
    if not v.leq(s.domain):
        raise ValueError("target open is not below the section's domain")
    values: List[List[AlgebraElement]] = []
    for i in range(X.ncharts):
        A = X.charts[i]
        row: List[AlgebraElement] = []
        src_gens = s.domain.components[i].generators
        for w_new in v.components[i].generators:
            loc_new = make_localization(A, w_new)
            pieces = [loc_new.to_loc(g) for g in src_gens]
            cover = CoverData(loc_new.algebra, pieces)
            local_secs = []
            for k, g in enumerate(src_gens):
                loc_piece = make_localization(loc_new.algebra, pieces[k])
                carry = extend_over(
                    make_localization(A, g), loc_new.to_loc.then(loc_piece.to_loc)
                )
                local_secs.append(
                    BasicOpenSection(loc_piece, carry(s.values[i][k]))
                )
            fam = SectionFamily(cover, local_secs)
            row.append(glue(fam))
        values.append(row)
    return GlobalSection(X, v, values)


# -- invertibility support and the affine-hull data --------------------------------


def invertibility_support_scheme(
    X: LatticeScheme, u: CompactOpen, s: GlobalSection
) -> CompactOpen:
    """The largest compact open below u where the section is invertible:
    chartwise, the join of the basic invertibility supports of the pieces."""
    if s.domain != u:
        raise ValueError("section does not live over the given open")
    comps = []
    for i in range(X.ncharts):
        A = X.charts[i]
        gens = u.components[i].generators
        pieces = [
            invertibility_support_basic(s.piece(i, k))
            for k in range(len(gens))
        ]
        comps.append(join_all(A, pieces))
    return CompactOpen(X, comps)


def affine_hull_map(
    X: LatticeScheme
) -> Tuple[Callable[[Sequence[GlobalSection]], CompactOpen], Callable[[GlobalSection], GlobalSection]]:
    """The canonical comparison data from X to the spectrum of its sections:
    the lattice-side map takes a generator list of global sections to the
    join of their invertibility supports; the section-side map is the
    identity on the restriction family."""
    t = top_open(X)

    def lattice_side(sections: Sequence[GlobalSection]) -> CompactOpen:
        out = bottom_open(X)
        for s in sections:
            out = out.join(invertibility_support_scheme(X, t, s))
        return out

    def section_side(s: GlobalSection) -> GlobalSection:
        return s

    return lattice_side, section_side


# -- morphisms --------------------------------------------------------------------


class SchemeMorphism:
    """A morphism of schemes, stored as its action data.

    ``chart_open(j, w)`` gives the source compact open pulled back from the
    basic open ``w`` of target chart j; ``chart_comorphisms[j]`` lists
    pieces ``(i, f, phi)``: the preimage of target chart j meets source
    chart i in D(f), where sections pull back along ``phi : B_j ->
    (A_i)_f``.  The comorphisms are data, built once by the constructor's
    caller.  The constructor does not validate; the checkers do.

    ``pullback`` and ``pull_basic`` are memoized per morphism in ``_memo``
    (the data is immutable and ``chart_open`` is pure), so a morphism
    validated and then compared pulls each open and each section back
    once.  What does not depend on the morphism is remembered elsewhere:
    opens of the target on the target scheme (``embed_basic``), inverses on
    the algebras (``try_invert``).
    """

    __slots__ = ("source", "target", "chart_open", "chart_comorphisms", "_memo")

    def __init__(
        self,
        source: LatticeScheme,
        target: LatticeScheme,
        chart_open: Callable[[int, ZarElement], CompactOpen],
        chart_comorphisms: Sequence[Sequence[Tuple[int, AlgebraElement, AlgebraMorphism]]],
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "chart_open", chart_open)
        object.__setattr__(
            self, "chart_comorphisms", tuple(map(tuple, chart_comorphisms))
        )
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SchemeMorphism is immutable")

    def pullback(self, u: CompactOpen) -> CompactOpen:
        if u.owner is not self.target:
            raise ValueError("open does not live on the morphism's target")
        hit = self._memo.get(u)
        if hit is not None:
            return hit
        out = bottom_open(self.source)
        for j, w in enumerate(u.components):
            out = out.join(self.chart_open(j, w))
        self._memo[u] = out
        return out

    def pull_basic(
        self, j: int, f: AlgebraElement, value: AlgebraElement
    ) -> Tuple[Tuple[int, AlgebraElement, AlgebraElement], ...]:
        """Pull a section over D(f) of target chart j back to the source.

        Returns pieces (i, h, value in the localization of chart i at h).
        Where D(h) is the comorphism's own piece D(fp) (as for every section
        over D(1)), the value is carried by the comorphism alone.
        """
        key = (j, f, value)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        B = self.target.charts[j]
        loc_f = make_localization(B, f)
        if value.algebra != loc_f.algebra:
            raise ValueError("value does not live over D(f) of chart j")
        out = []
        for (i, fp, phi) in self.chart_comorphisms[j]:
            loc_fp = make_localization(self.source.charts[i], fp)
            img_f = phi(f)
            num = extract_fraction(loc_fp, img_f)[0]
            h = fp * num
            loc_h = make_localization(self.source.charts[i], h)
            step = phi if loc_h is loc_fp else phi.then(restriction_map(loc_fp, loc_h))
            lifted = extend_over(loc_f, step)
            out.append((i, h, lifted(value)))
        out = tuple(out)
        self._memo[key] = out
        return out


def identity_morphism(X: LatticeScheme) -> SchemeMorphism:
    def chart_open(j: int, w: ZarElement) -> CompactOpen:
        return embed_basic(X, j, w)

    comorphisms = [
        [(j, A.one, make_localization(A, A.one).to_loc)]
        + [(p.i, p.f, p.chart_bwd) for p in X.data.patches if p.j == j]
        for j, A in enumerate(X.charts)
    ]
    return SchemeMorphism(X, X, chart_open, comorphisms)


def spec_morphism(
    phi: AlgebraMorphism,
    source: Optional[LatticeScheme] = None,
    target: Optional[LatticeScheme] = None,
) -> SchemeMorphism:
    """The morphism Spec(B) -> Spec(A) induced by ``phi : A -> B``."""
    phi.check_valid()
    X = source if source is not None else mk_affine(phi.target)
    Y = target if target is not None else mk_affine(phi.source)
    if X.ncharts != 1 or X.charts[0] != phi.target:
        raise ValueError("source scheme does not match the morphism")
    if Y.ncharts != 1 or Y.charts[0] != phi.source:
        raise ValueError("target scheme does not match the morphism")

    def chart_open(j: int, w: ZarElement) -> CompactOpen:
        return CompactOpen(X, [induced_hom(phi, w)])

    one = phi.target.one
    loc_one = make_localization(phi.target, one)
    return SchemeMorphism(X, Y, chart_open, [[(0, one, phi.then(loc_one.to_loc))]])


def chart_variable_samples(
    Y: LatticeScheme, j: int
) -> List[Tuple[int, AlgebraElement, AlgebraElement]]:
    """The sections x/1 over D(1) of chart j of Y, one per variable x, as
    ``pull_basic`` arguments.  ``local_morphism_witness`` pulls them back,
    so later checks built from this list reuse a morphism's memo."""
    B = Y.charts[j]
    loc1 = make_localization(B, B.one)
    return [(j, B.one, loc1.to_loc(B.var(idx))) for idx in range(B.nvars)]


def local_samples(
    Y: LatticeScheme,
) -> Tuple[Tuple[int, AlgebraElement, AlgebraElement], ...]:
    """The samples of ``local_morphism_witness``: for each chart j of Y, the
    variable sections of ``chart_variable_samples`` and then the unit 1 over
    D(1).  Built once and remembered on Y."""
    samples = Y._memo.get("samples")
    if samples is None:
        samples = []
        for j, B in enumerate(Y.charts):
            samples.extend(chart_variable_samples(Y, j))
            samples.append((j, B.one, make_localization(B, B.one).algebra.one))
        samples = Y._memo["samples"] = tuple(samples)
    return samples


def _sample_support(
    Y: LatticeScheme, j: int, f: AlgebraElement, value: AlgebraElement
) -> ZarElement:
    """The invertibility support of a sample section over D(f) of chart j,
    remembered on Y by ``(j, f, value)``."""
    got = Y._memo.get((j, f, value))
    if got is None:
        sec = BasicOpenSection(make_localization(Y.charts[j], f), value)
        got = Y._memo[(j, f, value)] = invertibility_support_basic(sec)
    return got


def local_morphism_witness(pi: SchemeMorphism) -> Optional[str]:
    """Check that pulling back commutes with invertibility supports.

    The samples are ``local_samples(Y)`` of the target Y: (target chart j,
    basic piece f, section value in (B_j)_f), the chart tops with variable
    sections.  For every sample two compact opens of the source are
    compared: the pullback of the section's invertibility support, and the
    invertibility support of the pulled-back section.  The first never
    exceeds the second for honest morphism data (that inequality is asserted
    unconditionally); the checker reports equality.

    Only the pullbacks depend on ``pi``.  Each sample's own support is
    remembered on Y by ``(j, f, value)``, and ``pi``'s memo keeps what it
    pulls back for later comparisons.
    """
    X, Y = pi.source, pi.target
    for (j, f, value) in local_samples(Y):
        lhs = pi.chart_open(j, _sample_support(Y, j, f, value))
        comps: List[List[AlgebraElement]] = [[] for _ in range(X.ncharts)]
        for (i, h, v) in pi.pull_basic(j, f, value):
            loc_h = make_localization(X.charts[i], h)
            num = extract_fraction(loc_h, v)[0]
            comps[i].append(h * num)
        rhs = CompactOpen(
            X, [basic_open(X.charts[i], comps[i]) for i in range(X.ncharts)]
        )
        if not lhs.leq(rhs):
            return (
                f"one-sided bound failed on chart {j}, piece D({f}), "
                f"section {value}: pulled-back support {lhs} is not below "
                f"the support of the pulled-back section {rhs}"
            )
        if not rhs.leq(lhs):
            return (
                f"locality failed on chart {j}, piece D({f}), section "
                f"{value}: support of the pulled-back section {rhs} "
                f"exceeds the pulled-back support {lhs}"
            )
    return None


def verify_affine_certificate(
    X: LatticeScheme,
    A: PresentedAlgebra,
    to_affine: SchemeMorphism,
    from_affine: SchemeMorphism,
) -> bool:
    """Check that the two morphisms exhibit X as the spectrum of A.

    Lattice side: both composite pullbacks are the identity on chart basic
    opens.  Section side: pulling a variable a/1 of A through ``to_affine``
    and back through ``from_affine`` returns a/1, and chart variables of X
    survive the opposite roundtrip on their pieces.
    """
    SpA = to_affine.target
    if (
        SpA.ncharts != 1
        or SpA.charts[0] != A
        or from_affine.source is not SpA and from_affine.source.charts != (A,)
        or to_affine.source is not X
        or from_affine.target is not X
    ):
        return False
    SpA2 = from_affine.source
    # lattice roundtrip on the affine side
    for idx in range(A.nvars + 1):
        w = top(A) if idx == A.nvars else basic_open(A, [A.var(idx)])
        u_X = to_affine.chart_open(0, w)
        back = from_affine.pullback(u_X)
        if not eq(back.components[0], w):
            return False
    # lattice roundtrip on the X side
    for i, Ai in enumerate(X.charts):
        for idx in range(Ai.nvars + 1):
            w = top(Ai) if idx == Ai.nvars else basic_open(Ai, [Ai.var(idx)])
            u = embed_basic(X, i, w)
            down = from_affine.pullback(u)
            up = to_affine.pullback(down)
            if not up.eq(u):
                return False
    # section roundtrip on the affine side
    loc1 = make_localization(A, A.one)
    for (_, _, a) in chart_variable_samples(SpA, 0):
        over_X = to_affine.pull_basic(0, A.one, a)
        total: List[Tuple[int, AlgebraElement, AlgebraElement]] = []
        for (i, h, v) in over_X:
            back_pieces = from_affine.pull_basic(i, h, v)
            total.extend(back_pieces)
        for (_, h2, v2) in total:
            loc_h2 = make_localization(A, h2)
            expected = restriction_map(loc1, loc_h2)(a)
            if v2 != expected:
                return False
    return True


# -- qcqs lemma -------------------------------------------------------------------


def qcqs_lemma_check(X: LatticeScheme, u: CompactOpen, s: GlobalSection) -> bool:
    """Sections over the invertibility support of s are the localization of
    the sections over u at s: verified by solving, for each sampled section
    over the support, a representation t / s**n with t over u, and checking
    the roundtrips.
    """
    v = invertibility_support_scheme(X, u, s)
    # explicit piece bookkeeping: (chart, u-generator w, s-numerator, exponent)
    piece_data: List[List[Tuple[AlgebraElement, AlgebraElement, int]]] = []
    for i in range(X.ncharts):
        rows = []
        for k, w in enumerate(u.components[i].generators):
            r, k0 = extract_fraction(s.piece(i, k).loc, s.values[i][k])
            rows.append((w, r, k0))
        piece_data.append(rows)
    # the aligned domain keeps one generator per piece, uncanonicalized,
    # so value rows line up with the bookkeeping
    v_explicit = CompactOpen(
        X,
        [
            ZarElement(
                X.charts[i],
                tuple(X.charts[i].element(w * r) for (w, r, _) in piece_data[i]),
            )
            for i in range(X.ncharts)
        ],
    )
    if not v_explicit.eq(v):
        return False
    # samples over the support: the restriction of s, the unit, the inverse
    samples: List[GlobalSection] = []
    ring_v = SectionRing(X, v_explicit)
    s_on_v = _restrict_to_pieces(X, s, v_explicit, piece_data)
    samples.append(s_on_v)
    samples.append(ring_v.one)
    inverse_values = []
    for i in range(X.ncharts):
        row = []
        for k, (w, r, _) in enumerate(piece_data[i]):
            loc_h = make_localization(X.charts[i], w * r)
            inv = loc_h.algebra.try_invert(s_on_v.values[i][k])
            if inv is None:
                return False
            row.append(inv)
        inverse_values.append(row)
    samples.append(GlobalSection(X, v_explicit, inverse_values))
    for sigma in samples:
        solved = _solve_fraction_over(X, sigma, u, s, piece_data)
        if solved is None:
            return False
        tau, n = solved
        # roundtrip: tau / s**n restricts back to sigma
        tau_on_v = _restrict_to_pieces(X, tau, v_explicit, piece_data)
        lhs = tau_on_v
        rhs = sigma
        for _ in range(n):
            rhs = ring_v.mul(rhs, s_on_v)
        if not ring_v.eq(lhs, rhs):
            return False
    return True


def _restrict_to_pieces(
    X: LatticeScheme,
    s: GlobalSection,
    domain: CompactOpen,
    piece_data: List[List[Tuple[AlgebraElement, AlgebraElement, int]]],
) -> GlobalSection:
    """Restrict a section over u to the aligned support pieces D(w*r), which
    make up ``domain``."""
    values = []
    for i in range(X.ncharts):
        row = []
        for k, (w, r, _) in enumerate(piece_data[i]):
            row.append(restrict(s.piece(i, k), w * r).value)
        values.append(row)
    return GlobalSection(X, domain, values)


def _solve_fraction_over(
    X: LatticeScheme,
    sigma: GlobalSection,
    u: CompactOpen,
    s: GlobalSection,
    piece_data: List[List[Tuple[AlgebraElement, AlgebraElement, int]]],
) -> Optional[Tuple[GlobalSection, int]]:
    """Find (tau over u, n) with sigma = tau / s**n on the support pieces."""
    raw: List[List[Tuple[AlgebraElement, int]]] = []
    for i in range(X.ncharts):
        A = X.charts[i]
        rows = []
        for k, (w, r, k0) in enumerate(piece_data[i]):
            loc_w = make_localization(A, w)
            loc_h = make_localization(A, w * r)
            c, kk = extract_fraction(loc_h, sigma.values[i][k])
            tau_piece = loc_w.to_loc(c) * loc_w.inverse ** (kk * (1 + k0))
            rows.append((tau_piece, kk))
        raw.append(rows)
    top_n = max((kk for rows in raw for (_, kk) in rows), default=0)
    for n in range(top_n, POWER_CAP + 1):
        values = []
        for i in range(X.ncharts):
            row = []
            for k, (tau_piece, kk) in enumerate(raw[i]):
                row.append(tau_piece * s.values[i][k] ** (n - kk))
            values.append(row)
        candidate = GlobalSection(X, u, values)
        if section_compatibility_witness(candidate) is None:
            return candidate, n
    return None


# -- scheme surgery: restriction to a compact open ----------------------------------


def restrict_scheme(
    X: LatticeScheme, u: CompactOpen
) -> Tuple[LatticeScheme, SchemeMorphism]:
    """The scheme below a compact open, plus its inclusion morphism into X.

    Charts of the result: one localization per basic generator of each
    component of u.  Patches: collapses of X's patches, and the overlaps of
    sibling pieces within one original chart.
    """
    pieces: List[Tuple[int, AlgebraElement, Localization]] = []
    for i, w in enumerate(u.components):
        for g in w.generators:
            pieces.append((i, g, make_localization(X.charts[i], g)))
    charts = [loc.algebra for (_, _, loc) in pieces]
    patches: List[Patch] = []
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            ia, ga, loca = pieces[a]
            ib, gb, locb = pieces[b]
            if ia == ib:
                f_new = loca.to_loc(gb)
                g_new = locb.to_loc(ga)
                lf = make_localization(charts[a], f_new)
                lg = make_localization(charts[b], g_new)
                base_fwd = locb.to_loc.then(lg.to_loc)  # A_i -> (C_b)_{g_new}
                fwd_base = extend_over(loca, base_fwd)
                base_bwd = loca.to_loc.then(lf.to_loc)
                bwd_base = extend_over(locb, base_bwd)
                patches.append(
                    Patch(
                        a,
                        b,
                        lf,
                        lg,
                        extend_over(lf, fwd_base),
                        extend_over(lg, bwd_base),
                    )
                )
                continue
            for p in X.data.patches_for(ia, ib):
                r = extract_fraction(p.loc_f, p.bwd(p.loc_g.to_loc(gb)))[0]
                r2 = extract_fraction(p.loc_g, p.fwd(p.loc_f.to_loc(ga)))[0]
                f_new = loca.to_loc(p.f * r)
                g_new = locb.to_loc(p.g * r2)
                lf = make_localization(charts[a], f_new)
                lg = make_localization(charts[b], g_new)
                # A_ia -> (C_b)_{g_new} through the patch
                to_b_loc = locb.to_loc.then(lg.to_loc)  # A_ib -> target
                through = extend_over(p.loc_g, to_b_loc)  # (A_ib)_g -> target
                base_fwd = p.loc_f.to_loc.then(p.fwd).then(through)
                mid_fwd = extend_over(loca, base_fwd)
                to_a_loc = loca.to_loc.then(lf.to_loc)
                through_b = extend_over(p.loc_f, to_a_loc)
                base_bwd = p.chart_bwd.then(through_b)
                mid_bwd = extend_over(locb, base_bwd)
                patches.append(
                    Patch(
                        a,
                        b,
                        lf,
                        lg,
                        extend_over(lf, mid_fwd),
                        extend_over(lg, mid_bwd),
                    )
                )
    Xu = LatticeScheme(GluingData(charts, patches, validate=False))
    piece_index: Dict[int, List[int]] = {}
    for idx, (i, _, _) in enumerate(pieces):
        piece_index.setdefault(i, []).append(idx)

    def chart_open(j: int, w: ZarElement) -> CompactOpen:
        comps: List[ZarElement] = []
        for idx, (i, g, loc) in enumerate(pieces):
            if i == j:
                comps.append(
                    basic_open(charts[idx], [loc.to_loc(h) for h in w.generators])
                )
            else:
                gens = []
                for p in X.data.patches_for(j, i):
                    for h in w.generators:
                        gens.append(loc.to_loc(transport_piece(p, h)))
                comps.append(basic_open(charts[idx], gens))
        return CompactOpen(Xu, comps)

    comorphisms = []
    for j in range(X.ncharts):
        out = []
        for idx, (i, g, loc) in enumerate(pieces):
            if i == j:
                loc1 = make_localization(charts[idx], charts[idx].one)
                out.append((idx, charts[idx].one, loc.to_loc.then(loc1.to_loc)))
                continue
            for p in X.data.patches_for(j, i):
                piece_f = loc.to_loc(p.g)
                loc_pf = make_localization(charts[idx], piece_f)
                through = extend_over(p.loc_g, loc.to_loc.then(loc_pf.to_loc))
                out.append((idx, piece_f, p.loc_f.to_loc.then(p.fwd).then(through)))
        comorphisms.append(out)
    inclusion = SchemeMorphism(Xu, X, chart_open, comorphisms)
    return Xu, inclusion


def check_locally_affine(
    pi: SchemeMorphism,
    covers: Sequence[
        Tuple[CompactOpen, CompactOpen, LatticeScheme, PresentedAlgebra, SchemeMorphism, SchemeMorphism]
    ],
) -> bool:
    """Verify local affineness data for a morphism.

    Each entry is (w, u, Xu, A, to_affine, from_affine): w an open of the
    target, u its recorded pullback with the restricted source scheme Xu,
    and an affineness certificate for Xu.  Checks that the w's cover the
    target, that u matches the pullback of w, and that each certificate
    verifies.
    """
    total = bottom_open(pi.target)
    for (w, _, _, _, _, _) in covers:
        total = total.join(w)
    if not total.eq(top_open(pi.target)):
        raise ValueError("the supplied opens do not cover the target")
    for (w, u, Xu, A, to_aff, from_aff) in covers:
        if not u.eq(pi.pullback(w)):
            raise ValueError(f"recorded pullback of {w} does not match")
        if not verify_affine_certificate(Xu, A, to_aff, from_aff):
            return False
    return True


# -- fixture factories ---------------------------------------------------------------


def projective_line(field) -> LatticeScheme:
    """Two affine lines glued along their punctured parts, t <-> 1/s."""
    from .polynomials import PolyRing

    A0 = PresentedAlgebra(PolyRing(field, ["t"]))
    A1 = PresentedAlgebra(PolyRing(field, ["s"]))
    t, s = A0.var(0), A1.var(0)
    loc_t = make_localization(A0, t)
    loc_s = make_localization(A1, s)
    patch = make_patch(
        [A0, A1], 0, 1, t, s, [loc_s.inverse], [loc_t.inverse]
    )
    return LatticeScheme(GluingData([A0, A1], [patch]))


def punctured_plane(field) -> Tuple[LatticeScheme, CompactOpen, SchemeMorphism]:
    """The plane minus its origin, as the restriction of the affine plane
    to D(x, y); returns (scheme, the open, the inclusion into the plane)."""
    from .polynomials import PolyRing

    A = PresentedAlgebra(PolyRing(field, ["x", "y"]))
    plane = mk_affine(A)
    u = CompactOpen(plane, [basic_open(A, [A.var(0), A.var(1)])])
    Xu, inc = restrict_scheme(plane, u)
    return Xu, u, inc
