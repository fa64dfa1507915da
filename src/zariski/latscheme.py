"""Schemes as finite affine gluing data over a lattice of compact opens.

A scheme (``LatticeScheme``) is a list of chart algebras plus principal
patches: for charts i and j, a patch records basic opens D(f) and D(g) on
the two sides and a mutually inverse pair of algebra isomorphisms between
the localizations; a chart meets itself in the identity patch on D(1).
Construction validates each given patch isomorphism, agreement of multiple
patches over one chart pair, and the triple-overlap (cocycle) condition,
each by explicit normal-form comparisons inside a common localization.

On top of the validated data live compact opens (one lattice element per
chart, compatible across patches), global sections (families of localized
elements with a witness of any incompatibility), the scheme-level
invertibility support, morphisms with their pullback/pushforward data, and
the checker for the local-morphism condition.  The verifiers of the paper's
lemmas on these objects (restriction of sections, the qcqs lemma,
affineness certificates) are test oracles in ``tests/paper.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
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
    join,
    join_all,
    leq,
    meet,
    top,
)
from .sheaf import (
    BasicOpenSection,
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
    (A_j)_g; validation happens in LatticeScheme, not here.
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


class LatticeScheme:
    """A scheme presented by validated chart-and-patch data.

    Construction stores each given patch with its mirror and, unless
    ``validate`` is false, checks every given patch once, the agreement of
    patches over one chart pair and the cocycle condition on every triple of
    charts; a failure raises ``GluingError`` with its witness.  A chart meets
    itself in the identity patch on D(1), which ``patches_for`` builds on
    each call and which is never stored or validated.

    The same object is the scheme's functor of points (``funscheme``), and
    the points, opens and morphisms of the scheme name it.
    ``_memo`` remembers values that depend on the scheme alone, for its
    lifetime, and this module reads none of them: the realization of an
    open U with its inclusion, ``restrict_scheme(X, U)``, by
    ``("realized", U)`` (``funscheme._realized``, so the points of one
    realization compare equal) and the comparison's sample plan by
    ``"plan"`` (``compare._sample_plan``).
    """

    __slots__ = ("charts", "patches", "_by_pair", "_memo")

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
        object.__setattr__(self, "_memo", {})
        if validate:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LatticeScheme is immutable")

    @property
    def ncharts(self) -> int:
        return len(self.charts)

    def __repr__(self):
        return f"LatticeScheme({self.ncharts} charts, {len(self.patches)//2} patches)"

    def patches_for(self, i: int, j: int) -> List[Patch]:
        """The patches from chart i to chart j; for j == i, the identity patch."""
        if i == j:
            loc = make_localization(self.charts[i], self.charts[i].one)
            ident = AlgebraMorphism.identity(loc.algebra)
            return [Patch(i, i, loc, loc, ident, ident)]
        return self._by_pair.get((i, j), [])

    def overlap(self, i: int, j: int) -> ZarElement:
        """The overlap with chart j, as an open of chart i."""
        return basic_open(self.charts[i], [p.f for p in self.patches_for(i, j)])

    # -- validation -------------------------------------------------------
    def _validate(self):
        """Check the given patches, their agreement per chart pair and the
        cocycle condition S(i,j,k): where phi_jk(phi_ij(x)) is defined, x
        lies in U_ik and phi_ik(x) is that value.  S is checked for i < k
        only, as S(i,j,k) implies S(k,j,i).  Take z in U_kj with y = phi_kj(z)
        in U_ji, and put x = phi_ji(y).  The patch maps are mutual inverses
        (``_check_patch_iso`` runs first), so phi_ij(x) = y lies in U_jk, and
        S(i,j,k) gives x in U_ik with phi_ik(x) = phi_jk(y) = z: z lies in
        U_ki and phi_ki(z) = x = phi_ji(phi_kj(z)).  This holds on T-valued
        points, so for non-reduced charts too.  A failing S(k,j,i) comes after
        its failing twin in the order of (i, j, k), so the first witness is
        the one all six orderings would give.
        """
        for p in self.patches[::2]:  # a mirror repeats its patch's checks
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
                for k in range(i + 1, n):
                    if j == i or j == k:
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
        s = transport_piece(P, Q.f) * transport_piece(Q, P.f)
        loc_s = make_localization(self.charts[P.j], s)
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
        n = transport_piece(Q, transport_piece(P, r))
        via_region = basic_open(Ak, [n])
        direct = self.patches_for(P.i, Q.j)
        u_ki = basic_open(Ak, [R.g for R in direct])
        if not leq(via_region, u_ki):
            raise GluingError(
                f"cocycle violation: the composite image of charts "
                f"({P.i},{P.j},{Q.j}) reaches D({n}), outside the "
                f"recorded overlap with chart {P.i}"
            )
        psi2 = Q.loc_f.to_loc.then(Q.fwd)  # A_j -> (A_k)_{g_Q}
        for R in direct:
            s = n * R.g
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


def mk_affine(A: PresentedAlgebra) -> LatticeScheme:
    return LatticeScheme([A])


# -- compact opens ---------------------------------------------------------------


class CompactOpen:
    """A compact open of a scheme: one lattice element per chart.

    The components must agree across patches: for a patch from chart i to
    chart j, chart j's component met with D(g) is the transport of chart
    i's.  The constructor does not check this; ``top_open``,
    ``embed_basic`` and the lattice operations produce compatible data.
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
    copies fill in every chart's component, one ``transport_piece`` per
    patch and generator, chart i's own through its identity patch.  Nothing
    is remembered: the comparison keeps the embedded sample supports in its
    plan (``compare._sample_plan``).
    """
    if w.owner != X.charts[i]:
        raise ValueError("open does not live on the named chart")
    comps: List[ZarElement] = []
    for j, Aj in enumerate(X.charts):
        gens: List[AlgebraElement] = []
        for p in X.patches_for(i, j):
            for h in w.generators:
                gens.append(transport_piece(p, h))
        comps.append(basic_open(Aj, gens))
    return CompactOpen(X, comps)


# -- global sections --------------------------------------------------------------


class GlobalSection:
    """A compatible family of localized elements over a compact open.

    ``values[i][k]`` lives in the localization of chart i at the k-th
    generator of ``domain.components[i]``.
    """

    __slots__ = ("scheme", "domain", "values")

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

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GlobalSection is immutable")

    def piece(self, i: int, k: int) -> BasicOpenSection:
        g = self.domain.components[i].generators[k]
        loc = make_localization(self.scheme.charts[i], g)
        return BasicOpenSection(loc, self.values[i][k])

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
    for p in X.patches:
        if p.i > p.j:
            continue
        back = p.mirror()
        for k, gk in enumerate(s.domain.components[p.i].generators):
            for l, gl in enumerate(s.domain.components[p.j].generators):
                m = gk * transport_piece(back, gl)
                loc_m = make_localization(X.charts[p.i], m)
                if loc_m.algebra.is_trivial():
                    continue
                a_side = restrict(s.piece(p.i, k), m)
                carry = p.chart_bwd.then(restriction_map(p.loc_f, loc_m))
                loc_gl = make_localization(X.charts[p.j], gl)
                carry_loc = extend_over(loc_gl, carry)
                b_side = BasicOpenSection(loc_m, carry_loc(s.values[p.j][l]))
                if not section_equal(a_side, b_side):
                    return (
                        f"charts {p.i}/{p.j}: values over D({gk}) and "
                        f"D({gl}) disagree across the patch at D({m}): "
                        f"{a_side.value} vs {b_side.value}"
                    )
    return None


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


def affine_hull_map(X: LatticeScheme) -> Callable[[Sequence[GlobalSection]], CompactOpen]:
    """The lattice side of the canonical comparison from X to the spectrum
    of its sections: a generator list of global sections goes to the join
    of their invertibility supports (the section side is the identity)."""
    t = top_open(X)

    def lattice_side(sections: Sequence[GlobalSection]) -> CompactOpen:
        out = bottom_open(X)
        for s in sections:
            out = out.join(invertibility_support_scheme(X, t, s))
        return out

    return lattice_side


# -- morphisms --------------------------------------------------------------------


class SchemeMorphism:
    """A morphism of schemes, stored as its action data.

    ``chart_open(j, w)`` gives the source compact open pulled back from the
    basic open ``w`` of target chart j; ``chart_comorphisms[j]`` lists
    pieces ``(i, f, phi)``: the preimage of target chart j meets source
    chart i in D(f), where sections pull back along ``phi : B_j ->
    (A_i)_f``.  The comorphisms are data, built once by the constructor's
    caller.  The constructor does not validate; the checkers do.

    A morphism remembers nothing: ``pullback`` and ``pull_basic`` compute
    on every call.  A comparison reads its points' tables and builds a
    morphism only for the witness of a point it refutes.
    """

    __slots__ = ("source", "target", "chart_open", "chart_comorphisms")

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

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SchemeMorphism is immutable")

    def pullback(self, u: CompactOpen) -> CompactOpen:
        if u.owner is not self.target:
            raise ValueError("open does not live on the morphism's target")
        out = bottom_open(self.source)
        for j, w in enumerate(u.components):
            out = out.join(self.chart_open(j, w))
        return out

    def pull_basic(
        self, j: int, f: AlgebraElement, value: AlgebraElement
    ) -> Tuple[Tuple[int, AlgebraElement, AlgebraElement], ...]:
        """Pull a section over D(f) of target chart j back to the source.

        Returns pieces (i, h, value in the localization of chart i at h).
        Where D(h) is the comorphism's own piece D(fp) (as for every section
        over D(1)), the value is carried by the comorphism alone.
        """
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
        return tuple(out)


def chart_variable_samples(
    Y: LatticeScheme, j: int
) -> List[Tuple[int, AlgebraElement, AlgebraElement]]:
    """The sections x/1 over D(1) of chart j of Y, one per variable x, as
    ``pull_basic`` arguments, built afresh on every call."""
    B = Y.charts[j]
    loc1 = make_localization(B, B.one)
    return [(j, B.one, loc1.to_loc(B.var(idx))) for idx in range(B.nvars)]


def local_samples(
    Y: LatticeScheme,
) -> Tuple[Tuple[int, AlgebraElement, AlgebraElement], ...]:
    """The samples of ``local_morphism_witness``: for each chart j of Y, the
    variable sections of ``chart_variable_samples`` and then the unit 1 over
    D(1).  Built afresh on every call; the comparison remembers them, with
    their supports, in its plan (``compare._sample_plan``)."""
    samples = []
    for j, B in enumerate(Y.charts):
        samples.extend(chart_variable_samples(Y, j))
        samples.append((j, B.one, make_localization(B, B.one).algebra.one))
    return tuple(samples)


def local_morphism_witness(pi: SchemeMorphism) -> Optional[str]:
    """Check that pulling back commutes with invertibility supports.

    The samples are ``local_samples(Y)`` of the target Y: (target chart j,
    basic piece f, section value in (B_j)_f), the chart tops with variable
    sections.  For every sample two compact opens of the source are
    compared: the pullback of the section's invertibility support, and the
    invertibility support of the pulled-back section.  The first never
    exceeds the second for honest morphism data (that inequality is asserted
    unconditionally); the checker reports equality.  Nothing is remembered:
    a comparison calls this only for the witness of a refuted point.
    """
    X, Y = pi.source, pi.target
    for (j, f, value) in local_samples(Y):
        sec = BasicOpenSection(make_localization(Y.charts[j], f), value)
        lhs = pi.chart_open(j, invertibility_support_basic(sec))
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


# -- scheme surgery: restriction to a compact open ----------------------------------


def restrict_scheme(
    X: LatticeScheme, u: CompactOpen
) -> Tuple[LatticeScheme, SchemeMorphism]:
    """The scheme below a compact open, plus its inclusion morphism into X.

    Charts of the result: one localization per basic generator of each
    component of u.  Patches: collapses of X's patches onto each pair of
    pieces; two pieces of one chart collapse its identity patch.
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
            for p in X.patches_for(ia, ib):
                f_new = loca.to_loc(transport_piece(p.mirror(), gb))
                g_new = locb.to_loc(transport_piece(p, ga))
                lf = make_localization(charts[a], f_new)
                lg = make_localization(charts[b], g_new)
                # A_ia -> (C_b)_{g_new} and A_ib -> (C_a)_{f_new} through the patch
                to_b = extend_over(p.loc_g, locb.to_loc.then(lg.to_loc))
                to_a = extend_over(p.loc_f, loca.to_loc.then(lf.to_loc))
                fwd = extend_over(loca, p.loc_f.to_loc.then(p.fwd).then(to_b))
                bwd = extend_over(locb, p.chart_bwd.then(to_a))
                patches.append(make_patch(charts, a, b, f_new, g_new, fwd.images, bwd.images))
    Xu = LatticeScheme(charts, patches, validate=False)

    def chart_open(j: int, w: ZarElement) -> CompactOpen:
        spread = embed_basic(X, j, w).components
        return CompactOpen(Xu, [
            basic_open(charts[idx], [loc.to_loc(h) for h in spread[i].generators])
            for idx, (i, _, loc) in enumerate(pieces)
        ])

    comorphisms = []
    for j in range(X.ncharts):
        out = []
        for idx, (i, _, loc) in enumerate(pieces):
            for p in X.patches_for(j, i):
                piece_f = loc.to_loc(p.g)
                loc_pf = make_localization(charts[idx], piece_f)
                through = extend_over(p.loc_g, loc.to_loc.then(loc_pf.to_loc))
                out.append((idx, piece_f, p.loc_f.to_loc.then(p.fwd).then(through)))
        comorphisms.append(out)
    inclusion = SchemeMorphism(Xu, X, chart_open, comorphisms)
    return Xu, inclusion


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
    return LatticeScheme([A0, A1], [patch])


def punctured_plane(field) -> Tuple[LatticeScheme, CompactOpen, SchemeMorphism]:
    """The plane minus its origin, as the restriction of the affine plane
    to D(x, y); returns (scheme, the open, the inclusion into the plane)."""
    from .polynomials import PolyRing

    A = PresentedAlgebra(PolyRing(field, ["x", "y"]))
    plane = mk_affine(A)
    u = CompactOpen(plane, [basic_open(A, [A.var(0), A.var(1)])])
    Xu, inc = restrict_scheme(plane, u)
    return Xu, u, inc
