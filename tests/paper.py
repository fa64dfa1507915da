"""Verifiers of the paper's lemmas, kept beside the tests that state them.

The package decides the comparison between the two presentations; these
functions check statements the comparison rests on, on the fixtures of the
tests: the four laws of a support map, restriction of sections, the qcqs
lemma (sections over the invertibility support of s are the sections over
u localized at s), affineness certificates, local affineness, and the
functions and opens of a realized compact open.  Sections over a compact
open are added and multiplied value by value (``pointwise``).  No command
of the package calls them, so they live here and ``tools/uncalled.py``
traces them with the package.
"""

from operator import mul
from typing import List, Optional, Sequence, Tuple

from zariski.algebra import (
    POWER_CAP,
    AlgebraElement,
    PresentedAlgebra,
    extract_fraction,
    make_localization,
)
from zariski.funscheme import _realized
from zariski.lattice import ZarElement, basic_open, bottom, eq, join, leq, meet, top
from zariski.latscheme import (
    CompactOpen,
    GlobalSection,
    LatticeScheme,
    SchemeMorphism,
    bottom_open,
    chart_variable_samples,
    embed_basic,
    extend_over,
    invertibility_support_scheme,
    section_compatibility_witness,
    top_open,
)
from zariski.sheaf import (
    BasicOpenSection,
    CoverData,
    SectionFamily,
    glue,
    restrict,
    restriction_map,
)


# -- supports ------------------------------------------------------------------------


def support_law_witness(A: PresentedAlgebra, d, pairs) -> Optional[str]:
    """None if ``d``, a map from elements of A to basic opens of A, keeps the
    four laws of a support on the sample pairs, else a witness string:
    d(0) = bottom, d(1) = top, d(xy) = d(x) meet d(y), d(x+y) <= d(x) join d(y)."""
    if not eq(d(A.zero), bottom(A)):
        return "d(0) != bottom"
    if not eq(d(A.one), top(A)):
        return "d(1) != top"
    for x, y in pairs:
        if not eq(d(x * y), meet(d(x), d(y))):
            return f"d(({x})*({y})) != d({x}) meet d({y})"
        if not leq(d(x + y), join(d(x), d(y))):
            return f"d(({x})+({y})) not below d({x}) join d({y})"
    return None


# -- sections of a glued scheme ------------------------------------------------------


def constant_section(X: LatticeScheme, u: CompactOpen, c: int) -> GlobalSection:
    """The constant c as a section over u."""
    values = [
        [make_localization(A, g).algebra.element(c) for g in w.generators]
        for A, w in zip(X.charts, u.components)
    ]
    return GlobalSection(X, u, values)


def pointwise(op, s: GlobalSection, t: GlobalSection) -> GlobalSection:
    """The section over s's domain whose values are ``op`` of those of s and t."""
    if s.domain != t.domain:
        raise ValueError("sections over different compact opens")
    return GlobalSection(s.scheme, s.domain, [list(map(op, a, b)) for a, b in zip(s.values, t.values)])


def chart_section(X: LatticeScheme, a: AlgebraElement) -> GlobalSection:
    """The section a/1 over the top of a one-chart scheme."""
    t = top_open(X)
    (A,), (w,) = X.charts, t.components
    return GlobalSection(X, t, [[make_localization(A, g).to_loc(a) for g in w.generators]])


def chart_element(s: GlobalSection) -> AlgebraElement:
    """The chart element a section of a one-chart scheme glues to, when its
    domain covers the chart."""
    gens = s.domain.components[0].generators
    cover = CoverData(s.scheme.charts[0], gens)
    return glue(SectionFamily(cover, [s.piece(0, k) for k in range(len(gens))]))


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


# -- affineness ------------------------------------------------------------------------


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
    s_on_v = _restrict_to_pieces(X, s, v_explicit, piece_data)
    samples.append(s_on_v)
    samples.append(constant_section(X, v_explicit, 1))
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
            rhs = pointwise(mul, rhs, s_on_v)
        if lhs.values != rhs.values:
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


# -- the functor side -----------------------------------------------------------------


def ring_of_functions(X: LatticeScheme):
    """The functions on X: the chart algebra itself when X is affine, else
    the top compact open, whose sections they are."""
    if X.ncharts == 1 and not X.patches:
        return X.charts[0]
    return top_open(X)


def open_from_realization(U: CompactOpen, W: CompactOpen) -> CompactOpen:
    """Carry a compact open of the realization back into U's scheme X
    (below U)."""
    X = U.owner
    if W.owner is not _realized(U)[0]:
        raise ValueError("open does not live on the realization")
    pieces: List[Tuple[int, AlgebraElement]] = []
    for i, w in enumerate(U.components):
        for g in w.generators:
            pieces.append((i, g))
    comps: List[List[AlgebraElement]] = [[] for _ in range(X.ncharts)]
    for idx, (i, g) in enumerate(pieces):
        loc = make_localization(X.charts[i], g)
        for h in W.components[idx].generators:
            num, _ = extract_fraction(loc, h)
            comps[i].append(g * num)
    return CompactOpen(
        X,
        [basic_open(X.charts[i], comps[i]) for i in range(X.ncharts)],
    )
