"""The two scheme presentations compared extensionally.

One side presents a scheme by chart-and-patch data with its lattice of
compact opens and section rings; the other evaluates a functor of points
on finite test algebras.  This module carries points to genuine validated
scheme morphisms and back (an adjunction checked by roundtrips), realizes
compact opens of the functor side as schemes, and packages the whole
comparison as one decision procedure over a list of finite test algebras:
point sets biject with hom sets, the correspondence is natural in the test
algebra, and the realization reproduces the chart data by an explicit
certificate.  Distinct points carry distinct morphisms, decided by one
fingerprint per point: a finite test algebra is the product of its local
factors, one per atom, so a local morphism out of its spectrum is fixed by
the value of each pulled-back section in each factor; those values also
decide which atoms each pulled-back open contains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    PresentedAlgebra,
    extract_fraction,
    make_localization,
    try_extend,
)
from .lattice import ZarElement, basic_open, eq, induced_hom, top
from .latscheme import (
    CompactOpen,
    GlobalSection,
    LatticeScheme,
    SchemeMorphism,
    embed_basic,
    invertibility_support_scheme,
    local_morphism_witness,
    local_samples,
    mk_affine,
    top_open,
)
from .funscheme import (
    FunctorialScheme,
    SchemePoint,
    _reduce_factor,
    atomic_factors,
    eval_points,
    functorial,
    is_reduced,
    map_point,
    open_at_point,
    open_from_realization,
    realization,
    ring_of_functions,
)


# (target chart j, basic piece f, section over D(f)): a ``pull_basic`` argument
_Sample = Tuple[int, AlgebraElement, AlgebraElement]


def _affine_of(B: PresentedAlgebra) -> LatticeScheme:
    got = B._memo.get("spec")
    if got is None:
        got = mk_affine(B)
        B._memo["spec"] = got
    return got


# -- points as morphisms (the comparison functor) -----------------------------------


def _collapse(
    S: LatticeScheme, Bt: PresentedAlgebra, piece: AlgebraElement
) -> AlgebraMorphism:
    """The map B/(1-e) -> B_piece of S = Spec(B), for a piece below the
    idempotent e (1-e dies in B_piece); remembered on S by (Bt, piece)."""
    got = S._memo.get((Bt, piece))
    if got is None:
        B = S.charts[0]
        loc_piece = make_localization(B, piece)
        got = AlgebraMorphism(
            Bt, loc_piece.algebra, [loc_piece.to_loc(B.var(i)) for i in range(B.nvars)]
        )
        S._memo[(Bt, piece)] = got
    return got


def point_morphism(X: LatticeScheme, p: SchemePoint) -> SchemeMorphism:
    """The scheme morphism Spec(B) -> X carried by a point of X(B).

    It is built, not checked: ``local_morphism_witness`` checks that it is
    local.  Only the evaluation at the point is done per point, and the
    comorphism pieces are built here once: the opens of X come from
    ``embed_basic`` (remembered on X), the patch maps from
    ``Patch.chart_bwd`` (kept on the patch) and the collapse maps
    ``B/(1-e) -> B_piece`` are remembered on Spec(B).
    """
    fun = p.scheme
    if fun.lat is not X:
        raise ValueError("point does not belong to the given chart presentation")
    B = p.test_algebra
    S = _affine_of(B)

    def chart_open(j: int, w: ZarElement) -> CompactOpen:
        return CompactOpen(S, [open_at_point(embed_basic(X, j, w), p)])

    comorphisms = [[] for _ in X.charts]
    for (e, c, phi) in p.factors:
        Bt = phi.target
        for j, out in enumerate(comorphisms):
            if c == j:
                out.append((0, e, phi.then(_collapse(S, Bt, e))))
                continue
            for Q in X.data.patches_for(c, j):
                piece = B.element(phi(Q.f).poly) * e
                # (A_c)_f -> B_piece
                psi = try_extend(Q.loc_f, phi.then(_collapse(S, Bt, piece)))
                if psi is not None:
                    out.append((0, piece, Q.chart_bwd.then(psi)))
    return SchemeMorphism(S, X, chart_open, comorphisms)


def adjunction_flat(fun: FunctorialScheme, pi: SchemeMorphism) -> SchemePoint:
    """Morphism Spec(B) -> X to the point of X(B) it evaluates to."""
    X = fun.lat
    if pi.target is not X:
        raise ValueError("morphism does not land in the given scheme")
    if pi.source.ncharts != 1:
        raise ValueError("the morphism's source must be one affine chart")
    B = pi.source.charts[0]
    if B.is_trivial():
        return SchemePoint(fun, B, ())
    factors = []
    for e, quot in atomic_factors(B):
        hit = None
        for j, pieces in enumerate(pi.chart_comorphisms):
            for (_, f, phi) in pieces:
                down = try_extend(make_localization(B, f), quot)
                if down is not None:
                    hit = (j, phi.then(down))
                    break
            if hit is not None:
                break
        if hit is None:
            raise ValueError(
                f"no comorphism piece of the morphism covers the atom {e}"
            )
        j, hom = hit
        j2, hom2 = _reduce_factor(fun, j, hom)
        factors.append((e, j2, hom2))
    return SchemePoint(fun, B, factors)


# -- realization data ---------------------------------------------------------------


def section_value_at_point(s: GlobalSection, p: SchemePoint) -> AlgebraElement:
    """Evaluate a section over the top open at a point of the same scheme."""
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
        value_t = lifted(s.values[c][0])
        total = total + B.element(value_t.poly) * e
    return total


class RealizationData:
    """A functorial scheme realized on the lattice side.

    ``lat`` is the chart presentation; ``sections(U)`` the ring of
    functions of the realized open; ``support(U, s)`` the compact open of
    the base where the section s (over the realized U) is invertible,
    carried back below U.
    """

    __slots__ = ("fun", "lat")

    def __init__(self, fun: FunctorialScheme):
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "lat", fun.lat)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RealizationData is immutable")

    def sections(self, U: CompactOpen):
        return ring_of_functions(realization(self.fun, U))

    def support(self, U: CompactOpen, s: GlobalSection) -> CompactOpen:
        Y = realization(self.fun, U)
        if s.scheme is not Y.lat:
            raise ValueError("section does not live over the realized open")
        W = invertibility_support_scheme(Y.lat, top_open(Y.lat), s)
        return open_from_realization(self.fun, U, W)


def realize(fun: FunctorialScheme) -> RealizationData:
    return RealizationData(fun)


def realization_certificate(fun: FunctorialScheme) -> Optional[str]:
    """Check that realizing the top open reproduces the chart data.

    The realized charts are the localizations of the charts at 1; the
    certificate exhibits the mutually inverse chart isomorphisms and
    matches the induced patches against the original ones.
    """
    X = fun.lat
    t = top_open(X)
    Y = realization(fun, t)
    pieces: List[Tuple[int, AlgebraElement]] = []
    for i, w in enumerate(t.components):
        for g in w.generators:
            pieces.append((i, g))
    if len(pieces) != X.ncharts or Y.lat.ncharts != len(pieces):
        return "realized top does not have one chart per original chart"
    isos = []
    for idx, (i, g) in enumerate(pieces):
        A = X.charts[i]
        if g != A.one:
            return f"top generator of chart {i} is {g}, not 1"
        loc = make_localization(A, g)
        C = Y.lat.charts[idx]
        if C != loc.algebra:
            return f"realized chart {idx} is not the localization at 1"
        fwd = loc.to_loc
        back_images = [A.var(k) for k in range(A.nvars)] + [A.one]
        back = AlgebraMorphism(C, A, back_images)
        if not back.is_valid():
            return f"chart {idx}: inverse map is not a morphism"
        for k in range(A.nvars):
            if back(fwd(A.var(k))) != A.var(k):
                return f"chart {idx}: roundtrip fails on {A.names[k]}"
        for k in range(C.nvars):
            v = C.var(k)
            if fwd(back(v)) != v:
                return f"chart {idx}: reverse roundtrip fails on {C.names[k]}"
        isos.append((fwd, back))
    n_realized = sum(1 for q in Y.lat.data.patches if q.i < q.j)
    n_original = sum(
        len(X.data.patches_for(i, j))
        for i in range(X.ncharts)
        for j in range(i + 1, X.ncharts)
    )
    if n_realized != n_original:
        return (
            f"realized top has {n_realized} patches where the original data "
            f"has {n_original}"
        )
    for q in Y.lat.data.patches:
        if q.i >= q.j:
            continue
        (i, _), (j, _) = pieces[q.i], pieces[q.j]
        if i == j:
            return f"unexpected sibling patch inside chart {i} of the realized top"
        fwd_i, back_i = isos[q.i]
        fwd_j, back_j = isos[q.j]
        f_orig = back_i(q.f)
        g_orig = back_j(q.g)
        matched = False
        for P in X.data.patches_for(i, j):
            if not (
                eq(basic_open(X.charts[i], [f_orig]), basic_open(X.charts[i], [P.f]))
                and eq(basic_open(X.charts[j], [g_orig]), basic_open(X.charts[j], [P.g]))
            ):
                continue
            agree = True
            for k in range(X.charts[i].nvars):
                v = X.charts[i].var(k)
                val_q = q.fwd(q.loc_f.to_loc(fwd_i(v)))
                num_q, k_q = extract_fraction(q.loc_g, val_q)
                n_q = back_j(num_q)
                val_p = P.fwd(P.loc_f.to_loc(v))
                num_p, k_p = extract_fraction(P.loc_g, val_p)
                common = make_localization(X.charts[j], P.g * g_orig)
                lhs = common.to_loc(num_p * g_orig ** k_q)
                rhs = common.to_loc(n_q * P.g ** k_p)
                if lhs != rhs:
                    agree = False
                    break
            if agree:
                matched = True
                break
        if not matched:
            return (
                f"realized patch between charts {i} and {j} at D({f_orig}) "
                "does not match any original patch"
            )
    return None


def carry_point_in(
    fun: FunctorialScheme, u: CompactOpen, rp: SchemePoint
) -> SchemePoint:
    """Carry a point of the realized open to a point of the ambient scheme."""
    Y = realization(fun, u)
    if rp.scheme is not Y:
        raise ValueError("point does not live on the realization of the open")
    pieces: List[Tuple[int, AlgebraElement]] = []
    for i, w in enumerate(u.components):
        for g in w.generators:
            pieces.append((i, g))
    factors = []
    for (e, idx, phi) in rp.factors:
        parent, g = pieces[idx]
        loc = make_localization(fun.lat.charts[parent], g)
        hom = loc.to_loc.then(phi)
        j2, hom2 = _reduce_factor(fun, parent, hom)
        factors.append((e, j2, hom2))
    return SchemePoint(fun, rp.test_algebra, factors)


# -- the comparison decision procedure -------------------------------------------------


def _sample_opens(X: LatticeScheme) -> List[CompactOpen]:
    out = [top_open(X)]
    for j, A in enumerate(X.charts):
        out.append(embed_basic(X, j, top(A)))
        for k in range(A.nvars):
            out.append(embed_basic(X, j, basic_open(A, [A.var(k)])))
    return out


def _fingerprint(pi: SchemeMorphism, samples: Sequence[_Sample]) -> tuple:
    """A hashable summary of a morphism Spec(B) -> X that passed
    ``local_morphism_witness`` on ``samples``: two such morphisms agree
    extensionally iff their fingerprints are equal.

    A finite B is the product of its local factors B_e = B/(1-e), one per
    atom e, so B_h is the product of the B_e in which h_e is a unit.  A
    sample section pulls back to fractions n/h**k, one per piece; each atom
    records n_e * h_e**-k from the first piece whose h_e is a unit, and None
    if there is none.  Over a reduced B the factors are fields, where a unit
    is a nonzero element; otherwise ``try_invert`` decides, and the factors
    remember its answers.  The values decide the sample opens as well: pi is
    local, so D(x_k) of chart j pulls back to the atoms where x_k's value is
    a unit, and chart j's top to the atoms where 1 has a value.
    """
    B = pi.source.charts[0]
    factors = [quot for (_, quot) in atomic_factors(B)]
    reduced = is_reduced(B)

    def is_unit(c: AlgebraElement) -> bool:
        if reduced:
            return not c.is_zero()
        return c.algebra.try_invert(c) is not None

    out: List[tuple] = []
    for sample in samples:
        values: List[Optional[AlgebraElement]] = [None] * len(factors)
        for (_, h, val) in pi.pull_basic(*sample):
            n, k = extract_fraction(make_localization(B, h), val)
            for idx, quot in enumerate(factors):
                if values[idx] is not None:
                    continue
                h_e = quot(h)
                if not is_unit(h_e):
                    continue
                value = quot(n)
                if k:
                    value = value * h_e.algebra.try_invert(h_e) ** k
                values[idx] = value
        out.append(tuple(values))
    return tuple(out)


def _agreeing_pair(
    carried: Sequence[SchemeMorphism], samples: Sequence[_Sample]
) -> Optional[Tuple[int, int]]:
    """The first pair a < b of carried morphisms that agree, in the order
    of the pairwise sweep; None if all are distinct.

    Agreement is equality of fingerprints, so one ``_fingerprint`` per
    morphism decides it over any finite B, and the first pair is the first
    two members of the group whose first member comes first.
    """
    groups: Dict[tuple, List[int]] = {}
    for idx, pi in enumerate(carried):
        groups.setdefault(_fingerprint(pi, samples), []).append(idx)
    first = min((g for g in groups.values() if len(g) > 1), default=None)
    return None if first is None else (first[0], first[1])


def comparison_check(
    X: LatticeScheme,
    test_algebras: Sequence[PresentedAlgebra],
    morphisms: Sequence[AlgebraMorphism] = (),
    expected_counts: Optional[Sequence[int]] = None,
) -> Tuple[bool, Dict[str, object]]:
    """Run the full extensional comparison over the test algebras.

    For each B: enumerate the points, build the scheme morphism each
    carries (``point_morphism``), check that it is local
    (``local_morphism_witness``), and check the flat/sharp roundtrip
    recovers the point.  Distinct points must carry extensionally distinct
    morphisms: B is the product of its local factors, so one fingerprint
    per point (``_fingerprint``: the value of each pulled-back section of
    ``local_samples(X)`` in each factor) decides it for any finite B.  The
    local check has just pulled back the same sections, so the fingerprint
    reads each morphism's memo, and for a local morphism those values also
    fix the pulled-back sample opens.  For each supplied algebra morphism
    chi: B -> B2, check naturality: pushing a point along chi then taking
    its pullback of each sample open agrees with pulling back first and
    applying the lattice map of chi.  Finally check the realization
    certificate.  Returns (ok, report).
    """
    fun = functorial(X)
    report: Dict[str, object] = {"counts": [], "per_algebra": []}
    ok = True
    opens = _sample_opens(X)
    samples = local_samples(X)
    points_by_algebra: Dict[PresentedAlgebra, List[SchemePoint]] = {}
    for B in test_algebras:
        pts = eval_points(fun, B)
        points_by_algebra[B] = pts
        entry = {"algebra": repr(B), "count": len(pts)}
        report["counts"].append(len(pts))
        valid = True
        roundtrip = True
        carried: List[SchemeMorphism] = []
        for p in pts:
            try:
                pi = point_morphism(X, p)
                witness = local_morphism_witness(pi)
                if witness is not None:
                    witness = f"point does not carry a local morphism: {witness}"
            except ValueError as exc:
                witness = str(exc)
            if witness is not None:
                valid = False
                entry["witness"] = witness
                break
            carried.append(pi)
            back = adjunction_flat(fun, pi)
            if back != p:
                roundtrip = False
                entry["witness"] = f"flat(sharp({p!r})) = {back!r}"
                break
        distinct = len(set(pts)) == len(pts)
        if valid and roundtrip and distinct and len(carried) > 1:
            pair = _agreeing_pair(carried, samples)
            if pair is not None:
                a, b = pair
                distinct = False
                entry["witness"] = (
                    f"points {pts[a]!r} and {pts[b]!r} carry "
                    "extensionally equal morphisms"
                )
        entry["morphisms_valid"] = valid
        entry["roundtrip"] = roundtrip
        entry["distinct"] = distinct
        report["per_algebra"].append(entry)
        ok = ok and valid and roundtrip and distinct
    natural = True
    for chi in morphisms:
        B, B2 = chi.source, chi.target
        if B not in points_by_algebra:
            points_by_algebra[B] = eval_points(fun, B)
        for p in points_by_algebra[B]:
            q = map_point(fun, p, chi)
            pi_p = point_morphism(X, p)
            pi_q = point_morphism(X, q)
            for u in opens:
                lhs = pi_q.pullback(u).components[0]
                rhs = induced_hom(chi, pi_p.pullback(u).components[0])
                if not eq(lhs, rhs):
                    natural = False
                    report["naturality_witness"] = (
                        f"point {p!r} along {chi!r} at open {u}: "
                        f"{lhs} vs {rhs}"
                    )
                    break
            if not natural:
                break
        if not natural:
            break
    report["natural"] = natural
    ok = ok and natural
    cert = realization_certificate(fun)
    report["realization"] = cert if cert is not None else "ok"
    ok = ok and cert is None
    if expected_counts is not None:
        match = list(report["counts"]) == list(expected_counts)
        report["expected_counts"] = list(expected_counts)
        ok = ok and match
    return ok, report
