"""The two scheme presentations compared extensionally.

One side presents a scheme by chart-and-patch data with its lattice of
compact opens and section rings; the other evaluates a functor of points
on finite test algebras.  This module carries points to scheme morphisms
and back (an adjunction), realizes compact opens of the functor side as
schemes, and packages the comparison as one decision procedure over finite
test algebras: point sets biject with hom sets, naturally in the test
algebra, and the realization reproduces the chart data by a certificate.
A finite test algebra is the product of its local factors, one per atom,
so an open of its spectrum is a set of atoms and a section a tuple of
factor values: one table per point, read off the point's chart maps,
decides locality, the roundtrip and distinctness without building the
morphism the point carries.
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
    _sample_support,
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

    It is built, not checked (``local_morphism_witness`` checks it).  The
    opens of X are remembered on X by ``embed_basic``, the patch maps on the
    patches, and the collapse maps ``B/(1-e) -> B_piece`` on Spec(B).
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


# -- the comparison decision procedure -------------------------------------------------


def _sample_opens(X: LatticeScheme) -> List[CompactOpen]:
    out = [top_open(X)]
    for j, A in enumerate(X.charts):
        out.append(embed_basic(X, j, top(A)))
        for k in range(A.nvars):
            out.append(embed_basic(X, j, basic_open(A, [A.var(k)])))
    return out


def _sample_plan(X: LatticeScheme) -> List[tuple]:
    """Each sample (j, f, n/f**k) of ``local_samples(X)`` as (j, f, n, k, the
    generators of its support embedded in each chart of X)."""
    plan = []
    for (j, f, value) in local_samples(X):
        n, k = extract_fraction(make_localization(X.charts[j], f), value)
        U = embed_basic(X, j, _sample_support(X, j, f, value))
        plan.append((j, f, n, k, [w.generators for w in U.components]))
    return plan


def _chart_map(X: LatticeScheme, c: int, phi: AlgebraMorphism, j: int):
    """The map A_j -> B_e of an atom carried on chart c by phi: phi itself, or
    through the first patch Q from c to j at which phi(Q.f) is a unit."""
    if j == c:
        return phi
    for Q in X.data.patches_for(c, j):
        psi = try_extend(Q.loc_f, phi)
        if psi is not None:
            return Q.chart_bwd.then(psi)
    return None


def _atom_table(X: LatticeScheme, p: SchemePoint, plan: Sequence[tuple]):
    """(values, local, roundtrip) of a point of X(B), one entry per atom
    (e, c, phi) of the point, that is per local factor B_e of B.

    A sample n/f**k of chart j is m(n) * m(f)**-k at an atom whose map
    m = ``_chart_map(X, c, phi, j)`` sends f to a unit, else None; a unit is
    nonzero when B is reduced (the B_e are fields), else ``try_invert``
    decides.  Local: per sample, the atoms with a unit value are those where
    phi sends a generator of the sample's support in chart c to a unit.
    Roundtrip: ``_reduce_factor`` takes each lowest chart map to (c, phi).
    """
    reduced = is_reduced(p.test_algebra)

    def is_unit(b: AlgebraElement) -> bool:
        return not b.is_zero() if reduced else b.algebra.try_invert(b) is not None

    maps = [[_chart_map(X, c, phi, j) for j in range(X.ncharts)] for (_, c, phi) in p.factors]
    values, local = [], True
    for (j, f, n, k, gens) in plan:
        row = []
        for (_, c, phi), ms in zip(p.factors, maps):
            m, value = ms[j], None
            if m is not None and is_unit(m(f)):
                value = m(n) * m(f).algebra.try_invert(m(f)) ** k if k else m(n)
            row.append(value)
            unit = value is not None and is_unit(value)
            local = local and unit == any(is_unit(phi(g)) for g in gens[c])
        values.append(tuple(row))
    lowest = [next((j, m) for j, m in enumerate(ms) if m is not None) for ms in maps]
    back = [_reduce_factor(p.scheme, j, m) for (j, m) in lowest] if local else None
    return tuple(values), local, back == [(c, phi) for (_, c, phi) in p.factors]


def comparison_check(
    X: LatticeScheme,
    test_algebras: Sequence[PresentedAlgebra],
    morphisms: Sequence[AlgebraMorphism] = (),
    expected_counts: Optional[Sequence[int]] = None,
) -> Tuple[bool, Dict[str, object]]:
    """Run the full extensional comparison over the test algebras.

    For each B: enumerate the points and read one table per point
    (``_atom_table``): the values of the sections of ``local_samples(X)``
    in each local factor of B decide that the morphism a point carries is
    local, that the flat/sharp roundtrip recovers the point and, as one
    fingerprint per point, that distinct points carry distinct morphisms.
    A point the table turns down gets the witness of the generic checkers
    (``local_morphism_witness``, ``adjunction_flat``).  For each algebra
    morphism chi: B -> B2, check naturality: pushing a point along chi then
    pulling back each sample open agrees with pulling back first and
    applying the lattice map of chi.  Finally check the realization
    certificate.  Returns (ok, report).
    """
    fun = functorial(X)
    report: Dict[str, object] = {"counts": [], "per_algebra": []}
    ok = True
    opens = _sample_opens(X)
    plan = _sample_plan(X)
    points_by_algebra: Dict[PresentedAlgebra, List[SchemePoint]] = {}
    for B in test_algebras:
        pts = eval_points(fun, B)
        points_by_algebra[B] = pts
        entry = {"algebra": repr(B), "count": len(pts)}
        report["counts"].append(len(pts))
        valid = roundtrip = True
        prints: List[tuple] = []
        for p in pts:
            values, local, back_ok = _atom_table(X, p, plan)
            if not local:
                valid = False
                try:
                    why = local_morphism_witness(point_morphism(X, p))
                except ValueError as exc:
                    entry["witness"] = str(exc)
                else:
                    entry["witness"] = (
                        f"point does not carry a local morphism: {why}" if why is not None
                        else f"the per-atom check finds {p!r} not local, the generic one local"
                    )
                break
            if not back_ok:
                roundtrip = False
                back = adjunction_flat(fun, point_morphism(X, p))
                entry["witness"] = (
                    f"flat(sharp({p!r})) = {back!r}" if back != p
                    else f"the per-atom roundtrip misses {p!r}, adjunction_flat returns it"
                )
                break
            prints.append(values)
        distinct = len(set(pts)) == len(pts)
        if valid and roundtrip and distinct and len(prints) > 1:
            # the first agreeing pair of the pairwise sweep: the first two
            # members of the group whose first member comes first
            groups: Dict[tuple, List[int]] = {}
            for idx, values in enumerate(prints):
                groups.setdefault(values, []).append(idx)
            first = min((g for g in groups.values() if len(g) > 1), default=None)
            if first is not None:
                distinct = False
                entry["witness"] = (
                    f"points {pts[first[0]]!r} and {pts[first[1]]!r} carry "
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
