"""The two scheme presentations compared extensionally.

Both sides are one ``LatticeScheme``: its lattice of compact opens and
sections on one side, its functor of points on finite test algebras
(``funscheme``) on the other, and each point, open or morphism names the
scheme it lives on.  This module carries points to scheme morphisms
and back (an adjunction) and packages the comparison as one decision
procedure over finite test algebras: point sets biject with hom sets,
naturally in the test algebra, and the realization reproduces the chart
data by a certificate.
A finite test algebra is the product of its local factors, one per atom,
so an open of its spectrum is a set of atoms and a section a tuple of
factor values: one table per point, read off the point's chart maps,
decides locality, the roundtrip, distinctness and, carried atom by atom
along a map of test algebras, naturality, without building the morphism
the point carries.
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
from .lattice import ZarElement, basic_open, eq
from .latscheme import (
    CompactOpen,
    LatticeScheme,
    SchemeMorphism,
    embed_basic,
    local_morphism_witness,
    local_samples,
    mk_affine,
    top_open,
)
from .funscheme import (
    SchemePoint,
    _atom_under,
    _chart_map,
    _lowest_chart,
    atomic_factors,
    eval_points,
    is_reduced,
    map_point,
    open_at_point,
    realization,
)


# -- points as morphisms (the comparison functor) -----------------------------------


def _collapse(B: PresentedAlgebra, Bt: PresentedAlgebra, e: AlgebraElement) -> AlgebraMorphism:
    """The map Bt = B/(1-e) -> B_e for an atom e of B, which is well defined
    because 1-e dies in B_e."""
    loc_e = make_localization(B, e)
    return AlgebraMorphism(Bt, loc_e.algebra, [loc_e.to_loc(B.var(i)) for i in range(B.nvars)])


def point_morphism(p: SchemePoint) -> SchemeMorphism:
    """The scheme morphism Spec(B) -> X carried by a point of X(B).

    It is built, not checked (``local_morphism_witness`` checks it): one
    comorphism piece per atom e of the point and chart j that holds it, the
    atom's chart map A_j -> B/(1-e) (``_chart_map``) followed by the
    collapse to B_e.  The comparison builds one only for the witness of a
    point its table turns down.
    """
    X, B = p.scheme, p.test_algebra
    if "spec" not in B._memo:  # one Spec(B) for every point over B
        B._memo["spec"] = mk_affine(B)
    S = B._memo["spec"]

    def chart_open(j: int, w: ZarElement) -> CompactOpen:
        return CompactOpen(S, [open_at_point(embed_basic(X, j, w), p)])

    comorphisms = [[] for _ in X.charts]
    for (e, c, phi) in p.factors:
        for j, out in enumerate(comorphisms):
            m = _chart_map(X, c, phi, j)
            if m is not None:
                out.append((0, e, m.then(_collapse(B, phi.target, e))))
    return SchemeMorphism(S, X, chart_open, comorphisms)


def adjunction_flat(pi: SchemeMorphism) -> SchemePoint:
    """Morphism Spec(B) -> X to the point of X(B) it evaluates to."""
    X = pi.target
    if pi.source.ncharts != 1:
        raise ValueError("the morphism's source must be one affine chart")
    B = pi.source.charts[0]
    if B.is_trivial():
        return SchemePoint(X, B, ())
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
        factors.append((e, *_lowest_chart(X, *hit)))
    return SchemePoint(X, B, factors)


def realization_certificate(X: LatticeScheme) -> Optional[str]:
    """Check that realizing the top open reproduces the chart data.

    The realized charts are the localizations of the charts at 1; the
    certificate exhibits the mutually inverse chart isomorphisms and
    matches the induced patches against the original ones.  The top open
    has the one piece D(1) per chart, so realized chart i is chart i's.
    """
    t = top_open(X)
    Y = realization(t)
    if sum(len(w.generators) for w in t.components) != X.ncharts or Y.ncharts != X.ncharts:
        return "realized top does not have one chart per original chart"
    isos = []
    for idx, A in enumerate(X.charts):
        loc = make_localization(A, A.one)
        C = Y.charts[idx]
        if C != loc.algebra:
            return f"realized chart {idx} is not the localization at 1"
        fwd = loc.to_loc
        back = AlgebraMorphism(C, A, [A.var(k) for k in range(A.nvars)] + [A.one])
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
    n_realized = sum(1 for q in Y.patches if q.i < q.j)
    n_original = sum(1 for P in X.patches if P.i < P.j)
    if n_realized != n_original:
        return (
            f"realized top has {n_realized} patches where the original data "
            f"has {n_original}"
        )
    for q in Y.patches:
        if q.i >= q.j:
            continue
        i, j = q.i, q.j
        fwd_i, back_i = isos[i]
        back_j = isos[j][1]
        f_orig = back_i(q.f)
        g_orig = back_j(q.g)
        for P in X.patches_for(i, j):
            if not (
                eq(basic_open(X.charts[i], [f_orig]), basic_open(X.charts[i], [P.f]))
                and eq(basic_open(X.charts[j], [g_orig]), basic_open(X.charts[j], [P.g]))
            ):
                continue
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
                    break
            else:
                break  # every chart variable agrees: P is q's patch
        else:
            return (
                f"realized patch between charts {i} and {j} at D({f_orig}) "
                "does not match any original patch"
            )
    return None


# -- the comparison decision procedure -------------------------------------------------


def _sample_plan(X: LatticeScheme) -> Tuple[tuple, ...]:
    """Each sample (j, f, n/f**k) of ``local_samples(X)`` as (j, f, n, k, the
    generators of its support D(f*n) embedded in each chart of X).  Built
    once per scheme and remembered on X, as ``X._memo["plan"]``."""
    plan = X._memo.get("plan")
    if plan is None:
        plan = []
        for (j, f, value) in local_samples(X):
            n, k = extract_fraction(make_localization(X.charts[j], f), value)
            U = embed_basic(X, j, basic_open(X.charts[j], [f * n]))
            plan.append((j, f, n, k, tuple([w.generators for w in U.components])))
        plan = X._memo["plan"] = tuple(plan)
    return plan


def _atom_table(X: LatticeScheme, p: SchemePoint, plan: Sequence[tuple]):
    """(values, local, roundtrip) of a point of X(B), one entry per atom
    (e, c, phi) of the point, that is per local factor B_e of B.

    A sample n/f**k of chart j is m(n) * m(f)**-k at an atom whose map
    m = ``funscheme._chart_map(X, c, phi, j)`` sends f to a unit, else None;
    each m(f) is evaluated once.  A unit is nonzero when B is reduced (the
    B_e are fields), else ``try_invert`` decides.  Local: per sample, the
    atoms with a unit value are those where phi sends a generator of the
    sample's support in chart c to a unit.  Roundtrip: each atom's lowest
    chart map, the piece ``adjunction_flat`` reads first, is (c, phi) itself.
    That is what ``_lowest_chart`` would decide from it: a map on a chart
    j < c puts the atom's lowest chart at j or below, never at c.
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
            if m is not None:
                mf = m(f)
                if is_unit(mf):
                    value = m(n) * mf.algebra.try_invert(mf) ** k if k else m(n)
            row.append(value)
            unit = value is not None and is_unit(value)
            local = local and unit == any(is_unit(phi(g)) for g in gens[c])
        values.append(tuple(row))
    lowest = [next((j, m) for j, m in enumerate(ms) if m is not None) for ms in maps]
    return tuple(values), local, local and lowest == [(c, phi) for (_, c, phi) in p.factors]


def comparison_check(
    X: LatticeScheme,
    test_algebras: Sequence[PresentedAlgebra],
    morphisms: Sequence[AlgebraMorphism] = (),
) -> Tuple[bool, Dict[str, object]]:
    """Run the full extensional comparison over the test algebras.

    For each B: enumerate the points and read one table per point
    (``_atom_table``): the values of the sections of ``local_samples(X)``
    in each local factor of B decide that the morphism a point carries is
    local, that the flat/sharp roundtrip recovers the point and, as one
    fingerprint per point, that distinct points carry distinct morphisms.
    A point the table turns down gets the witness of the generic checkers
    (``local_morphism_witness``, ``adjunction_flat``).  For each algebra
    morphism chi: B -> B2, check naturality: both sides of the square are
    local morphisms Spec(B2) -> X, which tables tell apart, so the table of
    ``map_point(p, chi)`` must be p's table carried along chi.  Each atom
    e2 of B2 reads the atom of B under it (``funscheme._atom_under``),
    pushed into B2/(1 - e2); units and missing values carry over, as a map
    of finite local algebras is local.  Tables of the first pass are read,
    not rebuilt.  Finally check the realization certificate.  Returns
    (ok, report).
    """
    report: Dict[str, object] = {"counts": [], "per_algebra": []}
    ok = True
    plan = _sample_plan(X)
    points_by_algebra: Dict[PresentedAlgebra, List[SchemePoint]] = {}
    tables: Dict[SchemePoint, tuple] = {}
    for B in test_algebras:
        pts = points_by_algebra[B] = eval_points(X, B)
        entry = {"algebra": repr(B), "count": len(pts)}
        report["counts"].append(len(pts))
        valid = roundtrip = True
        prints: List[tuple] = []
        for p in pts:
            values, local, back_ok = tables[p] = _atom_table(X, p, plan)
            if not local:
                valid = False
                try:
                    why = local_morphism_witness(point_morphism(p))
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
                back = adjunction_flat(point_morphism(p))
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
        B = chi.source
        if B not in points_by_algebra:
            points_by_algebra[B] = eval_points(X, B)
        atoms = [e for (e, _) in atomic_factors(B)]
        pushes = [
            (_atom_under(atoms, chi, t), chi.then(t)) for (_, t) in atomic_factors(chi.target)
        ]
        for p in points_by_algebra[B]:
            q = map_point(p, chi)
            got = (tables.get(q) or _atom_table(X, q, plan))[0]
            pushed = tuple(
                tuple(None if row[i] is None else to(B.element(row[i].poly)) for (i, to) in pushes)
                for row in (tables.get(p) or _atom_table(X, p, plan))[0]
            )
            if got != pushed:
                natural = False
                (j, f, n, k, _), a, b = next(r for r in zip(plan, got, pushed) if r[1] != r[2])
                a, b = (", ".join(map(str, row)) for row in (a, b))
                report["naturality_witness"] = (
                    f"point {p!r} along {chi!r} at chart {j}, D({f}), {n}/({f})**{k}: "
                    f"({a}) at the pushed point vs ({b}) pushed"
                )
                break
        if not natural:
            break
    report["natural"] = natural
    ok = ok and natural
    cert = realization_certificate(X)
    report["realization"] = cert if cert is not None else "ok"
    ok = ok and cert is None
    return ok, report
