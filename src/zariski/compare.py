"""The two scheme presentations compared extensionally.

Both sides are one ``LatticeScheme``: its lattice of compact opens and sections on one side, its functor of
points on finite test algebras (``funscheme``) on the other, and each point, open or morphism names the
scheme it lives on.  This module carries points to scheme morphisms and back (an adjunction) and packages
the comparison as one decision procedure over finite test algebras: point sets biject with hom sets,
naturally in the test algebra, and the realization reproduces the chart data by a certificate.  A finite test
algebra is the product of its local factors, one per atom, so an open of its spectrum is a set of atoms and
a section a tuple of factor values: one table per point, read off the point's chart maps, decides locality,
the roundtrip, distinctness and, carried atom by atom along a map of test algebras, naturality, without
building the morphism the point carries.
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
from .lattice import ZarElement, basic_open
from .latscheme import (
    CompactOpen,
    LatticeScheme,
    SchemeMorphism,
    embed_basic,
    extend_over,
    local_morphism_witness,
    local_samples,
    mk_affine,
    top_open,
)
from .funscheme import (
    SchemePoint,
    _atom_under,
    _chart_map,
    _is_unit,
    _lowest_chart,
    _regular,
    atomic_factors,
    eval_points,
    is_reduced,
    map_point,
    open_at_point,
    realization,
)


# -- points as morphisms (the comparison functor) -----------------------------------


def _collapse(B: PresentedAlgebra, Bt: PresentedAlgebra, e: AlgebraElement) -> AlgebraMorphism:
    """The map Bt = B/(1-e) -> B_e for an atom e of B, which is well defined because 1-e dies in B_e."""
    loc_e = make_localization(B, e)
    return AlgebraMorphism(Bt, loc_e.algebra, [loc_e.to_loc(B.var(i)) for i in range(B.nvars)])


def point_morphism(p: SchemePoint) -> SchemeMorphism:
    """The scheme morphism Spec(B) -> X carried by a point of X(B).

    It is built, not checked (``local_morphism_witness`` checks it): one comorphism piece per atom e of the
    point and chart j that holds it, the atom's chart map A_j -> B/(1-e) (``_chart_map``) followed by the
    collapse to B_e.  The comparison builds one only for the witness of a point its table turns down.
    """
    X, B = p.scheme, p.test_algebra
    S = B._remember("spec", mk_affine, B)  # one Spec(B) for every point over B

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

    The top open has the piece D(1) on each nonzero chart and none on a zero chart, so realized chart k is
    the k-th nonzero chart localized at 1, with mutually inverse chart isomorphisms.  ``restrict_scheme``
    builds one realized patch per original patch between nonzero charts, by chart pair and in order: through
    the chart isomorphisms each has its original's f and g, and its chart map is the original's.
    """
    Y = realization(top_open(X))
    nonzero = [i for i, A in enumerate(X.charts) if not A.is_trivial()]
    if Y.ncharts != len(nonzero):
        return "realized top does not have one chart per original chart"
    isos = {}
    for k, i in enumerate(nonzero):
        A, C = X.charts[i], Y.charts[k]
        loc = make_localization(A, A.one)
        if C != loc.algebra:
            return f"realized chart {k} is not the localization at 1"
        # C is A[y]/(y - 1) itself, so sending y to 1 is a morphism inverse to A -> C
        isos[i] = (loc.to_loc, AlgebraMorphism(C, A, A.gens() + (A.one,)))
    realized = Y.patches
    originals = [
        P for a, i in enumerate(nonzero) for j in nonzero[a + 1:] for P in X.patches_for(i, j)
    ]
    if len(realized) != len(originals):
        return (
            f"realized top has {len(realized)} patches where the original data "
            f"has {len(originals)}"
        )
    for q, P in zip(realized, originals):
        i, j = nonzero[q.i], nonzero[q.j]
        (fwd_i, back_i), back_j = isos[i], isos[j][1]
        f_orig = back_i(q.f)
        if (i, j) != (P.i, P.j) or f_orig != P.f or back_j(q.g) != P.g or (
            fwd_i.then(q.chart_fwd).then(extend_over(q.loc_g, back_j.then(P.loc_g.to_loc)))
            != P.chart_fwd
        ):
            return (
                f"realized patch between charts {i} and {j} at D({f_orig}) "
                "does not match any original patch"
            )
    return None


# -- the comparison decision procedure -------------------------------------------------


def _sample_plan(X: LatticeScheme) -> Tuple[tuple, ...]:
    """Each sample (j, f, n/f**k) of ``local_samples(X)`` as (j, f, n, k, the generators of its support
    D(f*n) embedded in each chart of X).  Built once per scheme, remembered as ``X._memo["plan"]``."""
    return X._remember("plan", _plan, X)


def _plan(X: LatticeScheme) -> Tuple[tuple, ...]:
    plan = []
    for (j, f, value) in local_samples(X):
        n, k = extract_fraction(make_localization(X.charts[j], f), value)
        U = embed_basic(X, j, basic_open(X.charts[j], [f * n]))
        plan.append((j, f, n, k, tuple([w.generators for w in U.components])))
    return tuple(plan)


def _compile(X: LatticeScheme, plan: Sequence[tuple]) -> Tuple[tuple, tuple, tuple]:
    """(polys, links, samples): polys[j] lists chart j's distinct polynomials in the plan, and each sample
    (j, f, n, k, gens) names f and n by their index there, its support generators in chart c by theirs in
    polys[c]; links[c][j] lists (Q.f, the images of Q.chart_bwd) per patch Q from chart c to chart j.  A
    polynomial is compiled to its terms (c, the variable of each factor of the monomial, repeated)."""
    found: Dict[int, dict] = {j: {} for j in range(X.ncharts)}

    def at(j: int, b: AlgebraElement) -> int:
        return found[j].setdefault(b.poly, len(found[j]))

    def terms(f) -> tuple:
        return tuple([(c, tuple([v for v, e in enumerate(f.ring._mono(m)) for _ in range(e)]))
                      for m, c in f._t.items()])

    samples = [(j, at(j, f), at(j, n), k, [[at(c, g) for g in gs] for c, gs in enumerate(gens)])
               for (j, f, n, k, gens) in plan]
    links = tuple([tuple([tuple([(terms(Q.f.poly), tuple([terms(b.poly) for b in Q.chart_bwd.images]))
                                 for Q in X.patches_for(c, j)]) if j != c else () for j in range(X.ncharts)])
                   for c in range(X.ncharts)])
    return tuple([tuple(map(terms, found[j])) for j in range(X.ncharts)]), links, samples


def _values(R, products: dict, polys: Sequence[tuple], images: Sequence[int]) -> List[int]:
    """Compiled polynomials at the codes ``images`` of their variables, in R; ``products`` keeps products."""
    out = []
    for terms in polys:
        total = [0] * len(R.stairs)
        for c, factors in terms:
            x = images[factors[0]] if factors else R.weights[0]  # the code of 1
            for v in factors[1:]:
                key = (x, images[v])
                x = products[key] if key in products else products.setdefault(key, R.mul(*key))
            if len(terms) > 1 or c != 1:
                total = [a + c * d for a, d in zip(total, R.digits(x))]
        out.append(x if len(terms) == 1 and terms[0][0] == 1 else R.code(total))
    return out


def _atom_table(p: SchemePoint, program: Tuple[tuple, tuple, tuple], memo: dict):
    """(values, local, roundtrip) of a point p of X = ``p.scheme`` over B,
    one entry per atom (e, c, phi) of p, that is per local factor B_e of B.

    A sample n/f**k of chart j is m(n) * m(f)**-k, the code of an element of B_e, at an atom whose map
    m = ``funscheme._chart_map(X, c, phi, j)`` sends f to a unit, else None: on codes, m's images are
    Q.chart_bwd's at phi's images and phi(Q.f)**-1, Q the first patch from c to j with phi(Q.f) a unit.
    ``program`` is ``_compile(X, plan)``; ``memo`` keeps per factor its ``_Regular``, products and
    inverses, for one comparison.  Units are decided by ``funscheme._is_unit``; a value is a unit where
    n is.  Local: per sample, the atoms with a unit value are those where phi sends a generator of the
    sample's support in chart c to a unit.  Roundtrip: no chart j < c maps to an atom, so its lowest
    chart map, which ``adjunction_flat`` reads first and ``_lowest_chart`` decides, is phi.
    """
    (polys, links, samples), reduced = program, is_reduced(p.test_algebra)
    atoms, roundtrip = [], True  # per atom: c, B_e's representation, per chart its values and units
    for (_, c, phi) in p.factors:
        R, products, inv = memo.get(phi.target) or memo.setdefault(phi.target, (_regular(phi.target), {}, {}))
        base, values = tuple(map(R.encode, phi.images)), []
        for j, patches in enumerate(links[c]):
            images = base if j == c else None
            for f, ims in patches:
                u = _values(R, products, (f,), base)[0]
                if _is_unit(reduced, R.algebra, u):
                    if u not in inv:
                        inv[u] = R.encode(R.algebra.try_invert(R.element(u)))
                    images = tuple(_values(R, products, ims, base + (inv[u],)))
                    break
            values.append(None if images is None else _values(R, products, polys[j], images))
        roundtrip = roundtrip and values[:c] == [None] * c
        units = [None if v is None else [_is_unit(reduced, R.algebra, x) for x in v] for v in values]
        atoms.append((c, R, values, units))
    rows, local = [], True
    for (j, f, n, k, gens) in samples:
        row = []
        for c, R, values, units in atoms:
            value = None
            if values[j] is not None and units[j][f]:
                value = values[j][n]
                if k:
                    value = R.mul(value, R.power(R.encode(R.algebra.try_invert(R.element(values[j][f]))), k))
            row.append(value)
            local = local and (value is not None and units[j][n]) == any([units[c][g] for g in gens[c]])
        rows.append(tuple(row))
    return tuple(rows), local, local and roundtrip


def comparison_check(
    X: LatticeScheme,
    test_algebras: Sequence[PresentedAlgebra],
    morphisms: Sequence[AlgebraMorphism] = (),
) -> Tuple[bool, Dict[str, object]]:
    """Run the full extensional comparison over the test algebras.

    For each B: enumerate the points and read one table per point (``_atom_table``): the values of the
    sections of ``local_samples(X)`` in each local factor of B decide that the morphism a point carries is
    local, that the flat/sharp roundtrip recovers the point and, as one fingerprint per point, that distinct
    points carry distinct morphisms.  A point the table turns down gets the witness of the generic checkers
    (``local_morphism_witness``, ``adjunction_flat``).  For each algebra morphism chi: B -> B2, check
    naturality: both sides of the square are local morphisms Spec(B2) -> X, which tables tell apart, so the
    table of ``map_point(p, chi)`` must be p's table carried along chi.  Each atom e2 of B2 reads the atom
    of B under it (``funscheme._atom_under``), pushed into B2/(1 - e2); units and missing values carry over,
    as a map of finite local algebras is local.  Tables of the first pass are read, not rebuilt.  Finally
    check the realization certificate.  Returns (ok, report).  Raises ``ValueError``, before any other work,
    when some chi maps a relation of its source to a nonzero element.
    """
    for chi in morphisms:
        chi.check_valid()
    report: Dict[str, object] = {"counts": [], "per_algebra": []}
    ok = True
    plan = _sample_plan(X)
    program, memo = _compile(X, plan), {}
    points_by_algebra: Dict[PresentedAlgebra, List[SchemePoint]] = {}
    tables: Dict[SchemePoint, tuple] = {}
    for B in test_algebras:
        pts = points_by_algebra[B] = eval_points(X, B)
        entry = {"algebra": repr(B), "count": len(pts)}
        report["counts"].append(len(pts))
        valid = roundtrip = True
        prints: List[tuple] = []
        for p in pts:
            values, local, back_ok = tables[p] = _atom_table(p, program, memo)
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
        sources = [_regular(t.target) for (_, t) in atomic_factors(B)]
        pushes = [(_atom_under(atoms, chi, t), chi.then(t), _regular(t.target))
                  for (_, t) in atomic_factors(chi.target)]
        for p in points_by_algebra[B]:
            q = map_point(p, chi)
            got = (tables.get(q) or _atom_table(q, program, memo))[0]
            pushed = tuple(
                tuple(None if row[i] is None else R.encode(to(B.element(sources[i].element(row[i]).poly)))
                      for (i, to, R) in pushes)
                for row in (tables.get(p) or _atom_table(p, program, memo))[0]
            )
            if got != pushed:
                natural = False
                (j, f, n, k, _), a, b = next(r for r in zip(plan, got, pushed) if r[1] != r[2])
                a, b = (", ".join(str(x if x is None else R.element(x)) for x, (_, _, R) in zip(row, pushes))
                        for row in (a, b))
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
