"""Command-line front end for the scheme kernel.

Subcommands bind the decision procedures of the library to files and
inline expressions: ring normal forms and inversion, ideal membership
with certificates, lattice order and operations, gluing-data validation,
scheme-level section and restriction reports, point enumeration over
finite fields, cover certificates, locality of the points functor, and
the two-presentation comparison.

Exit codes: 0 when the request is verified or answered positively, 1 on
a mathematical refutation (always with a witness), 2 on malformed input
(parse errors carry line and column).  Output is deterministic: identical
inputs produce identical bytes.

One helper per job: ``_parsed`` (parse errors), the ``--order`` callback,
``_refute_outside`` (radical-membership witnesses), ``_power_certificate``
and ``_fmt_identity`` (certificates), ``_load_section`` (family files).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import click

from .algebra import (
    POWER_CAP,
    AlgebraElement,
    PresentedAlgebra,
    ExtractionCapError,
    make_localization,
)
from .funscheme import check_locality, eval_points
from .compare import comparison_check
from .groebner import GroebnerBasis
from .lattice import ZarElement, basic_open, join, meet
from .latscheme import (
    CompactOpen,
    GlobalSection,
    GluingError,
    LatticeScheme,
    affine_hull_map,
    make_patch,
    mk_affine,
    restrict_scheme,
    section_compatibility_witness,
    top_open,
)
from .parsing import (
    ParseError,
    parse_basic_open,
    parse_field,
    parse_order,
    parse_poly,
    parse_ring,
)
from .fields import _DigitLimitError
from .polynomials import MonomialOrder, Poly, PolyRing, _ExponentLimitError


# -- plumbing ---------------------------------------------------------------------


def _refute(line: str) -> None:
    """Report a mathematical refutation and exit with status 1."""
    click.echo(line)
    sys.exit(1)


def _input_error(message: str) -> None:
    raise click.UsageError(message)


def _emit_json(payload: object) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _parsed(where: str, parse, *args):
    """``parse(*args)``; a ``ParseError`` is malformed input at ``where``."""
    try:
        return parse(*args)
    except ParseError as exc:
        _input_error(f"{where}: {exc}")


def _parse_algebra_text(ring_text: str, order: MonomialOrder) -> PresentedAlgebra:
    return PresentedAlgebra(*_parsed("--ring", parse_ring, ring_text, order))


def _parse_poly_at(text: str, ring: PolyRing, where: str) -> Poly:
    if not isinstance(text, str):
        _input_error(f"{where}: must be a string")
    return _parsed(where, parse_poly, text, ring)


def _parse_element(text: str, A: PresentedAlgebra, where: str) -> AlgebraElement:
    return A.element(_parse_poly_at(text, A.ring, where))


def _parse_open(text: str, A: PresentedAlgebra, where: str) -> ZarElement:
    gens = _parsed(where, parse_basic_open, text, A.ring)
    return basic_open(A, [A.element(g) for g in gens])


def _fmt_compact(u: CompactOpen) -> str:
    return "; ".join(str(w) for w in u.components)


def _test_fields(over: str, X: LatticeScheme) -> List[PresentedAlgebra]:
    """The fields of ``--over`` as test algebras: each must be finite and
    the chart field of X."""
    fields = []
    for part in over.split(","):
        part = part.strip()
        if not part:
            _input_error("--over: empty field name")
        fields.append(_parsed("--over", parse_field, part))
    for field in fields:
        if not field.char:
            _input_error(f"--over: {field!r} is not a finite field")
        if field != X.charts[0].field:
            _input_error(
                f"--over: {field!r} does not match the chart field "
                f"{X.charts[0].field!r}"
            )
    return [PresentedAlgebra(PolyRing(field, [])) for field in fields]


def _load_spec(path: str, *kinds: str) -> Tuple[str, Dict]:
    """The kind of the schema-1 file at ``path``, one of ``kinds``, and its
    other fields."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        _input_error(
            f"{path}: invalid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        )
    if not isinstance(obj, dict):
        _input_error(f"{path}: top level must be an object")
    if type(obj.get("schema")) is not int or obj["schema"] != 1:
        _input_error(f"{path}: schema must be 1")
    if obj.get("kind") not in kinds:
        _input_error(f"{path}: kind must be " + " or ".join(f"'{k}'" for k in kinds))
    return obj["kind"], {k: v for k, v in obj.items() if k not in ("schema", "kind")}


def _check_keys(
    obj: Dict, allowed: set, required: set, where: str
) -> None:
    if not isinstance(obj, dict):
        _input_error(f"{where}: must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        _input_error(f"{where}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(required - set(obj))
    if missing:
        _input_error(f"{where}: missing field(s) {', '.join(missing)}")


def _algebra_from_spec(obj: Dict, where: str, order: MonomialOrder) -> PresentedAlgebra:
    _check_keys(obj, {"field", "vars", "relations"}, {"field", "vars"}, where)
    if not isinstance(obj["field"], str):
        _input_error(f"{where}.field: must be a string")
    field = _parsed(f"{where}.field", parse_field, obj["field"])
    names = obj["vars"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        _input_error(f"{where}.vars: must be a list of variable names")
    try:
        ring = PolyRing(field, names, order)
    except ValueError as exc:
        _input_error(f"{where}.vars: {exc}")
    texts = obj.get("relations", [])
    if not isinstance(texts, list):
        _input_error(f"{where}.relations: must be a list of polynomials")
    rels = [
        _parse_poly_at(text, ring, f"{where}.relations[{k}]")
        for k, text in enumerate(texts)
    ]
    return PresentedAlgebra(ring, rels)


PATCH_KEYS = {"from", "to", "f", "g", "f_inverse", "g_inverse", "forward", "backward"}


def _gluing_from_spec(obj: Dict, where: str, order: MonomialOrder) -> LatticeScheme:
    _check_keys(obj, {"charts", "patches"}, {"charts"}, where)
    charts_spec = obj["charts"]
    if not isinstance(charts_spec, list) or not charts_spec:
        _input_error(f"{where}.charts: must be a non-empty list")
    charts = [
        _algebra_from_spec(c, f"{where}.charts[{k}]", order)
        for k, c in enumerate(charts_spec)
    ]
    for k, A in enumerate(charts):
        if A.field != charts[0].field:
            _input_error(
                f"{where}.charts[{k}].field: {A.field!r} does not match "
                f"chart 0's field {charts[0].field!r}"
            )
    patches_spec = obj.get("patches", [])
    if not isinstance(patches_spec, list):
        _input_error(f"{where}.patches: must be a list")
    patch_args = []
    for k, p in enumerate(patches_spec):
        pwhere = f"{where}.patches[{k}]"
        _check_keys(p, PATCH_KEYS, PATCH_KEYS, pwhere)
        i, j = p["from"], p["to"]
        if not (type(i) is int and 0 <= i < len(charts)):
            _input_error(f"{pwhere}.from: chart index out of range")
        if not (type(j) is int and 0 <= j < len(charts)) or i == j:
            _input_error(f"{pwhere}.to: must name a different chart")
        Ai, Aj = charts[i], charts[j]
        f = _parse_element(p["f"], Ai, f"{pwhere}.f")
        g = _parse_element(p["g"], Aj, f"{pwhere}.g")
        loc_f = make_localization(Ai, f)
        loc_g = make_localization(Aj, g)
        for nm, base in ((p["f_inverse"], Ai), (p["g_inverse"], Aj)):
            if not isinstance(nm, str) or not nm.isidentifier():
                _input_error(f"{pwhere}: declared inverses must be names")
            if nm in base.ring.names:
                _input_error(
                    f"{pwhere}: inverse name {nm!r} collides with a chart variable"
                )
        # forward sends the variables of chart i into Aj_g, backward those of chart j into Ai_f
        directions = (("forward", i, loc_g, p["g_inverse"]), ("backward", j, loc_f, p["f_inverse"]))
        for key, k, _, _ in directions:
            if not isinstance(p[key], list) or len(p[key]) != charts[k].nvars:
                _input_error(f"{pwhere}.{key}: need one image per variable of chart {k}")
        images = []
        for key, _, loc, inverse in directions:
            # the images name the inverse as the file declares it; the
            # localization's ring has the same variables in the same places
            scratch = PolyRing(loc.base.field, tuple(loc.base.ring.names) + (inverse,))
            imgs = []
            for m, text in enumerate(p[key]):
                raw = _parse_poly_at(text, scratch, f"{pwhere}.{key}[{m}]")
                imgs.append(loc.algebra.element(loc.algebra.ring.from_terms(raw.terms)))
            images.append(imgs)
        patch_args.append((i, j, f, g, *images))
    try:
        return LatticeScheme(charts, [make_patch(charts, *args) for args in patch_args])
    except (GluingError, ValueError) as exc:
        _refute(f"invalid gluing data: {exc}")


def _load_scheme(path: str, order: MonomialOrder) -> LatticeScheme:
    """Load a scheme file and validate the data, refuting on failure."""
    kind, spec = _load_spec(path, "algebra", "gluedata")
    if kind == "gluedata":
        return _gluing_from_spec(spec, path, order)
    return mk_affine(_algebra_from_spec(spec, path, order))


def _load_section(
    path: str, X: LatticeScheme, prefix: str
) -> Tuple[List[AlgebraElement], GlobalSection]:
    """The chart values of the family file at ``path`` and the global
    section of X over its top open that they make; refutes, after
    ``prefix``, when the values disagree on an overlap."""
    _, spec = _load_spec(path, "family")
    _check_keys(spec, {"values"}, {"values"}, path)
    texts = spec["values"]
    if not isinstance(texts, list) or len(texts) != X.ncharts:
        _input_error(f"{path}.values: need one value per chart ({X.ncharts})")
    values = [
        _parse_element(text, A, f"{path}.values[{k}]")
        for k, (A, text) in enumerate(zip(X.charts, texts))
    ]
    rows = [[make_localization(A, A.one).to_loc(v)] for A, v in zip(X.charts, values)]
    s = GlobalSection(top_open(X), rows)
    witness = section_compatibility_witness(s)
    if witness is not None:
        _refute(f"{prefix}not a global section: {witness}")
    return values, s


def _refute_outside(
    prefix: str, A: PresentedAlgebra, elems: Sequence[AlgebraElement],
    gens: Sequence[AlgebraElement],
) -> None:
    """Refute, after ``prefix``, with the first of ``elems`` that is not
    in the radical of the ideal of ``gens``."""
    for f in elems:
        if not A.radical_member(f, gens):
            _refute(
                f"{prefix}{f} is not in the radical of "
                f"({', '.join(str(g) for g in gens) or '0'})"
            )


def _fmt_identity(
    A: PresentedAlgebra, lhs: str, cofactors: Sequence, gens: Sequence[AlgebraElement]
) -> str:
    """``lhs = sum c * g`` over ``gens``.  Cofactors past them, those of the
    relations, are left out, and the line then ends "(modulo the relations)"."""
    terms = [f"({c}) * ({g})" for c, g in zip(cofactors, gens) if not c.is_zero()]
    rhs = " + ".join(terms) if terms else "0"
    return f"{lhs} = {rhs}" + (" (modulo the relations)" if A.relations else "")


def _power_certificate(
    A: PresentedAlgebra, f: AlgebraElement, gens: Sequence[AlgebraElement]
) -> Optional[str]:
    """The identity for the least power ``f**n`` (n <= POWER_CAP) in the
    ideal of ``gens``, or None past the cap."""
    gb = GroebnerBasis(A.ring, tuple(g.poly for g in gens) + A.relations)
    acc = A.one
    for n in range(1, POWER_CAP + 1):
        acc = acc * f
        cof = gb.member(acc.poly)
        if cof is not None:
            return _fmt_identity(A, f"({f})^{n}", cof, gens)
    return None


# -- command tree -----------------------------------------------------------------


# every command receives the MonomialOrder itself
ORDER_OPTION = click.option(
    "--order",
    default="grevlex",
    show_default=True,
    type=click.Choice(["grevlex", "lex"]),
    callback=lambda _ctx, _param, text: parse_order(text),
    help="Monomial order for all rings.",
)
RING_OPTION = click.option(
    "--ring", "ring_text", required=True, help='Ring, e.g. "QQ[x,y]/(x*y-1)".'
)
FORMAT_OPTION = click.option(
    "--format",
    "fmt",
    default="text",
    show_default=True,
    type=click.Choice(["text", "json"]),
)


class _Main(click.Group):
    """The command group: a monomial past the exponent limit of packed
    monomials (``polynomials``) or a coefficient past the digit limit of
    printing (``fields``), wherever it arises, is malformed input."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (_ExponentLimitError, _DigitLimitError) as exc:
            _input_error(str(exc))


@click.group(cls=_Main)
def main() -> None:
    """Decision procedures for schemes presented by charts and patches."""


# -- ring -------------------------------------------------------------------------


@main.group()
def ring() -> None:
    """Normal forms and inversion in a presented algebra."""


@ring.command("show")
@RING_OPTION
@ORDER_OPTION
@FORMAT_OPTION
def ring_show(ring_text: str, order: MonomialOrder, fmt: str) -> None:
    """Print the presentation and its reduced basis."""
    A = _parse_algebra_text(ring_text, order)
    payload = {
        "field": repr(A.field),
        "vars": list(A.ring.names),
        "relations": [str(r) for r in A.relations],
        "reduced_basis": [str(b) for b in A.gb.basis],
    }
    if fmt == "json":
        _emit_json(payload)
        return
    click.echo(f"field: {payload['field']}")
    click.echo(f"vars: {', '.join(payload['vars']) or '(none)'}")
    click.echo(f"relations: {', '.join(payload['relations']) or '(none)'}")
    click.echo(f"reduced basis: {', '.join(payload['reduced_basis']) or '(none)'}")


@ring.command("nf")
@click.argument("expr")
@RING_OPTION
@ORDER_OPTION
def ring_nf(expr: str, ring_text: str, order: MonomialOrder) -> None:
    """Normal form of EXPR modulo the relations."""
    A = _parse_algebra_text(ring_text, order)
    value = _parse_element(expr, A, "EXPR")
    click.echo(str(value))


@ring.command("invert")
@click.argument("expr")
@RING_OPTION
@ORDER_OPTION
def ring_invert(expr: str, ring_text: str, order: MonomialOrder) -> None:
    """Invert EXPR, printing the inverse and the checked identity."""
    A = _parse_algebra_text(ring_text, order)
    value = _parse_element(expr, A, "EXPR")
    inv = A.try_invert(value)
    if inv is None:
        _refute(f"not invertible: {value} has no inverse modulo the relations")
    click.echo(f"inverse: {inv}")
    click.echo(f"check: ({value}) * ({inv}) = {value * inv}")


# -- ideal ------------------------------------------------------------------------


@main.group()
def ideal() -> None:
    """Ideal and radical membership with certificates."""


@ideal.command("member")
@click.argument("f")
@click.argument("gens", nargs=-1, required=True)
@RING_OPTION
@ORDER_OPTION
@click.option("--radical", is_flag=True, help="Test radical membership.")
def ideal_member(
    f: str, gens: Tuple[str, ...], ring_text: str, order: MonomialOrder, radical: bool
) -> None:
    """Decide whether F lies in the ideal (or radical) of GENS."""
    A = _parse_algebra_text(ring_text, order)
    f_el = _parse_element(f, A, "F")
    g_els = [_parse_element(g, A, f"GENS[{k}]") for k, g in enumerate(gens)]
    if radical:
        _refute_outside("not a member: ", A, [f_el], g_els)
        identity = _power_certificate(A, f_el, g_els)
        if identity is None:
            click.echo("member of the radical (power certificate exceeds the cap)")
        else:
            click.echo(f"member of the radical\n{identity}")
        return
    gb = GroebnerBasis(A.ring, tuple(g.poly for g in g_els) + A.relations)
    cof = gb.member(f_el.poly)
    if cof is None:
        _refute(
            f"not a member: normal form of {f_el} modulo the ideal is "
            f"{gb.normal_form(f_el.poly)}"
        )
    click.echo("member")
    click.echo(_fmt_identity(A, str(f_el), cof, g_els))


# -- lattice ----------------------------------------------------------------------


@main.group()
def lattice() -> None:
    """Order and operations in the lattice of basic opens."""


def _lattice_command(name: str, doc: str, answer) -> None:
    """Register ``lattice NAME U V``: parse both opens of ``--ring`` and
    print ``answer(A, u, v)``."""

    @lattice.command(name, help=doc)
    @click.argument("u_text", metavar="U")
    @click.argument("v_text", metavar="V")
    @RING_OPTION
    @ORDER_OPTION
    def command(u_text, v_text, ring_text, order) -> None:
        A = _parse_algebra_text(ring_text, order)
        click.echo(answer(A, _parse_open(u_text, A, "U"), _parse_open(v_text, A, "V")))


def _lattice_order(A: PresentedAlgebra, pairs: Sequence[Tuple[ZarElement, ZarElement]]) -> str:
    """Return "true" if ``u <= v`` for each ``(u, v)`` of ``pairs``; else
    refute with the first generator of a u outside the radical of its v."""
    for u, v in pairs:
        _refute_outside("false: ", A, u.generators, v.generators)
    return "true"


_lattice_command(
    "leq",
    "Decide U <= V; on refusal print a witness generator.",
    lambda A, u, v: _lattice_order(A, [(u, v)]),
)
_lattice_command(
    "eq",
    "Decide U = V; on refusal print a witness generator and side.",
    lambda A, u, v: _lattice_order(A, [(u, v), (v, u)]),
)
_lattice_command("join", "Print the canonical form of U v V.", lambda _, u, v: str(join(u, v)))
_lattice_command("meet", "Print the canonical form of U ^ V.", lambda _, u, v: str(meet(u, v)))


# -- glue and scheme ----------------------------------------------------------------


def _scheme_summary(X: LatticeScheme, fmt: str) -> None:
    n_patches = len(X.patches)
    payload = {
        "charts": [repr(A) for A in X.charts],
        "patches": n_patches,
        "overlaps": [],
    }
    for i in range(X.ncharts):
        for j in range(i + 1, X.ncharts):
            payload["overlaps"].append(
                {
                    "pair": [i, j],
                    "in_chart_i": str(X.overlap(i, j)),
                    "in_chart_j": str(X.overlap(j, i)),
                }
            )
    if fmt == "json":
        _emit_json({"valid": True, **payload})
        return
    click.echo(f"valid: {X.ncharts} chart(s), {n_patches} patch(es)")
    for k, A in enumerate(X.charts):
        click.echo(f"chart {k}: {A!r}")
    for row in payload["overlaps"]:
        i, j = row["pair"]
        click.echo(
            f"overlap {i}~{j}: {row['in_chart_i']} | {row['in_chart_j']}"
        )


@main.group()
def glue() -> None:
    """Gluing-data validation."""


@main.group()
def scheme() -> None:
    """Scheme-level reports: validation, sections, hull comparison, restriction."""


@click.command()
@click.argument("data_path", metavar="DATA")
@ORDER_OPTION
@FORMAT_OPTION
def validate_data(data_path, order, fmt) -> None:
    """Validate DATA (patch isomorphisms, agreements, cocycle identity) and
    print the chart/overlap summary."""
    X = _load_scheme(data_path, order)
    _scheme_summary(X, fmt)


glue.add_command(validate_data, "check")
scheme.add_command(validate_data, "validate")


@scheme.command("sections")
@click.argument("data_path", metavar="DATA")
@click.argument("family_path", metavar="FAMILY")
@ORDER_OPTION
def scheme_sections(data_path, family_path, order) -> None:
    """Check that FAMILY's chart values agree on overlaps (a global section)."""
    values, _ = _load_section(family_path, _load_scheme(data_path, order), "")
    click.echo("global section: " + "; ".join(str(v) for v in values))


@scheme.command("eta")
@click.argument("data_path", metavar="DATA")
@click.option(
    "--sections",
    "section_paths",
    multiple=True,
    required=True,
    help="Family file(s); their supports generate the hull-side open.",
)
@click.option(
    "--against",
    "against_paths",
    multiple=True,
    help="Second list of family files to compare against.",
)
@ORDER_OPTION
def scheme_eta(data_path, section_paths, against_paths, order) -> None:
    """Carry global sections through the affine-hull comparison map.

    Prints the compact open where the listed sections are jointly
    invertible; with --against, decides whether the two lists are
    identified by the map.
    """
    X = _load_scheme(data_path, order)
    hull_open = affine_hull_map(X)
    u = hull_open([_load_section(path, X, f"{path} is ")[1] for path in section_paths])
    click.echo(f"hull image: {_fmt_compact(u)}")
    if against_paths:
        v = hull_open([_load_section(path, X, f"{path} is ")[1] for path in against_paths])
        click.echo(f"against: {_fmt_compact(v)}")
        if u.eq(v):
            click.echo("identified: true")
        else:
            _refute("identified: false")


@scheme.command("restrict")
@click.argument("data_path", metavar="DATA")
@click.argument("open_text", metavar="OPEN")
@ORDER_OPTION
@FORMAT_OPTION
def scheme_restrict(data_path, open_text, order, fmt) -> None:
    """Restrict the scheme to OPEN ("D(..); D(..)", one per chart)."""
    X = _load_scheme(data_path, order)
    parts = [p.strip() for p in open_text.split(";")]
    if len(parts) != X.ncharts:
        _input_error(
            f"OPEN: need one basic open per chart ({X.ncharts}), got {len(parts)}"
        )
    comps = [
        _parse_open(part, X.charts[k], f"OPEN[{k}]")
        for k, part in enumerate(parts)
    ]
    u = CompactOpen(X, comps)
    try:
        Xu = restrict_scheme(u)
    except ExtractionCapError as exc:
        _refute(f"restriction failed: {exc}")
    _scheme_summary(Xu, fmt)


# -- points -----------------------------------------------------------------------


@main.command("points")
@click.argument("data_path", metavar="DATA")
@click.option("--over", required=True, help='Fields, e.g. "GF(2),GF(3)".')
@ORDER_OPTION
@FORMAT_OPTION
def points_cmd(data_path, over, order, fmt) -> None:
    """Enumerate the points of DATA over each finite field."""
    X = _load_scheme(data_path, order)
    payload = {}
    for B in _test_fields(over, X):
        rows = []
        for p in eval_points(X, B):
            for (_, chart, phi) in p.factors:
                rows.append((chart, tuple(str(v) for v in phi.images)))
        rows.sort()
        payload[repr(B.field)] = rows
    if fmt == "json":
        _emit_json(
            {
                name: [{"chart": c, "images": list(imgs)} for (c, imgs) in rows]
                for name, rows in payload.items()
            }
        )
        return
    for name, rows in payload.items():
        click.echo(f"over {name}: {len(rows)} point(s)")
        for (c, imgs) in rows:
            click.echo(f"  chart {c}: ({', '.join(imgs)})")


# -- cover-check --------------------------------------------------------------------


@main.command("cover-check")
@click.argument("pieces", nargs=-1, required=True)
@RING_OPTION
@ORDER_OPTION
@click.option(
    "--on",
    "on_text",
    default="1",
    show_default=True,
    help="Basic open D(ON) that the pieces must cover.",
)
def cover_check(pieces, ring_text, order, on_text) -> None:
    """Decide D(ON) <= D(PIECES...) and print the power certificate."""
    A = _parse_algebra_text(ring_text, order)
    piece_els = [
        _parse_element(p, A, f"PIECES[{k}]") for k, p in enumerate(pieces)
    ]
    on_el = _parse_element(on_text, A, "--on")
    _refute_outside("does not cover: ", A, [on_el], piece_els)
    click.echo("covers")
    click.echo(_power_certificate(A, on_el, piece_els) or "(power certificate exceeds the cap)")


# -- locality-check -----------------------------------------------------------------


@main.command("locality-check")
@click.argument("data_path", metavar="DATA")
@click.option(
    "--test-algebra",
    "algebra_path",
    required=True,
    help="JSON algebra file for the test algebra B.",
)
@click.option(
    "--pieces",
    "pieces_text",
    required=True,
    help='Comma-separated cover of B, e.g. "e,1-e".',
)
@ORDER_OPTION
def locality_check(data_path, algebra_path, pieces_text, order) -> None:
    """Check the equalizer condition for the points functor along a cover of B."""
    X = _load_scheme(data_path, order)
    B = _algebra_from_spec(_load_spec(algebra_path, "algebra")[1], algebra_path, order)
    if B.field != X.charts[0].field:
        _input_error(
            f"{algebra_path}: field {B.field!r} does not match the chart field "
            f"{X.charts[0].field!r}"
        )
    piece_els = [
        _parse_element(part.strip(), B, f"--pieces[{k}]")
        for k, part in enumerate(pieces_text.split(","))
    ]
    try:
        B._stairs()  # points over B are enumerated: B must be finite over GF(p)
    except ValueError as exc:
        _input_error(f"{algebra_path}: {exc}")
    try:
        verdict = check_locality(X, B, piece_els)
    except ValueError as exc:
        _refute(f"locality check refused: {exc}")
    if not verdict:
        _refute(
            "not local: matching families along the cover do not correspond "
            "one-to-one with points"
        )
    click.echo(
        f"local: points over {B!r} are exactly the matching families along "
        f"D({', '.join(str(p) for p in piece_els)})"
    )


# -- compare ----------------------------------------------------------------------


@main.command("compare")
@click.argument("data_path", metavar="DATA")
@click.option("--over", required=True, help='Fields, e.g. "GF(2),GF(3)".')
@ORDER_OPTION
@FORMAT_OPTION
def compare_cmd(data_path, over, order, fmt) -> None:
    """Compare the two presentations of DATA over each test field.

    For each field: enumerate the functor's points and read one table of
    sample values per point, which decides that each point carries a local
    morphism, that the roundtrip recovers it and that distinct points carry
    distinct morphisms; then check the realization certificate.
    """
    X = _load_scheme(data_path, order)
    tests = _test_fields(over, X)
    ok, report = comparison_check(X, tests)
    if fmt == "json":
        _emit_json({"ok": ok, "report": report})
        if not ok:
            sys.exit(1)
        return
    for B, entry in zip(tests, report["per_algebra"]):
        bij = (
            entry["count"]
            if entry["morphisms_valid"] and entry["roundtrip"] and entry["distinct"]
            else "?"
        )
        click.echo(f"over {B.field!r}: {bij} = {entry['count']}")
    click.echo(f"realization: {report['realization']}")
    if not ok:
        witnesses = [e["witness"] for e in report["per_algebra"] if "witness" in e]
        _refute("REFUTED" + (": " + "; ".join(witnesses) if witnesses else ""))
    click.echo("VERIFIED")


if __name__ == "__main__":  # pragma: no cover
    main()
