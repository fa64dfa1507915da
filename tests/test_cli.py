"""The command-line interface: golden outputs, exit codes, determinism.

Exit convention: 0 verified/answered, 1 mathematical refutation (with a
witness), 2 malformed input (with line/column where applicable).
"""

import json
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from zariski.cli import main


P1_GF3 = {
    "schema": 1,
    "kind": "gluedata",
    "charts": [
        {"field": "GF(3)", "vars": ["t"], "relations": []},
        {"field": "GF(3)", "vars": ["s"], "relations": []},
    ],
    "patches": [
        {
            "from": 0,
            "to": 1,
            "f": "t",
            "g": "s",
            "f_inverse": "v",
            "g_inverse": "w",
            "forward": ["w"],
            "backward": ["v"],
        }
    ],
}

AFFINE_GF3 = {
    "schema": 1,
    "kind": "algebra",
    "field": "GF(3)",
    "vars": ["x"],
    "relations": [],
}

AFFINE_QQ = dict(AFFINE_GF3, field="QQ")

CONST2 = {"schema": 1, "kind": "family", "values": ["2", "2"]}
BADFAM = {"schema": 1, "kind": "family", "values": ["t", "s"]}
B_DOUBLE = {
    "schema": 1,
    "kind": "algebra",
    "field": "GF(3)",
    "vars": ["e"],
    "relations": ["e^2 - e"],
}
B_DOUBLE_NILPOTENT = dict(B_DOUBLE, vars=["t", "e"], relations=["t^2", "e^2 - e"])


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, payload in [
        ("p1.json", P1_GF3),
        ("affine.json", AFFINE_GF3),
        ("affine_qq.json", AFFINE_QQ),
        ("const2.json", CONST2),
        ("badfam.json", BADFAM),
        ("double.json", B_DOUBLE),
        ("double_nilpotent.json", B_DOUBLE_NILPOTENT),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


# -- lattice ----------------------------------------------------------------------


def test_lattice_order_verified():
    r = invoke("lattice", "leq", "D(x)", "D(x,y)", "--ring", "QQ[x,y]")
    assert (r.exit_code, r.output) == (0, "true\n")


def test_lattice_order_refuted_with_witness():
    r = invoke("lattice", "leq", "D(x,y)", "D(x)", "--ring", "QQ[x,y]")
    assert r.exit_code == 1
    assert r.output == "false: y is not in the radical of (x)\n"


def test_lattice_equality_sees_radicals():
    r = invoke("lattice", "eq", "D(x^2)", "D(x)", "--ring", "QQ[x]")
    assert (r.exit_code, r.output) == (0, "true\n")


def test_lattice_operations_print_canonical_generators():
    r = invoke("lattice", "join", "D(x)", "D(y)", "--ring", "QQ[x,y]")
    assert (r.exit_code, r.output) == (0, "D(y, x)\n")
    r2 = invoke("lattice", "meet", "D(x)", "D(y)", "--ring", "QQ[x,y]")
    assert (r2.exit_code, r2.output) == (0, "D(x*y)\n")


# -- ring -------------------------------------------------------------------------


def test_ring_show_prints_the_presentation_and_its_basis():
    r = invoke("ring", "show", "--ring", "GF(5)[x,y]/(x^2-y,y^2-1)")
    assert (r.exit_code, r.output) == (
        0,
        "field: GF(5)\n"
        "vars: x, y\n"
        "relations: x^2 + 4*y, y^2 + 4\n"
        "reduced basis: y^2 + 4, x^2 + 4*y\n",
    )
    r = invoke("ring", "show", "--ring", "GF(5)[x,y]/(x^2-y,y^2-1)", "--format", "json")
    assert r.exit_code == 0
    assert json.loads(r.output) == {
        "field": "GF(5)",
        "vars": ["x", "y"],
        "relations": ["x^2 + 4*y", "y^2 + 4"],
        "reduced_basis": ["y^2 + 4", "x^2 + 4*y"],
    }


def test_ring_normal_form():
    r = invoke("ring", "nf", "x^3", "--ring", "QQ[x]/(x^2-1)")
    assert (r.exit_code, r.output) == (0, "x\n")
    r = invoke("ring", "nf", "7^100000000", "--ring", "GF(7)[x]")  # zero, raised at once
    assert (r.exit_code, r.output) == (0, "0\n")


def test_ring_inverse_with_check_line():
    r = invoke("ring", "invert", "x", "--ring", "GF(5)[x]/(x*x-2)")
    assert (r.exit_code, r.output) == (0, "inverse: 3*x\ncheck: (x) * (3*x) = 1\n")


def test_ring_inverse_refused_for_non_units():
    r = invoke("ring", "invert", "x", "--ring", "QQ[x]")
    assert r.exit_code == 1
    assert r.output == "not invertible: x has no inverse modulo the relations\n"


# -- ideal ------------------------------------------------------------------------


def test_radical_membership_prints_a_power_certificate():
    r = invoke("ideal", "member", "x", "x^2", "--radical", "--ring", "QQ[x]")
    assert (r.exit_code, r.output) == (0, "member of the radical\n(x)^2 = (1) * (x^2)\n")


def test_plain_membership_prints_cofactors():
    r = invoke("ideal", "member", "x^2*y + y", "x^2+1", "--ring", "QQ[x,y]")
    assert (r.exit_code, r.output) == (0, "member\nx^2*y + y = (y) * (x^2 + 1)\n")


def test_plain_membership_refuted_with_normal_form():
    r = invoke("ideal", "member", "x", "x^2", "--ring", "QQ[x]")
    assert r.exit_code == 1
    assert r.output == "not a member: normal form of x modulo the ideal is x\n"


# -- malformed input -----------------------------------------------------------------


def test_parse_errors_exit_2_with_line_and_column():
    r = invoke("ring", "nf", "x + * 2", "--ring", "QQ[x]")
    assert r.exit_code == 2
    assert (
        "Error: EXPR: expected a polynomial factor, found '*' (line 1, column 5)"
        in r.stderr
    )
    r = invoke("ring", "nf", "1/0", "--ring", "QQ[x]")
    assert r.exit_code == 2
    assert "Error: EXPR: zero denominator (line 1, column 3)" in r.stderr


def test_the_exponent_limit_exits_2():
    """An exponent past ``2**31`` is malformed input: at its ``^`` token in
    the parser, and wherever a product passes the limit later."""
    r = invoke("ideal", "member", "x^3000000000", "x", "--ring", "QQ[x,y]")
    assert r.exit_code == 2
    assert "Error: F: monomial x^3000000000 is past the exponent limit" in r.stderr
    assert "(line 1, column 3)" in r.stderr
    r = invoke("ideal", "member", "x^2000000000*x^2000000000", "x", "--ring", "QQ[x,y]")
    assert r.exit_code == 2
    assert "Error: monomial x^4000000000 is past the exponent limit" in r.stderr


def test_a_coefficient_past_the_digit_limit_exits_2():
    """A coefficient too long for Python's int-to-text conversion is
    malformed input: one line names the limit, and no traceback follows."""
    line = (
        "Error: a coefficient is past the digit limit: integers print with at most "
        f"{sys.get_int_max_str_digits()} digits\n"
    )
    for args in (
        ("ring", "nf", "2^10000000", "--ring", "QQ[x]"),
        ("ring", "show", "--ring", "QQ[x]/(x - 2^20000)", "--format", "json"),
    ):
        r = invoke(*args)
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", line), args


def test_missing_files_exit_2(tmp_path):
    r = invoke("glue", "check", str(tmp_path / "nope.json"))
    assert r.exit_code == 2


def test_unknown_json_fields_exit_2(tmp_path):
    payload = dict(AFFINE_GF3)
    payload["extra"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    r = invoke("points", str(path), "--over", "GF(3)")
    assert r.exit_code == 2
    assert "extra" in r.stderr


def test_wrong_schema_version_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    # True and 1.0 compare equal to 1 in Python, but are not the integer 1
    for schema in (2, True, 1.0):
        path.write_text(json.dumps(dict(AFFINE_GF3, schema=schema)))
        r = invoke("points", str(path), "--over", "GF(3)")
        assert r.exit_code == 2, schema
        path.write_text(json.dumps(dict(P1_GF3, schema=schema)))
        r = invoke("glue", "check", str(path))
        assert r.exit_code == 2, schema
        assert f"Error: {path}: schema must be 1" in r.stderr


def test_field_mismatch_exits_2(files):
    r = invoke("points", files["p1.json"], "--over", "GF(5)")
    assert r.exit_code == 2


@pytest.mark.parametrize("command", ["points", "compare"])
def test_points_over_qq_are_refused_as_input_errors(files, command):
    for scheme in ("affine_qq.json", "affine.json"):
        r = invoke(command, files[scheme], "--over", "QQ")
        assert r.exit_code == 2, r.output
        assert "--over: QQ is not a finite field" in r.output


# -- schemes --------------------------------------------------------------------------


def test_glue_check_summarizes_charts_and_overlaps(files):
    r = invoke("glue", "check", files["p1.json"])
    assert r.exit_code == 0
    assert r.output == (
        "valid: 2 chart(s), 1 patch(es)\n"
        "chart 0: GF(3)[t]\n"
        "chart 1: GF(3)[s]\n"
        "overlap 0~1: D(t) | D(s)\n"
    )


def test_broken_gluing_is_refuted(tmp_path):
    payload = json.loads(json.dumps(P1_GF3))
    payload["patches"][0]["backward"] = ["t"]  # not the inverse transition
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    r = invoke("glue", "check", str(path))
    assert r.exit_code == 1
    assert r.output == (
        "invalid gluing data: Patch(0->1: D(t) ~ D(s)): transition maps are "
        "not mutually inverse (backward(forward(t)) = y)\n"
    )


def test_a_transition_that_does_not_invert_f_is_refuted(tmp_path):
    payload = json.loads(json.dumps(P1_GF3))
    payload["patches"][0]["forward"] = ["s+1"]  # t -> s + 1 leaves 1/t unmapped
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    r = invoke("glue", "check", str(path))
    assert r.exit_code == 1
    assert r.output == (
        "invalid gluing data: s + 1 is not invertible in GF(3)[s, y]/(s*y + 2); "
        "cannot extend through the localization\n"
    )


def _replaced(doc, path, value):
    """A copy of the JSON document ``doc`` with the value at ``path`` (a
    sequence of keys and indices) replaced by ``value``."""
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


MALFORMED_GLUEDATA = [
    (("charts", 0), 5, "charts[0]: must be an object"),
    (("patches", 0), "x", "patches[0]: must be an object"),
    (("patches",), 5, "patches: must be a list"),
    (("charts", 0, "relations"), "t", "charts[0].relations: must be a list of polynomials"),
    (("charts", 0, "relations"), 5, "charts[0].relations: must be a list of polynomials"),
    (("patches", 0, "f"), 1, "patches[0].f: must be a string"),
    (("patches", 0, "g"), None, "patches[0].g: must be a string"),
    (("patches", 0, "forward", 0), 1, "patches[0].forward[0]: must be a string"),
    (("patches", 0, "backward", 0), ["v"], "patches[0].backward[0]: must be a string"),
    (("patches", 0, "from"), True, "patches[0].from: chart index out of range"),
    (("patches", 0, "to"), True, "patches[0].to: must name a different chart"),
    (("charts", 0, "vars"), ["1t"], "charts[0].vars: variable name '1t' is not an identifier"),
    (("charts", 0, "vars"), ["t", "t"], "charts[0].vars: duplicate variable names"),
    (
        ("charts", 1, "field"),
        "GF(5)",
        "charts[1].field: GF(5) does not match chart 0's field GF(3)",
    ),
]


@pytest.mark.parametrize(
    "path, value, message",
    MALFORMED_GLUEDATA,
    ids=[".".join(map(str, p)) + f"={v!r}" for p, v, _ in MALFORMED_GLUEDATA],
)
def test_malformed_gluedata_values_exit_2_with_their_path(
    tmp_path, path, value, message
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(P1_GF3, path, value)))
    r = invoke("glue", "check", str(bad))
    assert r.exit_code == 2, (r.output, r.exception)
    assert f"Error: {bad}.{message}" in r.stderr


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("points", dict(AFFINE_GF3, relations="x"), "relations: must be a list of polynomials"),
        ("sections", dict(CONST2, values=[2, "2"]), "values[0]: must be a string"),
    ],
    ids=["algebra-relations", "family-values"],
)
def test_malformed_algebra_and_family_values_exit_2(
    files, tmp_path, command, payload, message
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if command == "points":
        r = invoke("points", str(bad), "--over", "GF(3)")
    else:
        r = invoke("scheme", "sections", files["p1.json"], str(bad))
    assert r.exit_code == 2, (r.output, r.exception)
    assert f"Error: {bad}.{message}" in r.stderr


def _json_paths(doc, prefix=()):
    """The path of ``doc`` and of every value inside it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, prefix + (key,))


# scalars and short containers, with strings that parse in the P1 charts
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.text(max_size=6)
    | st.sampled_from(["t", "s", "v", "w", "0", "1", "t+1", "s^2", "GF(3)", "GF(5)"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=100)
@given(path=st.sampled_from(list(_json_paths(P1_GF3))), value=JSON_VALUES)
def test_no_gluedata_value_ends_in_a_traceback(tmp_path_factory, path, value):
    """Any one value of a valid document replaced by any JSON value gives
    an answer, a refutation or an input error: never an uncaught exception."""
    doc = tmp_path_factory.getbasetemp() / "drawn.json"
    doc.write_text(json.dumps(_replaced(P1_GF3, path, value)))
    r = invoke("glue", "check", str(doc))
    assert r.exception is None or isinstance(r.exception, SystemExit), r.exception
    assert r.exit_code in (0, 1, 2)


def test_sections_verified_and_printed(files):
    r = invoke("scheme", "sections", files["p1.json"], files["const2.json"])
    assert (r.exit_code, r.output) == (0, "global section: 2; 2\n")


def test_incompatible_sections_refuted_with_witness(files):
    r = invoke("scheme", "sections", files["p1.json"], files["badfam.json"])
    assert r.exit_code == 1
    assert r.output == (
        "not a global section: charts 0/1: values over D(1) and D(1) "
        "disagree across the patch at D(t): t vs y\n"
    )


def test_hull_image_of_a_constant_is_everything(files):
    r = invoke("scheme", "eta", files["p1.json"], "--sections", files["const2.json"])
    assert (r.exit_code, r.output) == (0, "hull image: D(2); D(2)\n")


def test_restricting_to_a_chart_open(files):
    r = invoke("scheme", "restrict", files["p1.json"], "D(t); D()")
    assert r.exit_code == 0
    assert r.output == (
        "valid: 1 chart(s), 0 patch(es)\nchart 0: GF(3)[t, y]/(t*y + 2)\n"
    )


# -- points, covers, locality, comparison ----------------------------------------------


def test_point_listing_is_sorted_and_complete(files):
    r = invoke("points", files["p1.json"], "--over", "GF(3)")
    assert r.exit_code == 0
    assert r.output == (
        "over GF(3): 4 point(s)\n"
        "  chart 0: (0)\n"
        "  chart 0: (1)\n"
        "  chart 0: (2)\n"
        "  chart 1: (0)\n"
    )


def test_point_listing_json_is_deterministic(files):
    r1 = invoke("points", files["p1.json"], "--over", "GF(3)", "--format", "json")
    r2 = invoke("points", files["p1.json"], "--over", "GF(3)", "--format", "json")
    assert r1.exit_code == 0
    assert r1.output == r2.output
    payload = json.loads(r1.output)
    assert len(payload["GF(3)"]) == 4
    assert payload["GF(3)"][0] == {"chart": 0, "images": ["0"]}


def test_cover_check_prints_a_partition_certificate(files):
    r = invoke("cover-check", "x", "1-x", "--ring", "GF(3)[x]/(x^2-x)")
    assert r.exit_code == 0
    assert r.output == (
        "covers\n(1)^1 = (1) * (x) + (1) * (2*x + 1) (modulo the relations)\n"
    )


def test_cover_check_refutes_non_covers():
    r = invoke("cover-check", "x", "--ring", "QQ[x]")
    assert r.exit_code == 1
    assert r.output == "does not cover: 1 is not in the radical of (x)\n"


def test_locality_check_reports_the_cover(files):
    r = invoke(
        "locality-check",
        files["p1.json"],
        "--test-algebra",
        files["double.json"],
        "--pieces",
        "e,1-e",
    )
    assert r.exit_code == 0
    assert r.output == (
        "local: points over GF(3)[e]/(e^2 + 2*e) are exactly the matching "
        "families along D(e, 2*e + 1)\n"
    )


def test_locality_check_accepts_a_test_algebra_with_nilpotents(files):
    r = invoke(
        "locality-check",
        files["p1.json"],
        "--test-algebra",
        files["double_nilpotent.json"],
        "--pieces",
        "e,1-e",
    )
    assert (r.exit_code, r.output) == (
        0,
        "local: points over GF(3)[t, e]/(t^2, e^2 + 2*e) are exactly the matching "
        "families along D(e, 2*e + 1)\n",
    )


def test_compare_verifies_the_projective_line(files):
    r = invoke("compare", files["p1.json"], "--over", "GF(3)")
    assert (r.exit_code, r.output) == (
        0,
        "over GF(3): 4 = 4\nrealization: ok\nVERIFIED\n",
    )


def test_compare_json_reports_the_full_bundle(files):
    r = invoke("compare", files["p1.json"], "--over", "GF(3)", "--format", "json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["ok"] is True
    assert payload["report"]["counts"] == [4]
    assert payload["report"]["realization"] == "ok"
