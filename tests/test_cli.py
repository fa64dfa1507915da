"""The command-line interface: golden outputs, exit codes, determinism.

Exit convention: 0 verified/answered, 1 mathematical refutation (with a
witness), 2 malformed input (with line/column where applicable).
"""

import json

import pytest
from click.testing import CliRunner

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


def test_ring_normal_form():
    r = invoke("ring", "nf", "x^3", "--ring", "QQ[x]/(x^2-1)")
    assert (r.exit_code, r.output) == (0, "x\n")


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
    payload = dict(AFFINE_GF3)
    payload["schema"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    r = invoke("points", str(path), "--over", "GF(3)")
    assert r.exit_code == 2


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
