"""The command-line parsing and output lines of ``tools/bench_pairs.py``, with
no benchmark run, the two reports of ``tools/uncalled.py`` on small synthetic
modules and on the paper's verifiers, without the traced suite, the file
``tools/ladder.py`` writes, on a one-rung dry run and on a two-pair run of
one rung against itself, its glued-scheme and strata rungs on one run
each, and its seeded dense text and covers."""

import importlib.util
import json
import os
import textwrap
import time

import pytest

import zariski
from support import projective_space
from zariski.fields import GF
from zariski.groebner import unit_ideal_certificate
from zariski.parsing import parse_poly, parse_ring

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", os.path.join(HERE, os.pardir, "tools", "bench_pairs.py"))
uncalled = _load("uncalled", os.path.join(HERE, os.pardir, "tools", "uncalled.py"))
ladder = _load("ladder", os.path.join(HERE, os.pardir, "tools", "ladder.py"))


def test_a_comma_list_names_one_table_per_workload():
    args = bench_pairs.parse_args([
        "parent", "change", "--workload", "points_compare,lattice_sheaf,groebner_kernel",
        "--seeds", "8101-8103,8110",
    ])
    assert args.workload == ["points_compare", "lattice_sheaf", "groebner_kernel"]
    assert args.seeds == [8101, 8102, 8103, 8110]
    assert (args.parent, args.change, args.seconds) == ("parent", "change", 6)


def test_one_workload_is_a_list_of_one():
    args = bench_pairs.parse_args(["a", "b", "--workload", "points_compare", "--seeds", "1,5"])
    assert args.workload == ["points_compare"]


@pytest.mark.parametrize(
    "argv",
    [
        ["a", "b", "--workload", "points_compare,", "--seeds", "1-2"],
        ["a", "b", "--workload", "points_compare", "--seeds", "7"],
        ["a", "b", "--seeds", "1-2"],
    ],
    ids=["empty-name", "one-seed", "no-workload"],
)
def test_bad_arguments_exit_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_a_seed_line_shows_throughput_and_both_latencies():
    par = {"ops_per_s": 934.25, "latency_p50_ms": 0.2097, "latency_p95_ms": 4.4, "setup_s": 1.0}
    chg = {"ops_per_s": 951.0, "latency_p50_ms": 0.19714, "latency_p95_ms": 4.35, "setup_s": 1.0}
    assert bench_pairs.seed_line("points_compare", 8101, par, chg) == (
        "points_compare seed 8101: ops_per_s 934.2 -> 951, "
        "latency_p50_ms 0.2097 -> 0.1971, latency_p95_ms 4.4 -> 4.35"
    )


SYNTH = textwrap.dedent(
    """\
    import functools


    def called():
        return helper()


    def helper():
        return 1


    def never():
        return 2


    @functools.lru_cache(maxsize=None)
    def decorated_never():
        return 3


    class Box:
        def __setattr__(self, name, value):
            raise AttributeError("Box is immutable")

        def used(self):
            def inner():
                return 4

            return inner()

        def unused(self):
            return 5
    """
)


def test_the_uncalled_report_names_each_function_that_never_ran(tmp_path):
    path = tmp_path / "synth.py"
    path.write_text(SYNTH)
    synth = _load("synth", str(path))
    ran = uncalled.trace(lambda: (synth.called(), synth.Box().used()), [])[0]
    lines, ok = uncalled.report([str(path)], ran, {"*.__setattr__": "guard"})
    assert lines == [
        "synth:12 never",
        "synth:16 decorated_never",
        "synth:22 Box.__setattr__  (allowed: guard)",
        "synth:31 Box.unused",
    ]
    assert not ok
    allowed = {"never": "a", "decorated_never": "b", "Box.*": "c"}
    assert uncalled.report([str(path)], ran, allowed)[1]


LINES = textwrap.dedent(
    """\
    def branch(x):
        \"\"\"Which way x goes.\"\"\"
        if x:
            y = 1
        else:
            y = 2
        return y


    def refuse(x):
        if x < 0:
            raise ValueError(
                "negative")
        return x


    class Box:
        size = 3

        def __eq__(self, other):
            if not isinstance(other, Box):
                return NotImplemented
            return True

        def __repr__(self):
            return "Box"

        def total(self, xs):
            return sum(
                x for x in xs)


    def never():
        return 5
    """
)


def test_the_statement_report_names_each_statement_that_never_ran(tmp_path):
    """Docstrings, refusals, ``return NotImplemented``, display bodies and
    class attributes are left out; a statement that spans lines ran when
    any of its lines did."""
    path = tmp_path / "lines.py"
    path.write_text(LINES)
    mod = _load("lines", str(path))
    called, ran = uncalled.trace(
        lambda: (mod.branch(1), mod.refuse(1), mod.Box() == mod.Box(), mod.Box().total([1, 2])), [str(path)]
    )
    assert (os.path.realpath(path), 1) in called
    lines, ok = uncalled.statement_report([str(path)], ran, {"never: *": "kept on purpose"})
    assert lines == ["lines:6 branch: y = 2", "lines:34 never: return 5  (allowed: kept on purpose)"]
    assert not ok
    assert uncalled.statement_report([str(path)], ran, {"branch: y = 2": "a", "never: *": "b"})[1]


def test_the_statement_report_covers_the_package_but_the_cli():
    files = [os.path.basename(f) for f in uncalled.statement_files()]
    assert "funscheme.py" in files and "cli.py" not in files and "paper.py" not in files


def test_the_uncalled_report_covers_the_paper_verifiers():
    """``tests/paper.py`` is traced with the package, so a verifier of the
    paper that no test calls is reported and fails the check."""
    paper = os.path.join(HERE, "paper.py")
    files = [os.path.realpath(f) for f in uncalled.traced_files()]
    assert os.path.realpath(paper) in files
    lines, ok = uncalled.report([paper], set(), uncalled.ALLOWED)
    assert any(line.startswith("paper:") and line.endswith(" qcqs_lemma_check") for line in lines)
    assert not ok


def test_a_one_rung_ladder_run_writes_the_bench_schema(tmp_path):
    """One run of the cheapest rung writes a file with the commit, the
    speed kernel's reference, and the rung's median and quartiles at that
    reference, in well under a second."""
    out = tmp_path / "BENCH_dry.json"
    t0 = time.perf_counter()
    report = ladder.main(["--rung", "pow_x1_400_gf32003", "--runs", "1", "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert json.loads(out.read_text()) == report
    assert set(report) == {"sha", "src_differs_from_sha", "python", "runs", "ref_ns", "rungs"}
    assert report["runs"] == 1 and report["ref_ns"] > 0
    (row,) = report["rungs"]
    assert set(row) == {"name", "layer", "what", "median_ms", "q1_ms", "q3_ms", "raw_median_ms", "kernel_median_ns"}
    assert (row["name"], row["layer"]) == ("pow_x1_400_gf32003", "polynomials")
    assert 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"] and row["raw_median_ms"] > 0


def test_the_glued_scheme_rungs_run_once_on_the_projective_space_of_the_tests(tmp_path):
    """``validate_p3_gf3`` and ``realize_top_p3_gf3`` run once each, on the
    P^3 over GF(3) that ``tests/support.py`` builds: 4 charts and 6 patches,
    each stored once, facing its lower chart."""
    out = tmp_path / "BENCH_dry.json"
    rungs = ["validate_p3_gf3", "realize_top_p3_gf3"]
    report = ladder.main(["--rung", rungs[0], "--rung", rungs[1], "--runs", "1", "--out", str(out)])
    assert [(row["name"], row["layer"]) for row in report["rungs"]] == [(r, "latscheme") for r in rungs]
    assert all(row["median_ms"] > 0 for row in report["rungs"])
    X = zariski.LatticeScheme(*ladder.projective_space(zariski, 3, 3))
    Y = projective_space(GF(3), 3)
    assert X.charts == Y.charts and len(X.patches) == 6
    assert [(p.i, p.j, p.f, p.g, p.fwd, p.bwd) for p in X.patches] == [
        (p.i, p.j, p.f, p.g, p.fwd, p.bwd) for p in Y.patches
    ]


def test_the_strata_rungs_run_once_and_count_their_points(tmp_path):
    """``points_pp_gf49``, ``points_p3_gf9`` and ``points_p1_gf5t4`` run
    once each, and their inputs have the points their descriptions name:
    49^2 - 1 = 2,400 on the punctured plane, (9^4 - 1)/8 = 820 on P^3, and
    5^4 + 5^3 = 750 on P^1 over the local ring GF(5)[t]/(t^4)."""
    out = tmp_path / "BENCH_dry.json"
    rungs = ["points_pp_gf49", "points_p3_gf9", "points_p1_gf5t4"]
    report = ladder.main([arg for r in rungs for arg in ("--rung", r)] + ["--runs", "1", "--out", str(out)])
    assert [(row["name"], row["layer"]) for row in report["rungs"]] == [(r, "funscheme") for r in rungs]
    assert all(row["median_ms"] > 0 for row in report["rungs"])
    assert [len(ladder.RUNGS[r][2](zariski)()) for r in rungs] == [2400, 820, 750]


def test_a_two_pair_ladder_run_writes_both_files_with_their_pairs(tmp_path):
    """``--against`` with this checkout on both sides, on one rung and two
    pairs, writes the change's file and the parent's beside it, each with
    the rung's row over the two pairs and the same ``pairs`` record, in
    under 2 s."""
    root = os.path.join(HERE, os.pardir)
    sha = ladder.git(root, "rev-parse", "--short", "HEAD")
    if sha is None:
        pytest.skip("pairs compare git checkouts")
    out = tmp_path / "BENCH_change.json"
    t0 = time.perf_counter()
    report = ladder.main(["--root", root, "--against", root, "--pairs", "2", "--runs", "1",
                          "--rung", "pow_x1_400_gf32003", "--out", str(out)])
    assert time.perf_counter() - t0 < 2.0
    parent = json.loads((tmp_path / f"BENCH_{sha}.json").read_text())
    assert json.loads(out.read_text()) == report and report["sha"] == parent["sha"] == sha
    assert set(report) == set(parent) == {"sha", "src_differs_from_sha", "python", "runs", "ref_ns", "rungs", "pairs"}
    assert [row["name"] for row in report["rungs"] + parent["rungs"]] == ["pow_x1_400_gf32003"] * 2
    (pair,) = report["pairs"]
    assert parent["pairs"] == report["pairs"]
    assert set(pair) == {"name", "pairs", "ratio", "wins", "gap_ms", "parent_iqr_ms"}
    assert (pair["name"], pair["pairs"]) == ("pow_x1_400_gf32003", 2) and 0 <= pair["wins"] <= 2
    assert pair["ratio"] > 0 and pair["gap_ms"] >= 0 and pair["parent_iqr_ms"] >= 0


def test_the_dense_rung_is_one_fixed_text_of_three_cubics():
    """``basis_dense3_qq`` reads the same seeded text on every run: three
    polynomials of degree 3 with 8 terms each in x0..x2 over QQ."""
    text = ladder.dense_text("QQ", 3, 3, 3, 8, 3)
    assert text == ladder.dense_text("QQ", 3, 3, 3, 8, 3) != ladder.dense_text("QQ", 3, 3, 3, 8, 4)
    ring, gens = parse_ring(text)
    assert ring.names == ("x0", "x1", "x2") and repr(ring.field) == "QQ"
    assert [(len(g.terms), g.total_degree()) for g in gens] == [(8, 3)] * 3


def test_the_cover_rung_reads_fixed_covers_of_pieces_that_are_no_units():
    """``cover_certs_qq2`` reads the same 20 seeded covers on every run:
    each is three linear pieces over QQ[x,y] that generate the unit ideal,
    the first two vanishing at (0, 0) and the third at (1, 0)."""
    texts = ladder.cover_texts(20, 1)
    assert len(texts) == 20 and texts == ladder.cover_texts(20, 1) != ladder.cover_texts(20, 2)
    ring, _ = parse_ring("QQ[x,y]")
    zero, one = ring.zero, ring.one
    for cover in texts:
        f, g, h = (parse_poly(t, ring) for t in cover)
        assert [p.total_degree() for p in (f, g, h)] == [1, 1, 1]
        origin, far = [zero, zero], [one, zero]
        assert f.substitute(origin, ring) == g.substitute(origin, ring) == h.substitute(far, ring) == zero
        assert unit_ideal_certificate([f, g, h], ring) is not None


def test_the_ladder_refuses_an_unknown_rung_and_no_runs(capsys):
    for argv in (["--rung", "nope"], ["--runs", "0"]):
        with pytest.raises(SystemExit) as exc:
            ladder.parse_args(argv)
        assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_the_ladder_refuses_pairs_without_quartiles(capsys):
    with pytest.raises(SystemExit) as exc:
        ladder.parse_args(["--against", ".", "--pairs", "1"])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err
