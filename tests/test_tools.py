"""The command-line parsing and output lines of ``tools/bench_pairs.py``; no
benchmark runs."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(HERE, os.pardir, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


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
