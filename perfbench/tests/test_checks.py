"""The independent checks catch wrong answers, and a wrong answer fails
the run."""

import copy
import itertools
import os

from zbench import metrics, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _answered(name, n):
    wl = workloads.load(name)
    fx = wl.setup(ROOT)
    fx["trace"] = False
    ops = list(itertools.islice(wl.script(2), n))
    answers = [wl.answer(op, wl.prepare(op, fx)(), fx) for op in ops]
    return wl, fx, ops, answers


def test_groebner_checks_pass_and_catch_a_tampered_basis():
    wl = workloads.load("groebner_kernel")
    fx = wl.setup(ROOT)
    op = next(
        op for op in wl.script(2)
        if op["kind"] == "gb" and op["mode"] == "basis" and op["nvars"] == 3
    )
    answer = wl.answer(op, wl.prepare(op, fx)(), fx)
    assert wl.check([op], [answer], fx, 2) == []
    basis, cofactors = copy.deepcopy(answer)
    first = basis[0]
    first[next(iter(first))] += 1
    problems = wl.check([op], [(basis, cofactors)], fx, 2)
    assert [key for key, _ in problems] == [op["key"]] * len(problems) and problems


def test_lattice_checks_catch_a_wrong_glue():
    wl, fx, ops, answers = _answered("lattice_sheaf", 3)
    assert ops[2]["kind"] == "glue"
    assert wl.check(ops, answers, fx, 2) == []
    wrong = dict(answers[2])
    wrong[(0, 0)] = wrong.get((0, 0), 0) + 1
    assert wl.check(ops[2:], [wrong], fx, 2)


def test_points_checks_use_independent_counts():
    from zbench.oracle import load_oracles
    from zbench.workloads.points_compare import expected_count

    oracles = load_oracles(ROOT)
    assert expected_count(oracles, "P1", [49]) == 50
    assert expected_count(oracles, "A2", [25]) == 625
    assert expected_count(oracles, "PP", [3, 3]) == 64
    wl, fx, ops, answers = _answered("points_compare", 2)
    assert wl.check(ops, answers, fx, 2) == []
    assert wl.check(ops[:1], [answers[0] + 1], fx, 2)


def test_cli_certificates_are_read_back():
    from zbench.workloads.cli_session import parse_printed

    assert parse_printed("3*x^2 - 1/2*x*y + 4", ("x", "y"), 0) == {
        (2, 0): 3, (1, 1): -0.5, (0, 0): 4,
    }
    assert parse_printed("-x + 4", ("x",), 5) == {(1,): 4, (0,): 4}


def test_a_wrong_answer_fails_the_run():
    from zbench import speed

    ref = speed.REF_NS
    run = {
        "latencies_ns": [1_000_000] * 199 + [None],
        "op_ns": [1_000_000] * 200,
        "op_start_ns": [2_000_000 * i for i in range(200)],
        # the kernel ran at twice its reference time: the host was slow
        "kernel": [(2_000_000 * i + 1_500_000, 2 * ref) for i in range(200)],
        "attempted": 200,
        "wrong": 1,
        "stream_ns": 200_000_000,
        "peak_kb": 10240,
        "child_peak_kb": 0,
        "errors": {},
        "problems": ["k: wrong"],
    }
    setups = [{"setup_s": s, "setup_kernel_ns": [ref] * 4} for s in (0.1, 0.2, 0.3)]
    result = metrics.end_to_end("groebner_kernel", run, setups)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["ops_ok_frac"]["value"] == 199 / 200
    assert result["metrics"]["setup_s"]["value"] == 0.2
    assert result["metrics"]["latency_p50_ms"]["value"] == 0.5
    assert result["metrics"]["ops_per_s"]["value"] == 199 / (200 * 0.5e-3)
    assert result["notes"]["wall"]["latency_p50_ms"] == 1.0
    assert metrics.final_line({"groebner_kernel": result})["correct"] is False


def test_cli_checks_pass_and_catch_a_wrong_verdict():
    wl = workloads.load("cli_session")
    fx = wl.setup(ROOT)
    try:
        ops = list(itertools.islice(wl.script(4), wl.ROUND_LEN))
        answers = [wl.answer(op, wl.prepare(op, fx)(), fx) for op in ops]
        assert wl.check(ops, answers, fx, 4) == []
        code, out = answers[1]  # ideal member --radical, with a certificate
        wrong = (code, out.replace("member of the radical", "member"))
        assert wl.check(ops[1:2], [wrong], fx, 4)
    finally:
        wl.teardown(fx)
