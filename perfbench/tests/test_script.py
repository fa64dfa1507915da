import itertools

import pytest

from zbench import workloads

N = 200


def _ops(name, seed, n=N):
    return list(itertools.islice(workloads.load(name).script(seed), n))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_ops(name):
    assert _ops(name, 7) == _ops(name, 7)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_same_mix_and_sizes_other_data(name):
    wl = workloads.load(name)
    a, b = _ops(name, 7), _ops(name, 8)
    assert [wl.signature(op) for op in a] == [wl.signature(op) for op in b]
    assert a != b


def test_lattice_stream_repeats_a_quarter_and_keeps_the_known_defect():
    from zbench.workloads import lattice_sheaf as ls

    ops = _ops("lattice_sheaf", 5, 640)
    repeats = sum(op["repeat"] for op in ops)
    assert repeats == sum(
        1 for i in range(640)
        if i % ls.REPEAT_EVERY == ls.REPEAT_EVERY - 1 and (i + 1) % ls.KNOWN_FAILURE_EVERY
    )
    known = [op for op in ops if op["kind"] == "known"]
    assert len(known) == 640 // ls.KNOWN_FAILURE_EVERY
    assert known[0]["text"] == "known t + 1 over D(t) @ QQ[t]/(t^2 - 2)"


def test_points_stream_keeps_the_known_defect():
    from zbench.workloads import points_compare as pc

    ops = _ops("points_compare", 5, pc.ROUND_LEN)
    known = [op for op in ops if (op["kind"], op["scheme"], op["p"], op["alg"]) == pc.KNOWN]
    assert len(known) == 1 and known[0]["B"]["factors"] == [9]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_run_is_whole_rounds_of_at_least_200_ops(name):
    from zbench.worker import MIN_OPS, ops_for

    wl = workloads.load(name)
    for seconds in (1, 15, 60):
        n = ops_for(wl, seconds)
        assert n >= MIN_OPS and n % wl.ROUND_LEN == 0
    assert ops_for(wl, 600) > ops_for(wl, 1)
