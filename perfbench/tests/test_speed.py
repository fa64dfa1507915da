"""Reading times at the reference speed."""

import pytest

from zbench import speed

REF = speed.REF_NS


def test_an_op_is_read_by_the_samples_on_either_side():
    samples = [(0, REF), (100, 3 * REF), (200, REF), (300, REF)]
    ops = [(10, 50), (110, 80), (310, 40)]
    # [0, 100] between REF and 3 REF: median 2 REF; [100, 200] likewise;
    # after the last sample only the one before counts
    assert speed.scale(ops, samples) == [25.0, 40.0, 40.0]


def test_a_run_is_read_by_its_median_sample_when_asked():
    samples = [(0, REF), (40, 9 * REF), (100, REF), (160, REF)]
    ops = [(50, 20)]
    assert speed.scale(ops, samples) == [20 / 5]  # 40 and 100: median 5 REF
    assert speed.scale(ops, samples, whole_run=True) == [20.0]


def test_set_up_is_read_by_the_median_of_its_samples():
    assert speed.at_reference(0.3, [REF, 2 * REF, 2 * REF, 9 * REF]) == 0.15
    with pytest.raises(ValueError):
        speed.scale([(0, 1)], [])


def test_the_kernel_is_sampled_between_ops_at_most_every_interval():
    meter = speed.Speedometer()
    meter.tick()
    meter.tick()  # due only after INTERVAL_NS
    assert len(meter.samples) == 1
    (at, ns), = meter.samples
    assert ns > 0 and speed.kernel() == len({
        tuple(a + b for a, b in zip(m1, m2))
        for m1, _ in speed._LEFT for m2, _ in speed._RIGHT
    })
