import io
import math

import pytest

from zbench.stats import (
    SpanLog,
    min_samples,
    percentile,
    self_time_by,
    self_times,
    spans_without_descendant,
    total_time,
)


def test_p95_needs_ten_samples_beyond_it():
    assert min_samples(0.95) == 200
    assert min_samples(0.50) == 20
    with pytest.raises(ValueError):
        percentile([1.0] * 199, 0.95)
    values = list(range(1, 201))
    # nearest rank: the 190th of 200 values, with 10 beyond it
    assert percentile(values, 0.95) == 190
    assert sum(1 for v in values if v > percentile(values, 0.95)) == 10
    assert percentile(values, 0.50) == 100


def test_failed_ops_sort_as_infinity():
    values = [float(v) for v in range(1, 201)]
    # ten failures take the top ten ranks: p95 is the largest answered op
    failed = values[:190] + [None] * 10
    assert percentile(failed, 0.95) == 190.0
    # an eleventh failure pushes p95 onto a failure
    assert percentile(values[:189] + [None] * 11, 0.95) == math.inf
    # failures never count as fast, whatever their position
    assert percentile([None] * 10 + values[:190], 0.95) == 190.0
    assert percentile([None] * 100 + values[:100], 0.50) == 100.0


def _tree():
    log = SpanLog()
    root = log.add("a.root", 0, 100)
    child = log.add("b.child", 10, 40, root)
    log.add("c.leaf", 20, 30, child)
    # two overlapping children of root: together they cover [50, 80)
    log.add("b.child", 50, 70, root)
    log.add("c.other", 60, 80, root)
    # a child reaching past its parent's end is clipped to the parent
    log.add("c.late", 95, 120, root)
    return log


def test_self_time_is_duration_minus_child_coverage():
    log = _tree()
    own = list(self_times(log))
    # root: 100 - ([10,40) + [50,80) + [95,100)) = 100 - 65
    assert own == [35, 20, 10, 20, 20, 25]
    by_layer = self_time_by(log, lambda name: name.split(".")[0])
    assert by_layer == {"a": 35, "b": 40, "c": 55}


def test_spans_without_descendant():
    log = _tree()
    # the first b.child contains a c.leaf, the second contains nothing
    assert spans_without_descendant(log, "b.child", ["c.leaf"]) == (2, 1)
    assert spans_without_descendant(log, "b.child", ["missing"]) == (2, 2)
    assert spans_without_descendant(log, "missing", ["c.leaf"]) == (0, 0)


def test_total_time_counts_nested_same_name_once():
    log = _tree()
    log.add("b.child", 52, 60, 3)  # inside the second b.child
    assert total_time(log, "b.child") == 30 + 20
    assert total_time(log, "a.root") == 100
    assert total_time(log, "missing") == 0
    buf = io.BytesIO()
    log.write(buf)
    buf.seek(0)
    back = SpanLog.read(buf)
    assert back.names == log.names
    assert list(back.start) == list(log.start) and list(back.parent) == list(log.parent)
    assert list(self_times(back)) == list(self_times(log))
