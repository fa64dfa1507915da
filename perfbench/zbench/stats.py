"""Percentiles and span arithmetic, kept free of any zariski import."""

from __future__ import annotations

import gzip
import json
import math
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# A percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND = 10


def min_samples(q: float) -> int:
    """Samples needed before the q-quantile has SAMPLES_BEYOND beyond it."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - q))


def percentile(latencies: Sequence[Optional[float]], q: float) -> float:
    """Nearest-rank q-quantile, with failed ops (``None``) sorted as +inf.

    A failed or timed-out op misses every latency limit, so it counts as
    slower than any answered op.  Raises ``ValueError`` when fewer than
    ``SAMPLES_BEYOND`` samples would lie beyond the quantile, and returns
    ``math.inf`` when the quantile itself falls on a failed op.
    """
    n = len(latencies)
    if n < min_samples(q):
        raise ValueError(
            f"{n} samples leave fewer than {SAMPLES_BEYOND} beyond the "
            f"{q:.2f} quantile; need {min_samples(q)}"
        )
    ordered = sorted(math.inf if v is None else v for v in latencies)
    rank = math.ceil(q * n)  # 1-based nearest rank
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# -- spans ------------------------------------------------------------------


class SpanLog:
    """Spans kept in memory as parallel arrays: name, start, end, parent.

    Times are integer nanoseconds; ``parent`` is the index of the enclosing
    span, or -1 for a root.  Arrays keep a long traced run small.
    """

    def __init__(self):
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")

    def name_id(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = len(self.names)
            self._index[name] = ix
            self.names.append(name)
        return ix

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span and return its index."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write the spans, gzipped: a JSON header line with the name table
        and count, then the raw name, start, end and parent arrays."""
        with gzip.open(path, "wb", compresslevel=1) as fh:
            header = {"names": self.names, "spans": len(self)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                fh.write(arr.tobytes())

    @classmethod
    def read(cls, path: str) -> "SpanLog":
        with gzip.open(path, "rb") as fh:
            header = json.loads(fh.readline())
            log = cls()
            for nm in header["names"]:
                log.name_id(nm)
            n = header["spans"]
            for arr in (log.name, log.start, log.end, log.parent):
                arr.frombytes(fh.read(n * arr.itemsize))
        return log


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another; their union is what is subtracted,
    clipped to the parent's interval.  Returns nanoseconds per span.
    """
    n = len(log)
    start, end, parent = log.start, log.end, log.parent
    covered = array("q", bytes(8 * n))
    reach = array("q", start)  # how far each span's children cover so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], reach[p])
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def self_time_by(
    log: SpanLog, key_of_name
) -> Dict[str, int]:
    """Sum self time (ns) over spans grouped by ``key_of_name(span name)``."""
    own = self_times(log)
    keys = [key_of_name(nm) for nm in log.names]
    out: Dict[str, int] = {}
    for i in range(len(log)):
        k = keys[log.name[i]]
        if k is not None:
            out[k] = out.get(k, 0) + own[i]
    return out


def total_time(log: SpanLog, name: str) -> int:
    """Summed duration (ns) of the spans called ``name``, counting a span
    inside another of the same name once."""
    ix = log._index.get(name)
    if ix is None:
        return 0
    total = 0
    for i in range(len(log)):
        if log.name[i] != ix:
            continue
        p = log.parent[i]
        while p >= 0 and log.name[p] != ix:
            p = log.parent[p]
        if p < 0:
            total += log.end[i] - log.start[i]
    return total


def spans_without_descendant(
    log: SpanLog, outer: str, inner: Iterable[str]
) -> Tuple[int, int]:
    """(number of ``outer`` spans, how many of them contain no ``inner`` span)."""
    inner_ids = {log._index[nm] for nm in inner if nm in log._index}
    outer_id = log._index.get(outer)
    if outer_id is None:
        return 0, 0
    reached = set()
    for i in range(len(log)):
        if log.name[i] in inner_ids:
            p = log.parent[i]
            while p >= 0 and p not in reached:
                reached.add(p)
                p = log.parent[p]
    total = clean = 0
    for i in range(len(log)):
        if log.name[i] == outer_id:
            total += 1
            if i not in reached:
                clean += 1
    return total, clean
