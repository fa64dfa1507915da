"""One workload process: set up, run the closed-loop op stream, check.

Run as ``python -m zbench.worker`` with ``perfbench`` and ``src`` on
``PYTHONPATH`` and the checkout root as the working directory; ``run.py``
does this.  The result is written as JSON to ``--out``.

Modes:
- ``setup``: import zariski and build the workload's fixed objects, once;
- ``stream``: set up, then send the ops that ``--seconds`` buys at the
  reference speed (``ops_for``), one at a time, or exactly ``--max-ops`` ops for
  the untraced twin of a traced run.  Then check every answer;
- ``cliprobe``: time each CLI subcommand and the import of ``zariski.cli``
  in fresh processes (every traced run does this).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

from .limits import timed_call
from .stats import min_samples
from . import speed, workloads

# Enough samples for ten beyond the 95th percentile.
MIN_OPS = min_samples(0.95)
STREAM_CAP_S = 75.0
SPANS_DIR = ".perfbench_run"
# Kernel samples on each side of a set-up, to read it at the reference speed.
SETUP_SAMPLES = 8


def _setup(wl, root: str, trace: bool):
    t0 = time.perf_counter()
    import zariski  # noqa: F401  (the import is part of set-up time)

    tracer = None
    if trace:
        from .tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fx = wl.setup(root)
    elapsed = time.perf_counter() - t0
    fx["trace"] = trace
    return elapsed, fx, tracer


def ops_for(wl, seconds: float) -> int:
    """Ops in a run: whole rounds, as many as take ``seconds`` at the
    reference speed (``ROUND_S``, see ``speed``), and at least ``MIN_OPS``.

    A fixed amount of work, not a time budget: every run of a workload
    answers the same mix of ops, whatever the machine's speed that minute.
    """
    rounds = max(math.ceil(MIN_OPS / wl.ROUND_LEN), round(seconds / wl.ROUND_S))
    return rounds * wl.ROUND_LEN


def run_stream(wl, seed: int, n_ops: int, fx, tracer) -> dict:
    """Send ``n_ops`` ops one at a time, stopping early only at
    ``STREAM_CAP_S``, so a run stays bounded whatever a change does."""
    stream = wl.script(seed)
    ops = []
    firsts = {}  # key -> index into ops of the first answer to that input
    answers = {}
    records = []  # (key, elapsed_ns, error text or None)
    starts = []  # perf_counter_ns just before each op
    speedo = speed.Speedometer()
    speedo.tick()
    wrong_repeat = []
    cap = time.perf_counter() + STREAM_CAP_S
    for i in range(n_ops):
        if time.perf_counter() > cap:
            break
        op = next(stream)
        ops.append(op)
        call = wl.prepare(op, fx)
        starts.append(time.perf_counter_ns())
        if tracer is not None:
            with tracer.span("bench.op"):
                ns, result, err = timed_call(call, wl.LIMIT_S)
        else:
            ns, result, err = timed_call(call, wl.LIMIT_S)
        key = op["key"]
        if err is not None:
            records.append((key, ns, f"{type(err).__name__}: {str(err)[:120]}"))
        else:
            ans = wl.answer(op, result, fx)
            result = None
            if key not in firsts:
                firsts[key] = i
                answers[key] = ans
            elif answers[key] != ans:
                wrong_repeat.append(key)
            records.append((key, ns, None))
        speedo.tick()
    speedo.tick(force=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "ops": ops,
        "firsts": firsts,
        "answers": answers,
        "records": records,
        "starts": starts,
        "kernel": speedo.samples,
        "wrong_repeat": wrong_repeat,
        "peak_kb": peak_kb,
        "child_peak_kb": child_kb,
    }


def check_stream(wl, seed: int, fx, run: dict):
    """Independent checks of each distinct input's first answer.

    Returns (wrong keys, problem strings).  A repeat whose answer differs
    from the first answer to the same input is wrong as well.
    """
    keys = sorted(run["firsts"], key=run["firsts"].get)
    ops = [run["ops"][run["firsts"][k]] for k in keys]
    answers = [run["answers"][k] for k in keys]
    problems = wl.check(ops, answers, fx, seed)
    wrong = {key for key, _ in problems}
    wrong.update(run["wrong_repeat"])
    texts = [f"{key}: {msg}" for key, msg in problems]
    texts += [f"{key}: answer differs from the first answer" for key in run["wrong_repeat"]]
    return wrong, texts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="zbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "stream", "cliprobe"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    root = os.getcwd()
    wl = workloads.load(args.workload)

    if args.mode == "cliprobe":
        from .workloads import cli_session

        out = cli_session.probe(root, args.seed)
        _write(args.out, out)
        return 0

    before = speed.calibrate(SETUP_SAMPLES) if args.mode == "setup" else []
    setup_s, fx, tracer = _setup(wl, root, bool(args.trace))
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        out["setup_kernel_ns"] = before + speed.calibrate(SETUP_SAMPLES)
    try:
        if args.mode == "stream":
            n_ops = args.max_ops or ops_for(wl, args.seconds)
            run = run_stream(wl, args.seed, n_ops, fx, tracer)
            if tracer is not None:
                from . import sweep
                from .tracer import cache_sizes

                caches = cache_sizes()
                sweep.run(tracer)
                tracer.uninstall()
                summaries = [tracer.summary(caches)]
                summaries += getattr(wl, "trace_summaries", lambda fx: [])(fx)
                from .tracer import merge

                out["trace"] = merge(summaries)
                # kept after the run: one file per workload, overwritten
                tracer.log.write(
                    os.path.join(root, SPANS_DIR, f"spans-{args.workload}.bin.gz")
                )
            # The untraced twin repeats the traced run's ops only for timing.
            wrong, problems = (
                (set(), []) if args.max_ops else check_stream(wl, args.seed, fx, run)
            )
            records = run["records"]
            out.update(
                {
                    "latencies_ns": [
                        None if e is not None or k in wrong else ns
                        for k, ns, e in records
                    ],
                    "keys": [k for k, _, _ in records],
                    "op_ns": [ns for _, ns, _ in records],
                    "op_start_ns": run["starts"],
                    "kernel": run["kernel"],
                    "stream_ns": sum(ns for _, ns, _ in records),
                    "attempted": len(records),
                    "failed": sum(1 for _, _, e in records if e is not None),
                    "wrong": sum(1 for k, _, e in records if e is None and k in wrong),
                    "errors": _error_counts(records),
                    "problems": problems[:20],
                    "peak_kb": run["peak_kb"],
                    "child_peak_kb": run["child_peak_kb"],
                }
            )
    finally:
        getattr(wl, "teardown", lambda fx: None)(fx)
    _write(args.out, out)
    return 0


def _error_counts(records) -> dict:
    out = {}
    for key, _, e in records:
        if e is not None:
            label = f"{key}: {e}"
            out[label] = out.get(label, 0) + 1
    return out


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
