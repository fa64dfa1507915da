"""The zariski benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload groebner_kernel --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding ``src/zariski``).
Each workload is one closed-loop client in a fresh Python process, with
no threads.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from a separate traced process.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 when every answer checked out, 1 on
a wrong answer or a broken run, 2 when the sources are missing.

``--workload all`` runs the four workloads in turn and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from zbench import metrics, workloads  # noqa: E402
from zbench.workloads import NAMES  # noqa: E402

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
RUN_DIR = ".perfbench_run"


class RunError(RuntimeError):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([HERE, os.path.join(root, "src")])
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(root: str, rundir: str, tag: str, *args: str) -> dict:
    out = os.path.join(rundir, f"{tag}.json")
    cmd = [sys.executable, "-m", "zbench.worker", "--out", out, *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=_env(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{tag}: worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunError(f"{tag}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def twin_ops(name: str, traced_ops: int) -> int:
    """The untraced twin replays the first quarter of the traced run's ops,
    in whole rounds: enough to price the tracing, at a quarter of the cost."""
    round_len = workloads.load(name).ROUND_LEN
    rounds = traced_ops // round_len
    return round_len * max(1, rounds // 4) if rounds else traced_ops


def run_workload(root: str, name: str, seed: int, seconds: int, trace: int) -> dict:
    rundir = os.path.join(root, RUN_DIR, f"{name}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        common = ["--workload", name, "--seed", str(seed)]
        if not trace:
            setups = [
                _worker(root, rundir, f"setup{k}", *common, "--mode", "setup")
                for k in range(SETUP_REPEATS)
            ]
            run = _worker(
                root, rundir, "stream", *common, "--mode", "stream",
                "--seconds", str(seconds),
            )
            return metrics.end_to_end(name, run, setups)
        traced = _worker(
            root, rundir, "traced", *common, "--mode", "stream",
            "--seconds", str(seconds), "--trace", "1",
        )
        twin = _worker(
            root, rundir, "twin", *common, "--mode", "stream",
            "--max-ops", str(twin_ops(name, traced["attempted"])),
        )
        probe = _worker(root, rundir, "cliprobe", *common, "--mode", "cliprobe")
        return metrics.per_layer(name, traced, twin, probe)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, RUN_DIR))
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    for need in ("src/zariski/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, need)):
            print(
                f"perfbench: {need} not found under {root}; run from the root "
                "of a zariski checkout",
                file=sys.stderr,
            )
            return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
            metrics.print_report(name, results[name])
            infinite = [k for k, m in results[name]["metrics"].items() if math.isinf(m["value"])]
            if infinite:
                raise RunError(f"{name}: {', '.join(infinite)} fell on failed ops")
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    final = metrics.final_line(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
