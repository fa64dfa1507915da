"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE \
        --workload points_compare,lattice_sheaf,groebner_kernel \
        --seeds 3001-3010 --seconds 6

For each workload of the comma list, and each seed, it runs the unchanged
``perfbench/run.py`` once in each checkout, one right after the other, and
flips which side goes first from one pair to the next, so a slow minute of
the host falls on both sides.  It then prints one table per workload: for
every end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the ratio of the medians next to the metric's bound, and the
number of pairs the change won.  Quartiles need at least two seeds.  Stdlib
only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{root} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    final = json.loads(lines[-1])
    return {k: m["value"] for k, m in final["metrics"].items()}


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def workloads(text):
    names = text.split(",")
    if not all(names):
        raise argparse.ArgumentTypeError(f"empty name in workload list {text!r}")
    return names


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", type=workloads, required=True,
                    help="one name or a comma list, e.g. points_compare,lattice_sheaf")
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 3001-3010 or 1,5,9")
    ap.add_argument("--seconds", type=int, default=6)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds: need at least two seeds for quartiles")
    return args


def seed_line(workload, seed, par, chg):
    """One pair's throughput and latencies, parent -> change."""
    return f"{workload} seed {seed}: " + ", ".join(
        f"{name} {par[name]:.4g} -> {chg[name]:.4g}"
        for name in ("ops_per_s", "latency_p50_ms", "latency_p95_ms")
    )


def compare_workload(args, workload, better, bound):
    sides = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            sides[side].append(run(getattr(args, side), workload, seed, args.seconds))
        print(seed_line(workload, seed, sides["parent"][-1], sides["change"][-1]), flush=True)
    print(f"{workload}, {len(args.seeds)} pairs: median [quartiles], parent -> change, wins")
    for name, way in better.items():
        par = [r[name] for r in sides["parent"]]
        chg = [r[name] for r in sides["change"]]
        wins = sum((c > p) if way == "higher" else (c < p) for p, c in zip(par, chg))
        (p1, p2, p3), (c1, c2, c3) = quartiles(par), quartiles(chg)
        print(f"  {name:15} {p2:.4g} [{p1:.4g}-{p3:.4g}] -> {c2:.4g} [{c1:.4g}-{c3:.4g}]"
              f"  x{c2 / p2:.3f} (bound {bound[name]}), won {wins}/{len(par)},"
              f" median gap {abs(c2 - p2):.3g}"
              f" vs parent IQR {p3 - p1:.3g}", flush=True)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bound = {m["name"]: m["bound"] for m in metrics}
    for workload in args.workload:
        compare_workload(args, workload, better, bound)


if __name__ == "__main__":
    main()
