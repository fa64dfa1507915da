"""Turn worker results into the named metrics of BENCHMARK.json."""

from __future__ import annotations

from typing import Dict, List

from . import speed, workloads
from .stats import median, percentile

# name -> unit, for --trace 0.  ops_ok_frac is 1 - (wrong, raising or
# timed-out ops) / attempted: the failure share, turned so it is never 0.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ops_per_s": "1/s",
    "ops_ok_frac": "frac",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = (
    "lattice_leq",
    "ideal_member",
    "ring_invert",
    "cover_check",
    "glue_check",
    "points",
    "compare",
)

# name -> unit, for --trace 1.
PER_LAYER = {
    "fields.calls": "count",
    "polynomials.mul.calls": "count",
    "polynomials.self_ms": "ms",
    "groebner.bases.calls": "count",
    "groebner.unit_tests.calls": "count",
    "groebner.divide.calls": "count",
    "groebner.basis_len_max": "count",
    "groebner.self_ms": "ms",
    "parsing.self_ms": "ms",
    "algebra.self_ms": "ms",
    "algebra.radical_member.calls": "count",
    "algebra.radical_member.hit_ratio": "frac",
    "algebra.make_localization.calls": "count",
    "algebra.enumerate_homs.candidates": "count",
    "algebra.enumerate_homs.kept": "count",
    "algebra.enumerate_elements.elements": "count",
    "lattice.self_ms": "ms",
    "sheaf.self_ms": "ms",
    "latscheme.self_ms": "ms",
    "funscheme.self_ms": "ms",
    "funscheme.idempotent_atoms.calls": "count",
    "funscheme.idempotent_atoms.self_ms": "ms",
    "funscheme.is_reduced.self_ms": "ms",
    "compare.self_ms": "ms",
    "compare.morphisms_agree.calls": "count",
    "compare.morphisms_agree.self_ms": "ms",
    "compare.realization_certificate.self_ms": "ms",
    "funscheme.idempotent_atoms.total_ms": "ms",
    "compare.morphisms_agree.total_ms": "ms",
    "bench.op.total_ms": "ms",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "cache.loc.entries": "count",
    "cache.affine.entries": "count",
    "cache.reduced.entries": "count",
    "cache.restrict.entries": "count",
    "cache.realization.entries": "count",
    "cache.member_gbs.entries": "count",
    "cache.radical_memo.entries": "count",
    "bench.self_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}

# Span names behind the per-function metrics.
_CALLS = {
    "polynomials.mul.calls": ("polynomials.Poly.__mul__",),
    "groebner.bases.calls": ("groebner.GroebnerBasis.__init__",),
    "groebner.unit_tests.calls": (
        "groebner.ideal_contains_one",
        "groebner.unit_ideal_certificate",
    ),
    "groebner.divide.calls": ("groebner.divide",),
    "algebra.make_localization.calls": ("algebra.make_localization",),
    "funscheme.idempotent_atoms.calls": ("funscheme.idempotent_atoms",),
    "compare.morphisms_agree.calls": ("compare.morphisms_agree",),
}
_SELF = {
    "funscheme.idempotent_atoms.self_ms": "funscheme.idempotent_atoms",
    "funscheme.is_reduced.self_ms": "funscheme.is_reduced",
    "compare.morphisms_agree.self_ms": "compare.morphisms_agree",
    "compare.realization_certificate.self_ms": "compare.realization_certificate",
}
_LAYER_SELF = (
    "polynomials",
    "groebner",
    "parsing",
    "algebra",
    "lattice",
    "sheaf",
    "latscheme",
    "funscheme",
    "compare",
    "cli",
    "bench",
)


def _m(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, run: Dict, setups: List[Dict]) -> Dict:
    """The end-to-end metrics of one stream and its set-up processes.

    Times are read at the reference speed (``speed``): each op's wall time
    is scaled by the kernel samples taken around it, each set-up by the
    samples its process took just before and after it.  The raw wall-time
    figures go into ``notes``.
    """
    whole_run = getattr(workloads.load(name), "SPEED_WHOLE_RUN", False)
    scaled = speed.scale(list(zip(run["op_start_ns"], run["op_ns"])), run["kernel"], whole_run)
    lat = [None if v is None else s / 1e6 for v, s in zip(run["latencies_ns"], scaled)]
    raw = [None if v is None else v / 1e6 for v in run["latencies_ns"]]
    attempted = run["attempted"]
    bad = sum(1 for v in lat if v is None)
    good = attempted - bad
    peak_kb = run["peak_kb"]
    if name == "cli_session":  # the work happens in the CLI processes
        peak_kb = max(peak_kb, run["child_peak_kb"])
    values = {
        "setup_s": median(
            [speed.at_reference(s["setup_s"], s["setup_kernel_ns"]) for s in setups]
        ),
        "latency_p50_ms": percentile(lat, 0.50),
        "latency_p95_ms": percentile(lat, 0.95),
        "ops_per_s": good / (sum(scaled) / 1e9),
        "ops_ok_frac": good / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    return {
        "correct": run["wrong"] == 0,
        "attempted": attempted,
        "failed": bad,
        "metrics": {k: _m(values[k], END_TO_END[k]) for k in END_TO_END},
        "notes": {
            "samples": attempted,
            "ops_failed_frac": bad / attempted,
            "errors": run["errors"],
            "problems": run["problems"],
            "setup_samples_s": [s["setup_s"] for s in setups],
            "wall": {
                "setup_s": median([s["setup_s"] for s in setups]),
                "latency_p50_ms": percentile(raw, 0.50),
                "latency_p95_ms": percentile(raw, 0.95),
                "ops_per_s": good / (run["stream_ns"] / 1e9),
            },
            "kernel_ms": median([k for _, k in run["kernel"]]) / 1e6,
            "kernel_samples": len(run["kernel"]),
        },
    }


def per_layer(name: str, traced: Dict, twin: Dict, probe: Dict) -> Dict:
    tr = traced["trace"]
    self_ns, calls = tr["self_ns"], tr["calls"]
    values: Dict[str, float] = {}
    values["fields.calls"] = tr["field_calls"]
    for metric, spans in _CALLS.items():
        values[metric] = sum(calls.get(s, 0) for s in spans)
    for metric, span in _SELF.items():
        values[metric] = self_ns.get(span, 0) / 1e6
    by_layer = dict.fromkeys(_LAYER_SELF, 0)
    for span, ns in self_ns.items():
        layer = span.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += ns
    for span, ns in tr["total_ns"].items():
        values[f"{span}.total_ms"] = ns / 1e6
    for layer, ns in by_layer.items():
        values[f"{layer}.self_ms"] = ns / 1e6
    total, clean = tr["radical_member"]
    values["algebra.radical_member.calls"] = total
    values["algebra.radical_member.hit_ratio"] = clean / total if total else 0.0
    values.update(tr["counters"])
    for stem, n in tr["caches"].items():
        values[f"cache.{stem}.entries"] = n
    values["cli.import_ms"] = probe["import_ms"]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}_ms"] = probe["subcommand_ms"][sub]
    values["trace.spans"] = tr["spans"]
    # the twin replayed a prefix of the traced ops: compare the same prefix
    prefix_ns = sum(traced["op_ns"][: twin["attempted"]])
    values["trace.overhead_frac"] = prefix_ns / twin["stream_ns"] - 1.0
    return {
        "correct": traced["wrong"] == 0 and twin["wrong"] == 0,
        "attempted": traced["attempted"],
        "failed": sum(1 for v in traced["latencies_ns"] if v is None),
        "metrics": {k: _m(values.get(k, 0), PER_LAYER[k]) for k in PER_LAYER},
        "notes": {
            "samples": traced["attempted"],
            "errors": traced["errors"],
            "problems": traced["problems"] + twin["problems"],
        },
    }


def print_report(name: str, result: Dict) -> None:
    notes = result["notes"]
    print(f"== {name}: {notes['samples']} ops sampled, {result['failed']} failed"
          f"{'' if result['correct'] else ', WRONG ANSWERS'}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
    if "ops_failed_frac" in notes:
        print(f"  {'(ops_failed_frac)':42s} {notes['ops_failed_frac']:14.6g} frac")
    if "wall" in notes:
        print(f"  times above are at the reference speed; the reference kernel took "
              f"{notes['kernel_ms']:.4g} ms here ({speed.REF_NS / 1e6:.4g} ms there, "
              f"{notes['kernel_samples']} samples).  Raw wall times:")
        for metric, value in notes["wall"].items():
            print(f"  {'(wall ' + metric + ')':42s} {value:14.6g} {END_TO_END[metric]}")
    for label, n in notes["errors"].items():
        print(f"  failed op {label} x{n}")
    for text in notes["problems"]:
        print(f"  WRONG {text}")


def final_line(results: Dict[str, Dict]) -> Dict:
    if len(results) == 1:
        (only,) = results.values()
        return {k: only[k] for k in ("correct", "attempted", "failed", "metrics")}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m
            for name, r in results.items()
            for metric, m in r["metrics"].items()
        },
    }
