"""Spans and counters around zariski's public entry points, from outside.

``Tracer.install()`` wraps, in each zariski module, every public function
and every public method (plus ``__init__``, ``__call__`` and arithmetic
operators) of every public class, except a short list of hot accessors.
Each wrapped call records a span: name, start, end, parent.  A module
function is rebound in every ``zariski.*`` namespace that imported it with
``from .x import f``; a method is rebound on its class.  ``fields`` calls
are too hot for spans and are only counted.

Nothing here is imported by an untraced run, which therefore leaves every
zariski function object untouched.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from typing import Callable, Dict, List, Optional

from .stats import SpanLog, self_time_by, spans_without_descendant, total_time

# Layers, in dependency order; each is a module ``zariski.<name>``.
LAYERS = (
    "fields",
    "polynomials",
    "parsing",
    "groebner",
    "algebra",
    "lattice",
    "sheaf",
    "latscheme",
    "funscheme",
    "compare",
    "cli",
)

# Methods worth a span besides the public ones.
_DUNDERS = {
    "__init__",
    "__call__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__pow__",
    "__neg__",
}

# Accessors whose bodies are a line or two: a span would cost more than
# the call and would only move time from the caller into the wrapper.
_SKIP = {
    "polynomials": {
        "MonomialOrder",
        "PolyRing.monomial_key",
        "PolyRing.from_terms",
        "PolyRing.var",
        "PolyRing.const",
        "PolyRing.var_named",
        "PolyRing.gens",
        "PolyRing.with_vars",
        "PolyRing.with_order",
        "Poly.__init__",
        "Poly.is_zero",
        "Poly.is_constant",
        "Poly.constant_value",
        "Poly.total_degree",
        "Poly.degree_in",
        "Poly.involves",
        "Poly.lead_monomial",
        "Poly.lead_coeff",
        "Poly.sorted_terms",
        "poly_sort_key",
    },
    "algebra": {
        "AlgebraElement.__init__",
        "AlgebraElement.is_zero",
        "PresentedAlgebra.var",
        "PresentedAlgebra.const",
        "PresentedAlgebra.var_named",
        "PresentedAlgebra.gens",
    },
    "lattice": {"ZarElement.__init__", "ZarElement.is_bottom_list"},
    "parsing": {"ParseError"},
}

# Spans that start a Groebner engine.
GB_ENGINES = (
    "groebner.GroebnerBasis.__init__",
    "groebner.ideal_contains_one",
    "groebner.unit_ideal_certificate",
)

# Spans whose inclusive time is reported as well as their self time.
TOTALS = ("funscheme.idempotent_atoms", "compare.morphisms_agree", "bench.op")

# Module-level caches read at the end of a run: metric stem -> (module, name).
CACHES = {
    "loc": ("algebra", "_LOC_CACHE"),
    "affine": ("compare", "_AFFINE_CACHE"),
    "reduced": ("funscheme", "_REDUCED_CACHE"),
    "restrict": ("funscheme", "_RESTRICT_CACHE"),
    "realization": ("funscheme", "_REALIZATION_CACHE"),
}
# Per-algebra memos, summed over every live PresentedAlgebra.
ALGEBRA_MEMOS = {"member_gbs": "_member_gbs", "radical_memo": "_radical_memo"}


class Tracer:
    def __init__(self):
        self.log = SpanLog()
        self._stack: List[int] = [-1]
        self.field_calls = [0]
        self.counters: Dict[str, int] = {
            "algebra.enumerate_homs.candidates": 0,
            "algebra.enumerate_homs.kept": 0,
            "algebra.enumerate_elements.elements": 0,
            "groebner.basis_len_max": 0,
        }
        self._last_elements = 0
        self._installed: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> "_Span":
        """A ``with`` block recorded as a span (for the benchmark's own ops)."""
        return _Span(self, name)

    def _open(self, name_id: int) -> int:
        log = self.log
        sid = len(log.start)
        log.name.append(name_id)
        log.parent.append(self._stack[-1])
        log.end.append(0)
        log.start.append(0)
        self._stack.append(sid)
        log.start[sid] = time.perf_counter_ns()
        return sid

    def _close(self, sid: int) -> None:
        self.log.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, post=None) -> Callable:
        name_id = self.log.name_id(name)
        open_, close = self._open, self._close

        if post is None:

            def wrapper(*args, **kwargs):
                sid = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)

        else:

            def wrapper(*args, **kwargs):
                sid = open_(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(sid)
                post(args, result)
                return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count(self, fn: Callable) -> Callable:
        cell = self.field_calls

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- hooks that count work at a boundary --------------------------------

    def _post_elements(self, args, result):
        self._last_elements = len(result)
        self.counters["algebra.enumerate_elements.elements"] += len(result)

    def _post_homs(self, args, result):
        source = args[0]
        self.counters["algebra.enumerate_homs.candidates"] += (
            self._last_elements ** source.nvars
        )
        self.counters["algebra.enumerate_homs.kept"] += len(result)

    def _post_basis(self, args, result):
        n = len(args[0].basis)
        if n > self.counters["groebner.basis_len_max"]:
            self.counters["groebner.basis_len_max"] = n

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and rebind it wherever it was imported."""
        modules = {
            layer: importlib.import_module(f"zariski.{layer}") for layer in LAYERS
        }
        namespaces = [importlib.import_module("zariski")] + list(modules.values())
        posts = {
            "algebra.PresentedAlgebra.enumerate_elements": self._post_elements,
            "algebra.enumerate_homs": self._post_homs,
            "groebner.GroebnerBasis.__init__": self._post_basis,
        }
        rebind: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            skip = _SKIP.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if layer == "fields":
                        self._count_class(obj)
                    else:
                        self._wrap_class(layer, obj, skip, posts)
                elif callable(obj) and hasattr(obj, "__code__") and layer != "fields":
                    name = f"{layer}.{attr}"
                    rebind[id(obj)] = self._wrap(obj, name, posts.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = rebind.get(id(obj))
                if new is not None:
                    self._installed.append((ns, attr, obj))
                    setattr(ns, attr, new)

    def _wrap_class(self, layer, cls, skip, posts) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if qual in skip:
                continue
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{qual}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, posts.get(name)))
            elif callable(raw) and hasattr(raw, "__code__"):
                new = self._wrap(raw, name, posts.get(name))
            else:
                continue
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, new)

    def _count_class(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, property):
                new = property(self._count(raw.fget))
            elif callable(raw) and hasattr(raw, "__code__"):
                new = self._count(raw)
            else:
                continue
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def summary(self, caches: Optional[Dict[str, int]] = None) -> Dict[str, object]:
        """Raw per-run aggregates; ``merge`` adds several of them up.

        ``caches`` are cache sizes taken earlier; by default, now."""
        log = self.log
        self_ns = self_time_by(log, lambda name: name)
        calls: Dict[str, int] = {}
        for i in log.name:
            name = log.names[i]
            calls[name] = calls.get(name, 0) + 1
        total, clean = spans_without_descendant(
            log, "algebra.PresentedAlgebra.radical_member", GB_ENGINES
        )
        return {
            "self_ns": self_ns,
            "calls": calls,
            "field_calls": self.field_calls[0],
            "counters": dict(self.counters),
            "radical_member": [total, clean],
            "total_ns": {name: total_time(log, name) for name in TOTALS},
            "caches": cache_sizes() if caches is None else caches,
            "spans": len(log),
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name_id = tracer.log.name_id(name)

    def __enter__(self):
        self.sid = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


def cache_sizes() -> Dict[str, int]:
    """Entries in each module-level cache and in the per-algebra memos.

    A cache that a later version renames or removes reads as 0.
    """
    out = {}
    for stem, (layer, attr) in CACHES.items():
        mod = importlib.import_module(f"zariski.{layer}")
        out[stem] = len(getattr(mod, attr, ()))
    algebra = importlib.import_module("zariski.algebra")
    cls = getattr(algebra, "PresentedAlgebra", None)
    sums = dict.fromkeys(ALGEBRA_MEMOS, 0)
    if cls is not None:
        for obj in gc.get_objects():
            if isinstance(obj, cls):
                for stem, attr in ALGEBRA_MEMOS.items():
                    sums[stem] += len(getattr(obj, attr, ()))
    out.update(sums)
    return out


def merge(summaries: List[Dict[str, object]]) -> Dict[str, object]:
    """Add up summaries from several traced processes (the CLI session).

    Times, calls and counts add; maxima and cache sizes take the largest.
    """
    out = {
        "self_ns": {},
        "calls": {},
        "total_ns": {},
        "field_calls": 0,
        "counters": {},
        "radical_member": [0, 0],
        "caches": {},
        "spans": 0,
    }
    for s in summaries:
        for key in ("self_ns", "calls", "total_ns"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, v in s["counters"].items():
            if name.endswith("_max"):
                out["counters"][name] = max(out["counters"].get(name, 0), v)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + v
        for name, v in s["caches"].items():
            out["caches"][name] = max(out["caches"].get(name, 0), v)
        out["field_calls"] += s["field_calls"]
        out["spans"] += s["spans"]
        out["radical_member"][0] += s["radical_member"][0]
        out["radical_member"][1] += s["radical_member"][1]
    return out
