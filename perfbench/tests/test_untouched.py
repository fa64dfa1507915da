"""An untraced run must leave zariski exactly as imported; tracing must
rebind every imported copy and put everything back afterwards."""

import importlib
import os

import pytest

from zbench import workloads
from zbench.tracer import LAYERS, Tracer
from zbench.worker import run_stream

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _snapshot():
    """Identity of every attribute of every zariski module and class."""
    seen = {}
    names = ("zariski",) + tuple(f"zariski.{m}" for m in LAYERS)
    modules = [importlib.import_module(name) for name in names]
    for name, mod in zip(names, modules):
        for attr, obj in vars(mod).items():
            seen[(name, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__.startswith("zariski"):
                for cattr, cobj in vars(obj).items():
                    seen[(name, attr, cattr)] = id(cobj)
    return seen


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_leaves_every_function_untouched(name):
    wl = workloads.load(name)
    fx = wl.setup(ROOT)
    fx["trace"] = False
    before = _snapshot()
    try:
        run = run_stream(wl, seed=1, n_ops=3, fx=fx, tracer=None)
    finally:
        getattr(wl, "teardown", lambda fx: None)(fx)
    assert len(run["records"]) == 3
    assert _snapshot() == before


def test_tracer_rebinds_every_namespace_and_restores_them():
    lattice = importlib.import_module("zariski.lattice")
    sheaf = importlib.import_module("zariski.sheaf")
    package = importlib.import_module("zariski")
    original = lattice.basic_open
    assert sheaf.basic_open is original and package.basic_open is original
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = lattice.basic_open
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert sheaf.basic_open is wrapped and package.basic_open is wrapped
        A = package.PresentedAlgebra(package.PolyRing(package.QQ, ["x", "y"]))
        x, y = A.gens()
        assert lattice.leq(lattice.basic_open(A, [x * y]), lattice.basic_open(A, [x]))
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    summary = tracer.summary()
    assert summary["calls"]["lattice.leq"] == 1
    assert summary["radical_member"] == [1, 0]  # one query, one Groebner run
    assert summary["field_calls"] > 0
    assert sum(summary["self_ns"].values()) > 0
