"""The four workloads.  Each module defines:

- ``LIMIT_S``: the wall limit of one op;
- ``ROUND_LEN``, ``ROUND_S``: ops in one round of the stream's repeating
  pattern, and that round's time at the reference speed (see ``speed``;
  a run is whole rounds);
- ``SPEED_WHOLE_RUN`` (optional): read ops at the reference speed by the
  run's median kernel sample (``speed.scale``); False when absent;
- ``script(seed)``: the endless op stream, plain data made from the seed;
- ``setup(root)``: imports zariski and builds the fixed objects;
- ``prepare(op, fx)``: turns one op into a zero-argument call;
- ``answer(op, result, fx)``: reads the call's result into plain data;
- ``check(ops, answers, fx, seed)``: independent checks, one problem
  string per wrong answer.

``signature(op)`` names an op's kind and size without its data, so two
seeds can be compared for the same mix.
"""

import importlib

NAMES = ("groebner_kernel", "lattice_sheaf", "points_compare", "cli_session")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return importlib.import_module(f"zbench.workloads.{name}")
