"""The ``zariski`` CLI end to end: one subprocess per call, one at a time.

Each call starts the interpreter on the ``zariski.cli:main`` entry point
(the console script need not be installed), so it pays interpreter start,
the import of every module, click and JSON loading.  A round is seven
calls: ``lattice leq``, ``ideal member --radical``, ``ring invert``,
``cover-check``, ``glue check``, ``points --format json`` and
``compare p1.json --format json``.  Inputs come from per-slot pools of
seeded instances; the gluing files (the projective line over GF(2), GF(3),
GF(5)) are written during set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List

from . import gen, lattice_sheaf

LIMIT_S = 30.0
POOL = 8
ROUND_LEN = 7
ROUND_S = 1.27  # one round's time at the reference speed (see speed.py)
P1_PRIMES = (2, 3, 5)
RUN_DIR = ".perfbench_run"
# Each call runs in a child process, whose speed the kernel samples taken
# in this process between calls do not follow call by call: calls are read
# at the run's median kernel time (see speed.py).
SPEED_WHOLE_RUN = True

ENTRY = "import sys; from zariski.cli import main; sys.argv[0] = 'zariski'; main()"
SHIM = "zbench.cli_shim"

# lattice_sheaf's rings (QQ[x,y], QQ[x]/(x^3-x), GF(5)[x,y]/(x^2+y^2-1))
RINGS = lattice_sheaf.RINGS
# ring invert works in fields GF(p)[x]/(x^2 - c), c a non-square
INVERT_RINGS = [(5, 2), (7, 3), (3, 2)]


def _p1_json(p: int) -> Dict:
    return {
        "schema": 1,
        "kind": "gluedata",
        "charts": [
            {"field": f"GF({p})", "vars": ["t"], "relations": []},
            {"field": f"GF({p})", "vars": ["s"], "relations": []},
        ],
        "patches": [
            {"from": 0, "to": 1, "f": "t", "g": "s", "f_inverse": "v",
             "g_inverse": "w", "forward": ["w"], "backward": ["v"]}
        ],
    }


def _instance(rng: random.Random, shape: random.Random, slot: int, ix: int) -> Dict:
    """Instance ``ix`` of round slot ``slot``, as plain data plus argv.

    ``shape`` (seed-independent) draws sizes, ``rng`` (seeded) the data."""
    r = ix % len(RINGS)
    text, char, names, _ = RINGS[r]
    n = len(names)
    t = lambda p: gen.plain_text(p, names, char)  # noqa: E731
    elem = lambda: lattice_sheaf._elem(rng, char, n, lattice_sheaf._size(shape))  # noqa: E731
    if slot == 0:
        u = [elem() for _ in range(1 + ix % 2)]
        v = [elem() for _ in range(1 + ix % 3)]
        return {"cmd": "lattice_leq", "ring": r, "u": u, "v": v, "argv": [
            "lattice", "leq", lattice_sheaf._open_text(u, names, char),
            lattice_sheaf._open_text(v, names, char), "--ring", text]}
    if slot == 1:
        # f is one generator times another element, so it is a member
        gens = [elem() for _ in range(1 + ix % 2)]
        f = lattice_sheaf._mul(gens[0], elem(), char)
        f = f or gens[0]
        return {"cmd": "ideal_member", "ring": r, "f": f, "gens": gens, "argv": [
            "ideal", "member", "--radical", "--ring", text, "--",
            t(f), *[t(g) for g in gens]]}
    if slot == 2:
        p, c = INVERT_RINGS[ix % len(INVERT_RINGS)]
        f = {(1,): rng.randrange(1, p), (0,): rng.randrange(p)}
        return {"cmd": "ring_invert", "p": p, "c": c, "f": f, "argv": [
            "ring", "invert", gen.plain_text(f, ("x",), p),
            "--ring", f"GF({p})[x]/(x^2 - {c})"]}
    if slot == 3:
        pieces = lattice_sheaf._cover(rng, shape, r, covering=True)
        return {"cmd": "cover_check", "ring": r, "pieces": pieces, "argv": [
            "cover-check", "--ring", text, "--", *[t(q) for q in pieces]]}
    p = P1_PRIMES[ix % len(P1_PRIMES)]
    path = os.path.join(RUN_DIR, "{run}", f"p1_gf{p}.json")
    if slot == 4:
        return {"cmd": "glue_check", "p": p, "argv": ["glue", "check", path]}
    if slot == 5:
        return {"cmd": "points", "p": p, "argv": [
            "points", path, "--over", f"GF({p})", "--format", "json"]}
    return {"cmd": "compare", "p": p, "argv": [
        "compare", path, "--over", f"GF({p})", "--format", "json"]}


def script(seed: int):
    """The op stream, endless; same seed, same ops."""
    rng = random.Random(f"cli_session/{seed}")
    shape = random.Random("cli_session/shapes")
    pools = [
        [_instance(rng, shape, s, ix) for ix in range(POOL)] for s in range(ROUND_LEN)
    ]
    rnd = 0
    while True:
        for s in range(ROUND_LEN):
            op = pools[s][rnd % POOL]
            yield dict(op, key=f"{op['cmd']}/{rnd % POOL}")
        rnd += 1


def signature(op: Dict) -> tuple:
    degrees = tuple(
        max(sum(m) for m in p)
        for k in ("u", "v", "gens")
        if k in op
        for p in op[k]
    )
    return (op["cmd"], len(op["argv"]), degrees)


# -- running ------------------------------------------------------------------


def _env(root: str) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "perfbench"), os.path.join(root, "src")]
    )
    return env


def setup(root: str) -> Dict:
    importlib.import_module("zariski")
    run = f"cli-{os.getpid()}"
    rundir = os.path.join(root, RUN_DIR, run)
    os.makedirs(rundir, exist_ok=True)
    for p in P1_PRIMES:
        with open(os.path.join(rundir, f"p1_gf{p}.json"), "w", encoding="utf-8") as fh:
            json.dump(_p1_json(p), fh)
    return {"root": root, "run": run, "rundir": rundir, "env": _env(root),
            "trace": False, "calls": 0}


def teardown(fx: Dict) -> None:
    shutil.rmtree(fx["rundir"], ignore_errors=True)


def _call(argv: List[str], fx: Dict, summary: str = "") -> tuple:
    if summary:
        cmd = [sys.executable, "-m", SHIM, "--summary", summary, "--", *argv]
    else:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    proc = subprocess.run(
        cmd, cwd=fx["root"], env=fx["env"], capture_output=True, text=True,
        timeout=LIMIT_S,
    )
    if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.returncode, proc.stdout


def prepare(op: Dict, fx: Dict):
    argv = [a.replace("{run}", fx["run"]) for a in op["argv"]]
    summary = ""
    if fx["trace"]:
        fx["calls"] += 1
        summary = os.path.join(fx["rundir"], f"trace-{fx['calls']}.json")
    return lambda: _call(argv, fx, summary)


def trace_summaries(fx: Dict) -> List[Dict]:
    out = []
    for name in sorted(os.listdir(fx["rundir"])):
        if name.startswith("trace-"):
            with open(os.path.join(fx["rundir"], name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def answer(op: Dict, result, fx: Dict):
    code, stdout = result
    return (code, stdout)


# -- checks ---------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)(?:/(\d+))?)?\*?((?:[a-z]\w*(?:\^\d+)?\*?)*)$")


def parse_printed(text: str, names, char: int):
    """Read a polynomial as the package prints it (``3*x^2 - 1/2*y + 4``)."""
    text = text.strip()
    out: Dict = {}
    chunks = re.split(r" ([+-]) ", text)
    signs = ["+"] + chunks[1::2]
    for sign, chunk in zip(signs, chunks[0::2]):
        if chunk.startswith("-"):
            sign = "-" if sign == "+" else "+"
            chunk = chunk[1:]
        m = _TERM.match(chunk)
        if m is None:
            raise ValueError(f"cannot read term {chunk!r} of {text!r}")
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        exps = [0] * len(names)
        for factor in filter(None, m.group(3).split("*")):
            var, _, e = factor.partition("^")
            exps[names.index(var)] += int(e) if e else 1
        c = Fraction(num, den) * (-1 if sign == "-" else 1)
        if char:
            c = c.numerator * pow(c.denominator, -1, char) % char
        key = tuple(exps)
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if (c % char if char else c)}


def _identity(line: str):
    """Split ``(lhs)^n = (c1) * (g1) + ...`` into lhs, n, [(c, g)]."""
    lhs, rhs = line.split(" = ", 1)
    m = re.match(r"^\((.*)\)\^(\d+)$", lhs.strip())
    pairs = re.findall(r"\(([^()]*)\) \* \(([^()]*)\)", rhs)
    return m.group(1), int(m.group(2)), pairs


def check(ops: List[Dict], answers: List, fx: Dict, seed: int) -> List:
    from ..oracle import SymRing, load_oracles, radical_member

    oracles = load_oracles(fx["root"])
    problems = []
    for op, (code, out) in zip(ops, answers):
        cmd = op["cmd"]
        lines = out.splitlines()
        bad = None
        if cmd in ("lattice_leq", "ideal_member", "cover_check"):
            _, char, names, rels = RINGS[op["ring"]]
            n = len(names)
            R = SymRing(char, n)
            rel_gb = R.groebner([R.poly(r) for r in rels])

            def reduces_to_zero(plain):
                f = R.poly(plain)
                return not (f.rem(rel_gb) if rel_gb else f)

            if cmd == "lattice_leq":
                want = all(radical_member(char, n, g, op["v"] + rels) for g in op["u"])
                got = code == 0 and lines[:1] == ["true"]
                if want != got or (not got and not (lines and lines[0].startswith("false"))):
                    bad = f"leq printed {lines[:1]}, sympy says {want}"
            else:
                want_head = "member of the radical" if cmd == "ideal_member" else "covers"
                if code != 0 or lines[:1] != [want_head] or len(lines) < 2:
                    bad = f"expected {want_head!r} with a certificate, got {lines[:2]}"
                else:
                    lhs, power, pairs = _identity(lines[1].replace(" (modulo the relations)", ""))
                    f = parse_printed(lhs, names, char)
                    want_f = op["f"] if cmd == "ideal_member" else {(0,) * n: 1}
                    inputs = op["gens"] if cmd == "ideal_member" else op["pieces"]
                    combo = R.poly(f) ** power
                    for c_text, g_text in pairs:
                        g = parse_printed(g_text, names, char)
                        if not any(reduces_to_zero(lattice_sheaf._sub(g, h, char)) for h in inputs):
                            bad = f"certificate names {g_text!r}, not an input"
                        combo -= R.poly(parse_printed(c_text, names, char)) * R.poly(g)
                    if not reduces_to_zero(lattice_sheaf._sub(f, want_f, char)):
                        bad = f"certificate is about {lhs!r}, not the input"
                    elif not reduces_to_zero(R.plain(combo)):
                        bad = "certificate does not multiply out"
        elif cmd == "ring_invert":
            p, c = op["p"], op["c"]
            R = SymRing(p, 1)
            if code != 0 or not lines or not lines[0].startswith("inverse: "):
                bad = f"no inverse printed: {lines[:1]}"
            else:
                inv = parse_printed(lines[0][len("inverse: "):], ("x",), p)
                prod = R.poly(op["f"]) * R.poly(inv) - R.one()
                modulus = R.poly({(2,): 1, (0,): (-c) % p})
                if prod.rem([modulus]):
                    bad = f"{lines[0]} is not the inverse of {op['f']}"
        elif cmd == "glue_check":
            if code != 0 or lines[:1] != ["valid: 2 chart(s), 1 patch(es)"]:
                bad = f"glue check printed {lines[:1]}"
        else:
            p = op["p"]
            want = oracles.projective_line_count(p)
            payload = json.loads(out)
            if cmd == "points":
                got = len(payload.get(f"GF({p})", []))
                if code != 0 or got != want:
                    bad = f"{got} points over GF({p}), expected {want}"
            else:
                rep = payload["report"]
                if code != 0 or not payload["ok"] or rep["counts"] != [want] \
                        or rep["realization"] != "ok":
                    bad = f"compare gave ok={payload['ok']} counts={rep['counts']}"
        if bad:
            problems.append((op["key"], bad))
    return problems


# -- the CLI layer probe --------------------------------------------------------

PROBE_REPEATS = 3


def probe(root: str, seed: int) -> Dict:
    """Per-call wall time of each subcommand, and zariski.cli's import time.

    Runs every subcommand of one round ``PROBE_REPEATS`` times in fresh
    untraced processes and ``python -X importtime -c 'import zariski.cli'``
    as often; reports medians in ms.  Every traced run includes it, so the
    CLI layer is timed on every workload.
    """
    from ..stats import median

    fx = setup(root)
    try:
        stream = script(seed)
        round_ops = [next(stream) for _ in range(ROUND_LEN)]
        sub_ms = {}
        for op in round_ops:
            call = prepare(op, fx)
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter_ns()
                call()
                times.append((time.perf_counter_ns() - t0) / 1e6)
            sub_ms[op["cmd"]] = median(times)
        imports = []
        for _ in range(PROBE_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import zariski.cli"],
                cwd=root, env=fx["env"], capture_output=True, text=True, timeout=LIMIT_S,
            )
            imports.append(_import_us(proc.stderr, "zariski.cli") / 1e3)
        return {"subcommand_ms": sub_ms, "import_ms": median(imports)}
    finally:
        teardown(fx)


def _import_us(importtime_log: str, module: str) -> int:
    """Cumulative microseconds of ``module`` in a ``-X importtime`` log."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1])
    raise ValueError(f"{module} not in the import-time log")
