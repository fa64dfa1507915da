"""Groebner bases, unit certificates and raw polynomial arithmetic.

One round is a fixed list of slots (kind, field, size), some of them
several times.  Each slot draws
its input from a pool of ``POOL`` seeded instances, round after round, so
the mix and sizes are the same for every seed and only coefficients move.
Half of the Groebner ops ask for certificates (``GroebnerBasis`` with
cofactors, ``unit_ideal_certificate``), half for the verdict only
(``ideal_contains_one``).  katsura-4 and cyclic-5 run in all four of
{GF(32003), QQ} x {certificates, verdict} every round, katsura-4 twice.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

from . import gen

LIMIT_S = 20.0
POOL = 12
# Copies per round: small systems (3 variables, degree 2) eight times,
# medium ones four times, katsura-4 twice and cyclic-5 once in each of its
# four variants: 200 ops, the fewest that give the 95th percentile ten
# samples beyond it.  Both percentiles fall in the middle of a band of
# like ops instead of on the edge between two kinds: the median among the
# degree-5 products, which the small systems and degree-4 products
# undercut; the 95th among the twelve powers, which only the four cyclic-5
# ops exceed.
SMALL_COPIES = 8
MEDIUM_COPIES = 4
KATSURA_COPIES = 2
MUL_COPIES = {4: 16, 5: 72}  # degree of the factors -> products a round
POWS = 12
ROUND_LEN = (
    SMALL_COPIES * 8 + MEDIUM_COPIES * 6 + sum(MUL_COPIES.values()) + POWS
    + 4 * KATSURA_COPIES + 4
)
ROUND_S = 11.8  # one round's time at the reference speed (see speed.py)
P = gen.GF_BIG

# (kind, char, nvars, generators, degree, terms, mode)
_DENSE = [
    (P, 3, 3, 2, 6, "basis"),
    (P, 3, 3, 2, 6, "verdict"),
    (P, 3, 4, 2, 6, "unit_cert"),
    (P, 3, 4, 2, 6, "verdict"),
    (0, 3, 3, 2, 6, "basis"),
    (0, 3, 3, 2, 6, "verdict"),
    (0, 3, 4, 2, 6, "unit_cert"),
    (0, 3, 4, 2, 6, "verdict"),
    (P, 4, 4, 2, 8, "basis"),
    (P, 4, 4, 2, 8, "verdict"),
    (P, 4, 5, 2, 8, "unit_cert"),
    (P, 4, 5, 2, 8, "verdict"),
    (0, 3, 3, 3, 8, "basis"),
    (0, 3, 3, 3, 8, "verdict"),
]
# (nvars, degree, terms) of each factor of a product over QQ: every
# monomial of that degree or less, so every product of a size costs the same.
_MUL = [(3, 4, 35), (3, 5, 56)]
# A four-term linear form over QQ raised to this power: ~0.2 s today.
_POW = (3, 4, 18)
POW_COEFFS = [1, 2, 3, 5]
# katsura-4 and cyclic-5 run in every one of these variants each round.
_NAMED_VARIANTS = [(P, "basis"), (0, "verdict"), (P, "verdict"), (0, "basis")]


def _katsura4(char: int) -> List[Dict]:
    """katsura-4 in variables x0..x4 (Katsura's magnetism benchmark)."""
    n = 5
    one = Fraction(1) if char == 0 else 1

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    polys = []
    lin = {unit(0): one, (0,) * n: -one if char == 0 else char - 1}
    for i in range(1, n):
        lin[unit(i)] = 2 * one
    polys.append(lin)
    # sum_{i=-n+1}^{n-1} x_|i| x_|m-i| = x_m, for m = 0..n-2
    for m in range(n - 1):
        terms: Dict = {}
        for i in range(-(n - 1), n):
            a, b = abs(i), abs(m - i)
            if b >= n:
                continue
            e = [0] * n
            e[a] += 1
            e[b] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + one
        terms[unit(m)] = terms.get(unit(m), 0) - one
        polys.append(terms)
    return [_reduce(p, char) for p in polys]


def _cyclic5(char: int) -> List[Dict]:
    n = 5
    one = Fraction(1) if char == 0 else 1
    polys = []
    for d in range(1, n):
        terms = {}
        for start in range(n):
            e = [0] * n
            for k in range(d):
                e[(start + k) % n] = 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + one
        polys.append(terms)
    polys.append({(1,) * n: one, (0,) * n: -one})
    return [_reduce(p, char) for p in polys]


def _reduce(p: Dict, char: int) -> Dict:
    if char == 0:
        return {m: Fraction(c) for m, c in p.items() if c}
    return {m: int(c) % char for m, c in p.items() if int(c) % char}


def _slots():
    small = [("dense",) + spec for spec in _DENSE if spec[1] == 3 and spec[3] == 2]
    medium = [("dense",) + spec for spec in _DENSE if spec[1] == 4 or spec[3] == 3]
    muls = [("mul", 0) + spec for spec in _MUL for _ in range(MUL_COPIES[spec[1]])]
    named = [("named", "katsura4", char, mode) for char, mode in _NAMED_VARIANTS]
    named = named * KATSURA_COPIES
    named += [("named", "cyclic5", char, mode) for char, mode in _NAMED_VARIANTS]
    slots = (
        small * SMALL_COPIES
        + medium * MEDIUM_COPIES
        + muls
        + [("pow", 0) + _POW] * POWS
        + named
    )
    # One fixed order for every seed, with the members of each band spread
    # over the round, so a burst of load on the host hits few of them.
    random.Random("groebner_kernel/order").shuffle(slots)
    return slots


def _instance(rng: random.Random, shape) -> Dict:
    kind = shape[0]
    if kind == "dense":
        _, char, n, k, d, nt = shape
        gens = [gen.poly(rng, char, n, d, nt) for _ in range(k)]
        return {"kind": "gb", "char": char, "nvars": n, "gens": gens}
    if kind == "mul":
        _, char, n, d, nt = shape
        return {
            "kind": "mul",
            "char": char,
            "nvars": n,
            "factors": [gen.poly(rng, char, n, d, nt) for _ in range(2)],
        }
    _, char, n, nt, k = shape
    # every seed's base has the coefficient sizes POW_COEFFS, in a seeded
    # order and with seeded signs, so each power costs the same
    monos = gen.monomials(n, 1)
    sizes = rng.sample(POW_COEFFS, len(POW_COEFFS))
    base = {m: Fraction(c * rng.choice((-1, 1))) for m, c in zip(monos, sizes)}
    return {"kind": "pow", "char": char, "nvars": n, "base": base, "exp": k}


def script(seed: int):
    """The op stream, endless; same seed, same ops.

    Slots of the same shape draw from one pool, so a certificate op and a
    verdict op see the same systems and sympy solves each system once.
    """
    rng = random.Random(f"groebner_kernel/{seed}")
    slots = _slots()
    shapes = sorted({s[:-1] if s[0] == "dense" else s for s in slots if s[0] != "named"}, key=repr)
    pools = {shape: [_instance(rng, shape) for _ in range(POOL)] for shape in shapes}
    uses = dict.fromkeys(slots, 0)  # each slot walks through its shape's pool
    while True:
        for slot in slots:
            if slot[0] == "named":
                _, name, char, mode = slot
                system = _katsura4(char) if name == "katsura4" else _cyclic5(char)
                op = {"kind": "gb", "char": char, "nvars": 5, "gens": system,
                      "mode": mode, "name": name}
                key = f"{name}/{char}/{mode}"
            else:
                shape = slot[:-1] if slot[0] == "dense" else slot
                ix = uses[slot] % POOL
                uses[slot] += 1
                op = dict(pools[shape][ix])
                key = f"{'/'.join(map(str, shape))}/{ix}"
                if slot[0] == "dense":
                    op["mode"] = slot[-1]
                    key += f"/{slot[-1]}"
            yield dict(op, key=key)


def signature(op: Dict) -> tuple:
    if op["kind"] == "gb":
        return ("gb", op["char"], op["nvars"], len(op["gens"]), op["mode"],
                op.get("name"), max(sum(m) for g in op["gens"] for m in g))
    if op["kind"] == "mul":
        return ("mul", op["char"], op["nvars"], tuple(len(f) for f in op["factors"]))
    return ("pow", op["char"], op["nvars"], len(op["base"]), op["exp"])


# -- running ------------------------------------------------------------------


def setup(root: str) -> Dict:
    import importlib

    import zariski

    gb = importlib.import_module("zariski.groebner")

    rings = {}
    for char in (P, 0):
        field = zariski.QQ if char == 0 else zariski.GF(char)
        for n in (3, 4, 5):
            rings[(char, n)] = zariski.PolyRing(field, [f"x{i}" for i in range(n)])
    return {"rings": rings, "gb": gb, "zariski": zariski}


def prepare(op: Dict, fx: Dict):
    ring = fx["rings"][(op["char"], op["nvars"])]
    gb = fx["gb"]
    if op["kind"] == "gb":
        gens = [ring.from_terms(g) for g in op["gens"]]
        mode = op["mode"]
        if mode == "basis":
            return lambda: gb.GroebnerBasis(ring, gens)
        if mode == "unit_cert":
            return lambda: gb.unit_ideal_certificate(gens, ring)
        return lambda: gb.ideal_contains_one(gens, ring)
    if op["kind"] == "mul":
        f, g = (ring.from_terms(t) for t in op["factors"])
        return lambda: f * g
    base = ring.from_terms(op["base"])
    k = op["exp"]
    return lambda: base ** k


def answer(op: Dict, result, fx: Dict):
    if op["kind"] != "gb":
        return dict(result.terms)
    mode = op["mode"]
    if mode == "basis":
        return (
            [dict(b.terms) for b in result.basis],
            [[dict(c.terms) for c in row] for row in result.cofactors],
        )
    if mode == "unit_cert":
        return None if result is None else [dict(c.terms) for c in result]
    return bool(result)


def check(ops: List[Dict], answers: List, fx: Dict, seed: int) -> List[str]:
    from ..oracle import SymRing, plains_equal

    problems = []
    bases = {}  # one sympy basis per system, shared by its basis and verdict ops

    def sym_basis(op, R, gens):
        key = op["key"].rsplit("/", 1)[0] if "name" not in op else (op["name"], op["char"])
        if key not in bases:
            bases[key] = R.groebner(gens)
        return bases[key]

    for op, ans in zip(ops, answers):
        R = SymRing(op["char"], op["nvars"])
        where = f"{op['key']} ({op['kind']}/{op.get('mode', '')})"
        if op["kind"] == "mul":
            f, g = (R.poly(t) for t in op["factors"])
            if not plains_equal(R.plain(f * g), ans):
                problems.append((op["key"], f"{where}: product differs from sympy"))
            continue
        if op["kind"] == "pow":
            if not plains_equal(R.plain(R.poly(op["base"]) ** op["exp"]), ans):
                problems.append((op["key"], f"{where}: power differs from sympy"))
            continue
        gens = [R.poly(g) for g in op["gens"]]
        mode = op["mode"]
        if mode == "verdict":
            if (sym_basis(op, R, gens) == [R.one()]) != ans:
                problems.append((op["key"], f"{where}: unit-ideal verdict {ans} disagrees with sympy"))
        elif mode == "unit_cert":
            if ans is None:
                if sym_basis(op, R, gens) == [R.one()]:
                    problems.append((op["key"], f"{where}: no certificate for a unit ideal"))
            else:
                combo = sum((R.poly(c) * g for c, g in zip(ans, gens)), R.ring.zero)
                if combo != R.one():
                    problems.append((op["key"], f"{where}: unit certificate does not multiply out to 1"))
        else:
            basis, cofactors = ans
            expected = {frozenset(R.plain(b).items()) for b in sym_basis(op, R, gens)}
            got = {frozenset(b.items()) for b in basis}
            if expected != got or len(basis) != len(expected):
                problems.append((op["key"], f"{where}: reduced basis differs from sympy.groebner"))
            for b, row in zip(basis, cofactors):
                combo = sum((R.poly(c) * g for c, g in zip(row, gens)), R.ring.zero)
                if combo != R.poly(b):
                    problems.append((op["key"], f"{where}: cofactor row does not multiply out"))
                    break
    return problems
