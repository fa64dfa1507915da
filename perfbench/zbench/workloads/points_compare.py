"""Points and the two-presentation comparison over finite test algebras.

Ops are ``eval_points`` and ``comparison_check`` on the affine line and
plane, the projective line and the punctured plane over GF(p), p in
{2, 3, 5, 7}.  Test algebras are GF(p), GF(p)[t]/(t^2-c) with c a
non-square (a field of p^2 elements; GF(2)[t]/(t^2+t+1) for p = 2) and
split products GF(p)^k = GF(p)[e]/((e-a_1)...(e-a_k)).  Some comparisons
carry a naturality morphism GF(p) -> B.

One round is a fixed list of slots.  The seed picks each algebra's
presentation (c, the roots a_i) and every op gets fresh variable names, so
no op hits a cache keyed by its test algebra; the schemes are built once.
Each round holds the ``HEAVY`` slots and the known unit-denominator
defect: the punctured plane over GF(9), which must compare VERIFIED.
"""

from __future__ import annotations

import importlib
import random
from typing import Dict, List

LIMIT_S = 30.0
PRIMES = (2, 3, 5, 7)

# (op, scheme, prime, algebra kind); algebra kinds: "F" the prime field,
# "Q" its quadratic extension, "S2"/"S3" split products of 2/3 copies.
PRIME_EVALS = [("eval", scheme, p, "F") for scheme in ("A1", "A2", "P1", "PP") for p in PRIMES]
# The prime-field evaluations that cost less than the median band.
SMALL_EVALS = [
    ("eval", scheme, p, "F")
    for scheme, primes in (("A1", PRIMES), ("P1", PRIMES), ("A2", (2, 3)), ("PP", (2, 3)))
    for p in primes
]
NATURAL_CHEAP = ("natural", "P1", 2, "Q")
NATURAL_DEAR = ("natural", "A1", 3, "Q")
CHEAP = [
    *PRIME_EVALS,
    *[("eval", "A1", p, "Q") for p in (3, 5)],
    *[("eval", "P1", p, "Q") for p in (3, 5, 7)],
    ("eval", "PP", 3, "Q"),
    *[("eval", "A1", p, "S2") for p in (3, 5)],
    ("eval", "P1", 3, "S2"),
    ("eval", "P1", 5, "S2"),
    ("eval", "PP", 3, "S2"),
    ("eval", "P1", 3, "S3"),
    *[("compare", "A1", p, "F") for p in (3, 5, 7)],
    *[("compare", "P1", p, "F") for p in (2, 3, 5)],
    ("compare", "PP", 2, "F"),
    ("compare", "A1", 2, "S2"),
    NATURAL_CHEAP,
]
# A round is 200 ops, the fewest that give the 95th percentile ten samples
# beyond it, and both percentiles fall in the middle of a band of ops of
# one kind and size instead of on the edge between two kinds.  The median
# falls among the 101 evaluations of the affine plane over GF(5) (plus the
# three of PRIME_EVALS): 48 prime-field evaluations undercut them, the
# other 48 ops cost more.
P50_BAND = [("eval", "A2", 5, "F")] * 101
# The 95th percentile falls among fourteen comparisons of the affine line
# over GF(9), which only four ops a round exceed: the heavy slots, the
# dearer naturality check and the known defect.
P95_BAND = [("compare", "A1", 3, "Q")] * 14
# The heaviest slots: up to the ROADMAP's rungs (A2 over GF(25); P1 over
# GF(49) is among the cheap slots).
HEAVY = [("eval", "A2", 5, "Q"), ("compare", "A1", 5, "Q")]
KNOWN = ("compare", "PP", 3, "Q")
ROUND = CHEAP + PRIME_EVALS * 2 + SMALL_EVALS + P50_BAND + P95_BAND + HEAVY + [NATURAL_DEAR, KNOWN]
# One fixed order for every seed, with the members of each band spread over
# the round, so a burst of load on the host hits few of them.
random.Random("points_compare/order").shuffle(ROUND)
ROUND_LEN = len(ROUND)
ROUND_S = 6.5  # one round's time at the reference speed (see speed.py)


def _nonsquares(p: int) -> List[int]:
    squares = {a * a % p for a in range(p)}
    return [c for c in range(1, p) if c not in squares]


def _algebra(rng: random.Random, p: int, kind: str, serial: int) -> Dict:
    """A test algebra as plain data: variable name and relation coefficients
    (highest degree first, monic)."""
    if kind == "F":
        return {"p": p, "var": None, "rel": None, "factors": [p]}
    var = f"{rng.choice('tuvw')}{serial}"
    if kind == "Q":
        rel = [1, 1, 1] if p == 2 else [1, 0, (-rng.choice(_nonsquares(p))) % p]
        return {"p": p, "var": var, "rel": rel, "factors": [p * p]}
    k = int(kind[1:])
    roots = rng.sample(range(p), k)
    rel = [1]
    for a in roots:  # multiply by (e - a)
        rel = [(c - a * prev) % p for c, prev in zip(rel + [0], [0] + rel)]
    return {"p": p, "var": var, "rel": rel, "factors": [p] * k}


def _algebra_text(b: Dict) -> str:
    if b["var"] is None:
        return f"GF({b['p']})"
    deg = len(b["rel"]) - 1
    terms = [f"{c}*{b['var']}^{deg - i}" for i, c in enumerate(b["rel"]) if c]
    return f"GF({b['p']})[{b['var']}]/({' + '.join(terms)})"


def _op(rng: random.Random, slot, serial: int) -> Dict:
    kind, scheme, p, alg = slot
    op = {"kind": kind, "scheme": scheme, "p": p, "alg": alg,
          "B": _algebra(rng, p, alg, serial)}
    if kind == "natural":
        op["B0"] = _algebra(rng, p, "F", serial)
    op["key"] = f"{kind} {scheme}/{p} over {_algebra_text(op['B'])} #{serial}"
    return op


def script(seed: int):
    """The op stream, endless; same seed, same ops."""
    rng = random.Random(f"points_compare/{seed}")
    serial = 0
    while True:
        for slot in ROUND:
            serial += 1
            yield _op(rng, slot, serial)


def signature(op: Dict) -> tuple:
    return (op["kind"], op["scheme"], op["p"], op["alg"])


# -- running ------------------------------------------------------------------


def setup(root: str) -> Dict:
    z = importlib.import_module("zariski")
    funscheme = importlib.import_module("zariski.funscheme")
    compare = importlib.import_module("zariski.compare")
    latscheme = importlib.import_module("zariski.latscheme")
    schemes = {}
    for p in PRIMES:
        F = z.GF(p)
        schemes[("A1", p)] = latscheme.mk_affine(z.PresentedAlgebra(z.PolyRing(F, ["x"])))
        schemes[("A2", p)] = latscheme.mk_affine(
            z.PresentedAlgebra(z.PolyRing(F, ["x", "y"]))
        )
        schemes[("P1", p)] = latscheme.projective_line(F)
        schemes[("PP", p)] = latscheme.punctured_plane(F)[0]
    funs = {key: funscheme.functorial(X) for key, X in schemes.items()}
    return {"z": z, "schemes": schemes, "funs": funs, "funscheme": funscheme,
            "compare": compare, "algebra": importlib.import_module("zariski.algebra")}


def _build(z, b: Dict):
    F = z.GF(b["p"])
    if b["var"] is None:
        return z.PresentedAlgebra(z.PolyRing(F, []))
    ring = z.PolyRing(F, [b["var"]])
    deg = len(b["rel"]) - 1
    rel = ring.from_terms({(deg - i,): c for i, c in enumerate(b["rel"]) if c})
    return z.PresentedAlgebra(ring, [rel])


def prepare(op: Dict, fx: Dict):
    z = fx["z"]
    B = _build(z, op["B"])
    key = (op["scheme"], op["p"])
    if op["kind"] == "eval":
        fun, eval_points = fx["funs"][key], fx["funscheme"].eval_points
        return lambda: eval_points(fun, B)
    X, comparison_check = fx["schemes"][key], fx["compare"].comparison_check
    if op["kind"] == "compare":
        return lambda: comparison_check(X, [B])
    B0 = _build(z, op["B0"])
    chi = fx["algebra"].morphism(B0, B, [])
    return lambda: comparison_check(X, [B0, B], morphisms=[chi])


def answer(op: Dict, result, fx: Dict):
    if op["kind"] == "eval":
        return len(result)
    ok, report = result
    return (bool(ok), list(report["counts"]), report["realization"], report["natural"])


# -- checks ---------------------------------------------------------------------


def expected_count(oracles, scheme: str, factors: List[int]) -> int:
    """Points over a product of finite fields: the product over factors.

    Prime-field factors are counted by the brute-force oracles; a factor of
    q = p^2 elements uses the closed forms q^n, q + 1 and q^2 - 1.
    """
    total = 1
    for q in factors:
        prime = all(q % d for d in range(2, q))
        if scheme == "A1":
            n = oracles.affine_point_count(q, 1, []) if prime else q
        elif scheme == "A2":
            n = oracles.affine_point_count(q, 2, []) if prime else q * q
        elif scheme == "P1":
            n = oracles.projective_line_count(q) if prime else q + 1
        else:
            n = oracles.punctured_plane_count(q) if prime else q * q - 1
        total *= n
    return total


def check(ops: List[Dict], answers: List, fx: Dict, seed: int) -> List:
    import os

    from ..oracle import load_oracles

    oracles = load_oracles(os.getcwd())
    memo: Dict = {}

    def count(scheme, factors):
        k = (scheme, tuple(factors))
        if k not in memo:
            memo[k] = expected_count(oracles, scheme, factors)
        return memo[k]

    problems = []
    for op, ans in zip(ops, answers):
        want = count(op["scheme"], op["B"]["factors"])
        if op["kind"] == "eval":
            if ans != want:
                problems.append((op["key"], f"{ans} points, expected {want}"))
            continue
        counts = [want]
        if op["kind"] == "natural":
            counts = [count(op["scheme"], op["B0"]["factors"]), want]
        expected = (True, counts, "ok", True)
        if ans != expected:
            problems.append((op["key"], f"comparison gave {ans}, expected {expected}"))
    return problems
