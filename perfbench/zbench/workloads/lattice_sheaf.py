"""A stream of text queries on the lattice of basic opens and on sheaves.

Each query is text, parsed by ``zariski.parsing`` inside the timed op and
then answered: ``leq``, ``eq``, ``join``, ``meet``, radical membership,
cover checks with unit certificates, split-then-glue round-trips, and
localization round-trips (``open_to_localization`` then
``open_from_localization``).  Rings rotate through ``QQ[x,y]``,
``QQ[x]/(x^3-x)`` and ``GF(5)[x,y]/(x^2+y^2-1)``.

Every ``REPEAT_EVERY``-th op repeats an earlier query word for word, so a
quarter of the stream can hit the per-algebra memos and the localization
cache and the rest cannot.  Every ``KNOWN_FAILURE_EVERY``-th op is the
known unit-denominator defect: gluing ``t+1`` along the one-piece cover
``D(t)`` of ``QQ[t]/(t^2-2)``, whose correct answer is ``t+1``.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction
from typing import Dict, List

from . import gen

LIMIT_S = 20.0
REPEAT_EVERY = 4
KNOWN_FAILURE_EVERY = 64
ROUND_LEN = KNOWN_FAILURE_EVERY  # the stream's pattern repeats every 64 ops
ROUND_S = 0.135  # one round's time at the reference speed (see speed.py)
# Share of distinct verdict queries (leq, eq, radical, loc) re-decided
# with sympy; certificates, joins, meets and glues are all checked.
VERDICT_SAMPLE = 0.25

RINGS = [
    # text, char, names, relations as plain polys
    ("QQ[x,y]", 0, ("x", "y"), []),
    ("QQ[x]/(x^3 - x)", 0, ("x",), [{(3,): Fraction(1), (1,): Fraction(-1)}]),
    (
        "GF(5)[x,y]/(x^2 + y^2 - 1)",
        5,
        ("x", "y"),
        [{(2, 0): 1, (0, 2): 1, (0, 0): 4}],
    ),
]
# Two rational points of each ring, used to keep cover pieces non-units.
POINTS = [((0, 0), (1, 0)), ((0,), (1,)), ((1, 0), (0, 1))]
KNOWN_RING = ("QQ[t]/(t^2 - 2)", 0, ("t",), [{(2,): Fraction(1), (0,): Fraction(-2)}])
KINDS = (
    "leq", "radical", "glue", "eq", "cover", "leq", "loc", "radical",
    "join", "glue", "meet", "leq", "cover", "radical", "loc",
)


def _size(shape, degree=2, terms=3):
    """(degree, terms) of one element, drawn from the seed-independent
    ``shape`` stream so every seed gets the same sizes."""
    return shape.randint(1, degree), shape.randint(1, terms)


def _elem(rng, char, nvars, size):
    # coefficients in [-3, 3] over QQ, as the acceptance suite draws them
    return gen.poly(rng, char, nvars, size[0], size[1], 3)


def _mul(a, b, char):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return _clean(out, char)


def _clean(p, char):
    if char:
        return {m: c % char for m, c in p.items() if c % char}
    return {m: c for m, c in p.items() if c}


def _sub(a, b, char):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) - c
    return _clean(out, char)


def _at(p, point, char):
    """Evaluate a plain polynomial at a point with coordinates in the field."""
    total = 0
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            term = term * x**e
        total += term
    return total % char if char else total


def _inv(c, char):
    return pow(c, -1, char) if char else 1 / Fraction(c)


def _nonunit(rng, char, nvars, point, size):
    """A random non-constant element vanishing at ``point``, so not a unit."""
    while True:
        f = _elem(rng, char, nvars, size)
        const = (0,) * nvars
        f = _clean({**f, const: f.get(const, 0) - _at(f, point, char)}, char)
        if any(sum(m) for m in f):
            return f


def _cover(rng, shape, ring_ix, covering: bool):
    """Pieces ``[f, g, 1 - f*h1 - g*h2]`` generate the unit ideal by
    construction; ``[f, f*g]`` does not.  ``f`` and ``g`` are linear and
    vanish at one rational point P of the ring, the ``h`` are constants
    chosen so the last piece vanishes at another, Q: no piece is a unit."""
    _, char, names, _ = RINGS[ring_ix]
    nvars = len(names)
    p_pt, q_pt = POINTS[ring_ix]
    f_size, g_size = _size(shape, 1), _size(shape, 1)
    while True:
        f = _nonunit(rng, char, nvars, p_pt, f_size)
        g = _nonunit(rng, char, nvars, p_pt, g_size)
        if not covering:
            return [f, _mul(f, g, char)]
        const = (0,) * nvars
        h1 = {const: gen.coeff(rng, char, 3)}
        h2 = {const: gen.coeff(rng, char, 3)}
        fq = _at(f, q_pt, char)
        if not fq:
            continue
        # shift h1 by a constant so the last piece vanishes at Q
        lack = 1 - fq * _at(h1, q_pt, char) - _at(g, q_pt, char) * _at(h2, q_pt, char)
        h1 = _clean({**h1, const: h1.get(const, 0) + lack * _inv(fq, char)}, char)
        one = {const: Fraction(1) if char == 0 else 1}
        rest = _sub(_sub(one, _mul(f, h1, char), char), _mul(g, h2, char), char)
        if any(sum(m) for m in rest):
            return [f, g, rest]


def _open_text(gens, names, char):
    return "D(" + ", ".join(gen.plain_text(g, names, char) for g in gens) + ")"


def _fresh(rng, shape, kind, ring_ix, serial):
    text, char, names, _ = RINGS[ring_ix]
    n = len(names)
    op = {"kind": kind, "ring": ring_ix}

    def rand_open():
        return [_elem(rng, char, n, _size(shape)) for _ in range(shape.randint(1, 3))]

    if kind in ("leq", "eq", "join", "meet"):
        op["u"], op["v"] = rand_open(), rand_open()
    elif kind == "radical":
        op["f"] = _elem(rng, char, n, _size(shape))
        op["gens"] = rand_open()
    elif kind == "cover":
        op["pieces"] = _cover(rng, shape, ring_ix, covering=serial % 4 != 3)
    elif kind == "glue":
        op["a"] = _elem(rng, char, n, _size(shape, 2, 4))
        op["pieces"] = _cover(rng, shape, ring_ix, covering=True)
    elif kind == "loc":
        f = _nonunit(rng, char, n, POINTS[ring_ix][0], _size(shape))
        op["f"] = f
        op["down"] = [_mul(g, f, char) for g in rand_open()]
        op["down"] = [g for g in op["down"] if g] or [f]
    op["text"] = _render(op)
    return op


def _render(op) -> str:
    text, char, names, _ = _ring_of(op)
    kind = op["kind"]
    t = lambda p: gen.plain_text(p, names, char)  # noqa: E731
    if kind in ("leq", "eq", "join", "meet"):
        body = f"{_open_text(op['u'], names, char)} {_open_text(op['v'], names, char)}"
    elif kind == "radical":
        body = f"{t(op['f'])} in rad {_open_text(op['gens'], names, char)}"
    elif kind in ("cover", "glue", "known"):
        body = _open_text(op["pieces"], names, char)
        if kind != "cover":
            body = f"{t(op['a'])} over {body}"
    else:
        body = f"{t(op['f'])} : {_open_text(op['down'], names, char)}"
    return f"{kind} {body} @ {text}"


def _ring_of(op):
    return KNOWN_RING if op["kind"] == "known" else RINGS[op["ring"]]


def _known():
    op = {
        "kind": "known",
        "ring": -1,
        "a": {(1,): Fraction(1), (0,): Fraction(1)},
        "pieces": [{(1,): Fraction(1)}],
    }
    op["text"] = _render(op)
    return op


def script(seed: int):
    """The op stream, endless; same seed, same ops."""
    rng = random.Random(f"lattice_sheaf/{seed}")
    # which earlier op a repeat copies does not depend on the seed, so every
    # seed repeats the same kinds on the same rings
    pick = random.Random("lattice_sheaf/repeats")
    shape = random.Random("lattice_sheaf/shapes")
    issued: List[Dict] = []
    fresh = 0
    i = 0
    while True:
        if (i + 1) % KNOWN_FAILURE_EVERY == 0:
            op = _known()
        elif i % REPEAT_EVERY == REPEAT_EVERY - 1:
            op = dict(issued[pick.randrange(i)], repeat=True)
        else:
            kind = KINDS[fresh % len(KINDS)]
            op = _fresh(rng, shape, kind, fresh % len(RINGS), fresh)
            fresh += 1
        op.setdefault("repeat", False)
        op["key"] = op["text"]
        issued.append(op)
        yield op
        i += 1


def signature(op: Dict) -> tuple:
    """Kind, ring, repeat flag, list lengths and degrees: all drawn from
    seed-independent streams."""
    lists = tuple(len(op[k]) for k in ("u", "v", "gens", "pieces", "down") if k in op)
    degrees = tuple(
        max(sum(m) for m in p)
        for k in ("u", "v", "gens")
        if k in op
        for p in op[k]
    ) + tuple(max(sum(m) for m in op[k]) for k in ("f", "a") if k in op)
    return (op["kind"], op["ring"], op["repeat"], lists, degrees)


# -- running ------------------------------------------------------------------


def setup(root: str) -> Dict:
    z = importlib.import_module("zariski")
    mods = {
        name: importlib.import_module(f"zariski.{name}")
        for name in ("parsing", "algebra", "lattice", "sheaf")
    }
    algebras = {}
    for ix, (text, _, _, _) in list(enumerate(RINGS)) + [(-1, KNOWN_RING)]:
        ring, rels = mods["parsing"].parse_ring(text)
        algebras[ix] = z.PresentedAlgebra(ring, rels)
    return {"algebras": algebras, **mods}


def prepare(op: Dict, fx: Dict):
    A = fx["algebras"][op["ring"]]
    parsing, algebra, lattice, sheaf = fx["parsing"], fx["algebra"], fx["lattice"], fx["sheaf"]
    text = op["text"]
    kind = op["kind"]
    body = text[len(kind) + 1 : text.rindex(" @ ")]

    def elem(s):
        return A.element(parsing.parse_poly(s, A.ring))

    def opn(s):
        return lattice.basic_open(A, [A.element(p) for p in parsing.parse_basic_open(s, A.ring)])

    def pieces(s):
        return [A.element(p) for p in parsing.parse_basic_open(s, A.ring)]

    if kind in ("leq", "eq", "join", "meet"):
        fn = getattr(lattice, kind)

        def run():
            u_text, v_text = body.split(") D(")
            return fn(opn(u_text + ")"), opn("D(" + v_text))

    elif kind == "radical":

        def run():
            f_text, g_text = body.split(" in rad ")
            return A.radical_member(elem(f_text), pieces(g_text))

    elif kind == "cover":

        def run():
            try:
                return sheaf.CoverData(A, pieces(body)).certificate
            except ValueError:  # refuted: the pieces do not cover
                return None

    elif kind in ("glue", "known"):

        def run():
            a_text, p_text = body.split(" over ")
            a = elem(a_text)
            cover = sheaf.CoverData(A, pieces(p_text))
            fam = sheaf.SectionFamily(
                cover,
                [sheaf.global_section(algebra.make_localization(A, p), a) for p in cover.pieces],
            )
            return sheaf.glue(fam)

    else:

        def run():
            f_text, d_text = body.split(" : ")
            loc = algebra.make_localization(A, elem(f_text))
            up = lattice.open_to_localization(loc, opn(d_text))
            return lattice.open_from_localization(loc, up)

    return run


def answer(op: Dict, result, fx: Dict):
    kind = op["kind"]
    if kind in ("leq", "eq", "radical"):
        return bool(result)
    if kind in ("join", "meet", "loc"):
        return [dict(g.poly.terms) for g in result.generators]
    if kind == "cover":
        return None if result is None else [dict(c.poly.terms) for c in result]
    return dict(result.poly.terms)


# -- checks ---------------------------------------------------------------------


def check(ops: List[Dict], answers: List, fx: Dict, seed: int) -> List:
    from ..oracle import SymRing, radical_member

    sample = random.Random(f"lattice_sheaf/check/{seed}")
    problems = []
    for op, ans in zip(ops, answers):
        _, char, names, rels = _ring_of(op)
        n = len(names)
        R = SymRing(char, n)
        rel_gb = R.groebner([R.poly(r) for r in rels])

        def nf(p):
            f = R.poly(p)
            return R.plain(f.rem(rel_gb)) if rel_gb else R.plain(f)

        def in_rad(f, gens):
            return radical_member(char, n, f, list(gens) + rels)

        def leq(u, v):
            return all(in_rad(g, v) for g in u)

        kind = op["kind"]
        bad = None
        if kind in ("join", "meet"):
            if kind == "join":
                want = [nf(g) for g in op["u"] + op["v"]]
            else:
                want = [nf(_mul(f, g, char)) for f in op["u"] for g in op["v"]]
            want = {frozenset(p.items()) for p in want if p}
            if want != {frozenset(p.items()) for p in ans}:
                bad = f"{kind} generators differ from the normal forms of the inputs"
        elif kind == "cover":
            if ans is None:
                if R.contains_one([R.poly(p) for p in op["pieces"] + rels]):
                    bad = "refused a cover whose pieces generate the unit ideal"
            else:
                combo = R.ring.zero
                for c, p in zip(ans, op["pieces"]):
                    combo += R.poly(c) * R.poly(p)
                if nf(R.plain(combo - R.one())):
                    bad = "unit certificate does not multiply out to 1"
        elif kind in ("glue", "known"):
            if ans != nf(op["a"]):
                bad = "glued element is not the split element's normal form"
        elif sample.random() < VERDICT_SAMPLE:
            if kind == "loc":  # the round-trip must give back the same open
                if not (leq(ans, op["down"]) and leq(op["down"], ans)):
                    bad = "localization round-trip changed the open"
            else:
                if kind == "leq":
                    want = leq(op["u"], op["v"])
                elif kind == "eq":
                    want = leq(op["u"], op["v"]) and leq(op["v"], op["u"])
                else:
                    want = in_rad(op["f"], op["gens"])
                if want != ans:
                    bad = f"{kind} verdict {ans} disagrees with sympy"
        if bad:
            problems.append((op["key"], bad))
    return problems
