"""Independent checks: sympy arithmetic and Groebner bases, tests/oracles.py.

Polynomials cross the boundary as plain dicts ``{exponent tuple: coeff}``
with ``Fraction`` coefficients over QQ and ints in ``[0, p)`` over GF(p),
so nothing here calls into zariski.  Variable order is declaration order
and the monomial order is grevlex, as in zariski's default rings.
"""

from __future__ import annotations

import importlib.util
import os
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from sympy import GF as _SGF
from sympy import QQ as _SQQ
from sympy.polys.groebnertools import groebner as _groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring as _ring

Plain = Dict[Tuple[int, ...], object]


def load_oracles(root: str):
    """Import the repository's brute-force counters from tests/oracles.py."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("zbench_repo_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class SymRing:
    """A sympy sparse polynomial ring matching a zariski ring's layout."""

    _cache: Dict[tuple, "SymRing"] = {}

    def __new__(cls, char: int, nvars: int):
        key = (char, nvars)
        hit = cls._cache.get(key)
        if hit is None:
            hit = super().__new__(cls)
            hit.char = char
            hit.nvars = nvars
            names = ",".join(f"v{i}" for i in range(nvars)) if nvars else "v0"
            domain = _SQQ if char == 0 else _SGF(char)
            hit.ring = _ring(names, domain, grevlex)[0]
            hit.domain = domain
            cls._cache[key] = hit
        return hit

    def poly(self, plain: Plain):
        if self.char == 0:
            conv = {m: self.domain(c.numerator, c.denominator) for m, c in plain.items()}
        else:
            conv = {m: self.domain(int(c)) for m, c in plain.items()}
        if self.nvars == 0:
            conv = {(0,): c for m, c in conv.items()}
        return self.ring.from_dict(conv) if conv else self.ring.zero

    def plain(self, f) -> Plain:
        out = {}
        for m, c in f.terms():
            if self.nvars == 0:
                m = ()
            if self.char == 0:
                out[m] = Fraction(int(c.numerator), int(c.denominator))
            else:
                out[m] = int(c) % self.char
        return out

    def one(self):
        return self.ring.one

    def groebner(self, gens: Sequence) -> List:
        gens = [g for g in gens if g]
        if not gens:
            return []
        return list(_groebner(gens, self.ring))

    def contains_one(self, gens: Sequence) -> bool:
        return self.groebner(gens) == [self.ring.one]


def lift(plain: Plain, extra: int) -> Plain:
    """The same polynomial with ``extra`` trailing variables appended."""
    pad = (0,) * extra
    return {m + pad: c for m, c in plain.items()}


def radical_member(char: int, nvars: int, f: Plain, gens: Sequence[Plain]) -> bool:
    """f in rad(gens), by the Rabinowitsch trick: 1 in (gens, 1 - w*f)."""
    if not f:
        return True
    R = SymRing(char, nvars + 1)
    w = R.poly({(0,) * nvars + (1,): Fraction(1) if char == 0 else 1})
    polys = [R.poly(lift(g, 1)) for g in gens]
    polys.append(R.one() - w * R.poly(lift(f, 1)))
    return R.contains_one(polys)


def plains_equal(a: Plain, b: Plain) -> bool:
    return {m: c for m, c in a.items() if c} == {m: c for m, c in b.items() if c}
