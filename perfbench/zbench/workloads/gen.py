"""Seeded random inputs as plain data: polynomials are ``{exponents: coeff}``."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Plain = Dict[Tuple[int, ...], object]

GF_BIG = 32003


def monomials(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    return [
        m
        for m in itertools.product(range(degree + 1), repeat=nvars)
        if sum(m) <= degree
    ]


def coeff(rng: random.Random, char: int, bound: int = 9):
    """A nonzero coefficient: small integer over QQ, uniform over GF(p)."""
    if char == 0:
        return Fraction(rng.choice([c for c in range(-bound, bound + 1) if c]))
    return rng.randrange(1, char)


def poly(
    rng: random.Random, char: int, nvars: int, degree: int, nterms: int, bound: int = 9
) -> Plain:
    """Exactly ``nterms`` random monomials of degree <= ``degree`` (fewer
    only if there are not that many), one of them of degree exactly
    ``degree``, with nonzero coefficients (at most ``bound``
    in absolute value over QQ)."""
    ms = monomials(nvars, degree)
    lead = rng.choice([m for m in ms if sum(m) == degree])
    rest = [m for m in ms if m != lead]
    chosen = sorted([lead] + rng.sample(rest, min(nterms, len(ms)) - 1))
    return {m: coeff(rng, char, bound) for m in chosen}


def plain_text(p: Plain, names: Sequence[str], char: int = 0) -> str:
    """Render a plain polynomial in the zariski grammar (``^`` powers)."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = p[m]
        if char == 0:
            c = Fraction(c)
            num, den = c.numerator, c.denominator
        else:
            num, den = int(c) % char, 1
        sign = "-" if num < 0 else "+"
        num = abs(num)
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
        if den != 1:
            lead = f"{num}/{den}"
        else:
            lead = str(num)
        if factors and lead == "1":
            body = "*".join(factors)
        else:
            body = "*".join([lead] + factors)
        chunks.append((sign, body))
    first_sign, first = chunks[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text
