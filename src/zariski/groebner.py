"""Multivariate division and Buchberger completion with cofactor tracking.

Every reduced basis element carries an explicit row expressing it as a
polynomial combination of the input generators, so ideal-membership answers
come with checkable certificates: ``member(f)`` returns cofactors ``c`` with
``f == sum(c[j] * gens[j])``.  Pair elimination follows Gebauer-Moller;
bases are returned monic, fully inter-reduced, and sorted by leading
monomial, which makes them canonical for the chosen order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomials import Monomial, Poly, PolyRing, _integer_terms


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))

def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def divide(
    f: Poly,
    divisors: Sequence[Poly],
    want_quotients: bool = True,
) -> Tuple[Optional[List[Poly]], Poly]:
    """Multivariate division: ``f = sum(q[i]*divisors[i]) + r``.

    No term of the remainder ``r`` is divisible by any divisor's leading
    monomial.  With ``want_quotients=False`` the quotients are skipped and
    ``None`` is returned in their place.

    The working polynomial is fraction-free: integer terms ``W`` over one
    common denominator ``D`` (1 over GF(p), where a coefficient is reduced
    when its term is popped).  Its monomials sit in a heap under the
    ring's descending key, so each step pops the largest term without a
    scan (the heap of Monagan & Pearce, *Sparse polynomial division using
    a heap*, JSC 2011, here over terms rather than products).  A divisor
    ``d`` is read as ``(lc*x^lm + tail) / dd`` on ints
    (``Poly._division_form``, kept on ``d``).  Reducing the popped term
    ``cp*x^mp`` by it, with ``g = gcd(cp, lc)``, ``s = lc/g`` and
    ``x^a = x^mp / x^lm``, scales ``W`` and ``D`` by ``s`` and subtracts
    ``(cp/g)*x^a*tail`` in place; after a scaled step the content
    ``gcd(D, W)`` is divided out, so the integers stay as small as
    normalized fractions would.  These are the steps of the division over
    the field itself, and quotient and remainder coefficients leave as the
    field's normalized scalars.
    """
    ring = f.ring
    p = ring.field.char
    hkey = ring._heap_key
    leads = [(i, d.lead_monomial()) for i, d in enumerate(divisors) if d.terms]
    quots = [{} for _ in divisors] if want_quotients else None
    rem: Dict[Monomial, object] = {}
    if p:
        D, terms = 1, dict(f.terms)
    else:
        D, items = _integer_terms(f.terms)
        terms = dict(items)
    heap = [(hkey(m), m) for m in terms]
    heapify(heap)
    while heap:
        mp = heappop(heap)[1]
        cp = terms.pop(mp)
        if p:
            cp %= p
        if not cp:
            continue
        for idx, lm in leads:
            if all(map(le, lm, mp)):
                break
        else:
            rem[mp] = cp if p else Fraction(cp, D)
            continue
        dd, lc, tail = divisors[idx]._division_form()
        s = 1
        if lc != 1:
            g = gcd(cp, lc)
            s = lc // g
            cp //= g
        a = tuple(map(sub, mp, lm))
        if quots is not None:
            quots[idx][a] = cp * dd % p if p else Fraction(cp * dd, D * s)
        if s != 1:
            D *= s
            terms = {m: c * s for m, c in terms.items()}
        for mt, ct in tail:
            m = tuple(map(add, mt, a))
            c = terms.get(m)
            if c is None:
                terms[m] = -cp * ct
                heappush(heap, (hkey(m), m))
            else:
                terms[m] = c - cp * ct
        if s != 1:
            g = gcd(D, *terms.values())
            if g != 1:
                D //= g
                terms = {m: c // g for m, c in terms.items()}
    if quots is not None:
        quots = [Poly(ring, q) for q in quots]
    return quots, Poly(ring, rem)


def normal_form(f: Poly, basis: Sequence[Poly]) -> Poly:
    return divide(f, basis, want_quotients=False)[1]


class _Engine:
    """Buchberger loop over one generator list; rows track cofactors."""

    def __init__(self, gens: Sequence[Poly], ring: PolyRing, want_cofactors: bool):
        self.ring = ring
        self.fld = ring.field
        self.gens = list(gens)
        self.want = want_cofactors
        self.G: List[Poly] = []
        self.rows: List[List[Poly]] = []
        # (order key of the lcm, lcm, i, j), the key taken once at creation
        self.pairs: List[Tuple[tuple, Monomial, int, int]] = []
        self.unit_row: Optional[List[Poly]] = None
        self.found_unit = False

    def _unit_vector(self, i: int) -> List[Poly]:
        return [
            self.ring.one if j == i else self.ring.zero
            for j in range(len(self.gens))
        ]

    def _combine(self, base: List[Poly], quots: Sequence[Poly]) -> List[Poly]:
        out = list(base)
        for q, row in zip(quots, self.rows):
            if q.is_zero():
                continue
            out = [a - q * b for a, b in zip(out, row)]
        return out

    def _insert(self, h: Poly, row: Optional[List[Poly]], stop_at_unit: bool) -> bool:
        """Monic-normalize, check for a constant, add with pair update.

        Returns True when a unit certificate was found and we should stop.
        """
        c = h.lead_coeff()
        if c != self.fld.one:
            inv = self.fld.inv(c)
            h = h.scale(inv)
            if row is not None:
                row = [r.scale(inv) for r in row]
        if h.is_constant():
            self.found_unit = True
            if row is not None:
                self.unit_row = row
            if stop_at_unit:
                return True
        self._update_pairs(h)
        self.G.append(h)
        self.rows.append(row if row is not None else [])
        return False

    def _update_pairs(self, h: Poly):
        """Gebauer-Moller pair update for the incoming element ``h``."""
        G = self.G
        h_lm = h.lead_monomial()
        h_idx = len(G)
        lcms = [_mono_lcm(h_lm, g.lead_monomial()) for g in G]
        candidates = list(range(len(G)))
        kept: List[int] = []
        while candidates:
            i = candidates.pop(0)
            li = lcms[i]
            if _coprime(h_lm, G[i].lead_monomial()):
                kept.append(i)
                continue
            dominated = any(_divides(lcms[j], li) for j in candidates) or any(
                _divides(lcms[j], li) for j in kept
            )
            if not dominated:
                kept.append(i)
        key = self.ring.monomial_key
        new_pairs = [
            (key(lcms[i]), lcms[i], i, h_idx)
            for i in kept
            if not _coprime(h_lm, G[i].lead_monomial())
        ]
        survivors = []
        for pair in self.pairs:
            _, l, i, j = pair
            if (
                not _divides(h_lm, l)
                or _mono_lcm(G[i].lead_monomial(), h_lm) == l
                or _mono_lcm(G[j].lead_monomial(), h_lm) == l
            ):
                survivors.append(pair)
        self.pairs = survivors + new_pairs

    def run(self, stop_at_unit: bool) -> None:
        for i, g in enumerate(self.gens):
            if g.is_zero():
                continue
            quots, r = divide(g, self.G, want_quotients=self.want)
            if r.is_zero():
                continue
            row = None
            if self.want:
                row = self._combine(self._unit_vector(i), quots)
            if self._insert(r, row, stop_at_unit):
                return
        while self.pairs:
            # the first pair with the least lcm
            best = min(range(len(self.pairs)), key=lambda k: self.pairs[k][0])
            _, l, i, j = self.pairs.pop(best)
            fi, fj = self.G[i], self.G[j]
            ti = Poly(self.ring, {_mono_sub(l, fi.lead_monomial()): self.fld.one})
            tj = Poly(self.ring, {_mono_sub(l, fj.lead_monomial()): self.fld.one})
            s = ti * fi - tj * fj
            quots, r = divide(s, self.G, want_quotients=self.want)
            if r.is_zero():
                continue
            row = None
            if self.want:
                srow = [ti * a - tj * b for a, b in zip(self.rows[i], self.rows[j])]
                row = self._combine(srow, quots)
            if self._insert(r, row, stop_at_unit):
                return

    def reduced(self) -> Tuple[Tuple[Poly, ...], Tuple[Tuple[Poly, ...], ...]]:
        """Minimal, tail-reduced, monic basis sorted by leading monomial."""
        key = self.ring.monomial_key
        order = sorted(range(len(self.G)), key=lambda i: key(self.G[i].lead_monomial()))
        kept: List[int] = []
        for i in order:
            lm = self.G[i].lead_monomial()
            if not any(_divides(self.G[j].lead_monomial(), lm) for j in kept):
                kept.append(i)
        basis = [self.G[i] for i in kept]
        rows = [list(self.rows[i]) for i in kept]
        for pos in range(len(basis)):
            others = basis[:pos] + basis[pos + 1 :]
            quots, r = divide(basis[pos], others, want_quotients=self.want)
            if self.want and quots is not None:
                row = rows[pos]
                other_rows = rows[:pos] + rows[pos + 1 :]
                for q, orow in zip(quots, other_rows):
                    if q.is_zero():
                        continue
                    row = [a - q * b for a, b in zip(row, orow)]
                rows[pos] = row
            basis[pos] = r
        return tuple(basis), tuple(tuple(rw) for rw in rows)


class GroebnerBasis:
    """Reduced monic basis of an ideal, with generator cofactors.

    ``basis[i] == sum(cofactors[i][j] * gens[j] for j)`` holds exactly;
    this identity is what downstream certificate checks re-evaluate.
    """

    __slots__ = ("ring", "gens", "basis", "cofactors", "_leads")

    def __init__(self, ring: PolyRing, gens: Sequence[Poly]):
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        engine = _Engine(gens, ring, want_cofactors=True)
        engine.run(stop_at_unit=False)
        basis, cofactors = engine.reduced()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "cofactors", cofactors)
        object.__setattr__(self, "_leads", tuple(b.lead_monomial() for b in basis))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GroebnerBasis is immutable")

    def __repr__(self):
        return f"GroebnerBasis({[str(b) for b in self.basis]})"

    def normal_form(self, f: Poly) -> Poly:
        """The remainder of ``f`` on division by the basis.

        When no term of ``f`` is divisible by a leading monomial of the
        basis, ``f`` is its own remainder and is returned as it is; this
        relies on ``f`` holding reduced coefficients, as every ``Poly``
        built through ``PolyRing`` and its arithmetic does.
        """
        leads = self._leads
        for m in f.terms:
            for lm in leads:
                if all(map(le, lm, m)):
                    return divide(f, self.basis, want_quotients=False)[1]
        return f

    def contains_one(self) -> bool:
        return len(self.basis) == 1 and self.basis[0] == self.ring.one

    def member(self, f: Poly) -> Optional[List[Poly]]:
        """Cofactors of ``f`` on the original generators, or None."""
        quots, r = divide(f, self.basis)
        if not r.is_zero():
            return None
        out = [self.ring.zero] * len(self.gens)
        assert quots is not None
        for q, row in zip(quots, self.cofactors):
            if q.is_zero():
                continue
            out = [a + q * b for a, b in zip(out, row)]
        return out


def groebner(gens: Sequence[Poly], ring: PolyRing) -> GroebnerBasis:
    return GroebnerBasis(ring, gens)


def ideal_contains_one(gens: Sequence[Poly], ring: PolyRing) -> bool:
    """Unit-ideal test that stops at the first constant remainder."""
    engine = _Engine(gens, ring, want_cofactors=False)
    engine.run(stop_at_unit=True)
    return engine.found_unit


def unit_ideal_certificate(
    gens: Sequence[Poly], ring: PolyRing
) -> Optional[List[Poly]]:
    """Cofactors ``e`` with ``1 == sum(e[j]*gens[j])``, or None.

    Stops at the first constant remainder instead of completing the basis.
    """
    engine = _Engine(gens, ring, want_cofactors=True)
    engine.run(stop_at_unit=True)
    if not engine.found_unit:
        return None
    row = engine.unit_row
    assert row is not None
    combo = ring.zero
    for c, g in zip(row, gens):
        combo = combo + c * g
    value = combo.constant_value()
    inv = ring.field.inv(value)
    return [c.scale(inv) for c in row]
