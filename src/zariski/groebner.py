"""Multivariate division and Buchberger completion with cofactor tracking.

Every reduced basis element carries an explicit row expressing it as a
polynomial combination of the input generators, so ideal-membership answers
come with checkable certificates: ``member(f)`` returns cofactors ``c`` with
``f == sum(c[j] * gens[j])``.  Pair elimination follows Gebauer-Moller;
bases are returned monic, fully inter-reduced, and sorted by leading
monomial, which makes them canonical for the chosen order.

Each entry of a cofactor row and each S-polynomial is one
``polynomials._dot``: a sum of products in one integer dict.  A unit
certificate is the engine's row for its first constant remainder, which is
monic, so the row times the generators is exactly 1.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import _Frozen
from .polynomials import Poly, PolyRing, _dot, _ExponentLimitError, _norm, _over_lcm, _poly, _set


def divide(f: Poly, divisors: Sequence[Poly]) -> Tuple[List[Poly], Poly]:
    """Multivariate division: ``f = sum(q[i]*divisors[i]) + r``.

    No term of the remainder ``r`` is divisible by any divisor's leading
    monomial.  The steps are ``_reduce``'s; its raw terms are normalized
    here, each result once.
    """
    quots, rem = _reduce(f, divisors, want_quotients=True)
    zero = f.ring.zero  # one for every empty quotient
    return [_normalized(f.ring, q) if q else zero for q in quots], _normalized(f.ring, rem)


def _normalized(ring: PolyRing, raw: dict) -> Poly:
    """The ``Poly`` of one raw result of ``_reduce``: its residues as they
    are over GF(p), its ``(numerator, denominator)`` terms over their lcm
    over QQ (``_over_lcm``)."""
    return _poly(ring, raw) if ring.field.char else _over_lcm(ring, raw)


def _reduce(
    f: Poly, divisors: Sequence[Poly], want_quotients: bool, leads: Optional[Sequence[int]] = None
) -> Tuple[Optional[list], dict]:
    """The loop of ``divide``: raw quotient dicts (or None) and remainder
    dict, a term a residue over GF(p), ``(numerator, denominator)`` over QQ,
    filed in decreasing order.  ``leads``, the packed leads of divisors that
    are all nonzero, saves reading them off the divisors.

    Monomials are the ring's packed ints (``polynomials``): a product is
    an int sum, ``lm`` divides ``m`` when ``((m + G) - lm) & G == G`` for
    ``G`` the guard bits of every field, and a tail product that sets a
    guard bit has passed the exponent limit of ``2**31`` and raises.

    The working polynomial is fraction-free: integer terms ``W`` over one
    common denominator ``D``, starting from ``f``'s own ``(_d, _t)`` (``D``
    is 1 over GF(p), where a coefficient is reduced when its term is
    popped).  Its monomials sit in a heap of plain ints, the negated order
    keys ``-(m ^ NEG)``, so each step pops the largest term without a scan
    (the heap of Monagan & Pearce, *Sparse polynomial division using a
    heap*, JSC 2011, here over terms rather than products).  A divisor
    ``d`` is read as ``(lc*x^lm + tail) / dd`` on ints
    (``Poly._division_form``, kept on ``d``).  Reducing the popped term
    ``cp*x^mp`` by it, with ``g = gcd(cp, lc)``, ``s = lc/g`` and ``x^a =
    x^mp / x^lm``, scales ``W`` and ``D`` by ``s`` and subtracts
    ``(cp/g)*x^a*tail`` in place.  These are the steps of the division
    over the field itself.  No step divides the content out of ``W``: a
    factor of ``D`` that the values do not need tends to recur in the later
    ``cp``, where ``gcd(cp, lc)`` keeps it out of the next scale.  Each remainder
    and quotient term is kept as its numerator over the ``D`` of its step;
    the caller normalizes each result it keeps once, over the lcm of those
    denominators.
    """
    ring = f.ring
    p = ring.field.char
    G = ring._guard
    neg = ring._neg
    leads = [(i, d._lead()) for i, d in enumerate(divisors) if d._t] if leads is None else list(enumerate(leads))
    quots = [{} for _ in divisors] if want_quotients else None
    rem: Dict[int, object] = {}
    D, terms = f._d, dict(f._t)
    heap = [-(m ^ neg) for m in terms]
    heapify(heap)
    while heap:
        mp = -heappop(heap) ^ neg
        cp = terms.pop(mp)
        if p:
            cp %= p
        if not cp:
            continue
        bound = mp + G
        for idx, lm in leads:
            if (bound - lm) & G == G:
                break
        else:
            rem[mp] = cp if p else (cp, D)
            continue
        dd, lc, tail = divisors[idx]._division_form()
        s = 1
        if lc != 1:
            g = gcd(cp, lc)
            s = lc // g
            cp //= g
        a = mp - lm
        if quots is not None:
            quots[idx][a] = cp * dd % p if p else (cp * dd, D * s)
        if s != 1:
            D *= s
            terms = {m: c * s for m, c in terms.items()}
        for mt, ct in tail:
            m = mt + a
            c = terms.get(m)
            if c is None:
                if m & G:
                    raise _ExponentLimitError(ring, ring._mono(m))
                terms[m] = -cp * ct
                heappush(heap, -(m ^ neg))
            else:
                terms[m] = c - cp * ct
    return quots, rem


def _row_sum(ring: PolyRing, width: int, terms: list) -> List[Poly]:
    """The row ``sum(c * row for c, row in terms)``, one ``_dot`` per entry."""
    return [_dot(ring, [(c, row[j]) for c, row in terms]) for j in range(width)]


class _Engine:
    """Buchberger loop over one generator list; rows track cofactors.

    Generators and S-pairs take one step, ``_insert``: an element enters as
    the remainder ``h`` of ``sum(c * f)`` over its heads (a generator, or
    the S-pair ``ti*G[i] - tj*G[j]``) with quotients ``q``; its row is
    ``(sum(c * row(f)) - sum(q[k] * rows[k])) / lc(h)``, the scalar applied
    to the multipliers rather than to the row; a zero remainder normalizes
    no quotient.  ``leads[i]`` is the packed lead of ``G[i]``.  A pair is
    ``(key, index, lcm, i, j)``, the lcm's order key and the pair's creation
    index first, so ``min(pairs)`` is the first pair made with the least
    lcm.  ``unit_row`` is the row of the first constant remainder (``[]``
    without cofactors), else None.
    """

    def __init__(self, gens: Sequence[Poly], ring: PolyRing, want_cofactors: bool):
        self.ring = ring
        self.fld = ring.field
        self.gens = list(gens)
        self.want = want_cofactors
        self.G: List[Poly] = []
        self.leads: List[int] = []
        self.rows: List[List[Poly]] = []
        self.pairs: List[Tuple[int, int, int, int, int]] = []
        self.made = count()
        self.unit_row: Optional[List[Poly]] = None

    def _combine(self, heads: list, quots: Sequence[dict], rows: list, k) -> List[Poly]:
        """The row ``k * (sum(c * row for c, row in heads) - sum(q[i] * rows[i]))``, ``q`` raw."""
        terms = heads + [(-_normalized(self.ring, q), row) for q, row in zip(quots, rows) if q]
        if len(terms) == 1 and terms[0][0].is_constant():  # one constant: scale its row
            return [r.scale(k * terms[0][0].constant_value()) for r in terms[0][1]]
        if k != 1:
            terms = [(c.scale(k), row) for c, row in terms]
        return _row_sum(self.ring, len(self.gens), terms)

    def _insert(self, f: Poly, heads: list, stop_at_unit: bool) -> bool:
        """Divide ``f`` by the basis; make a nonzero remainder monic and
        scale its row by the same ``k``; note a constant, add with pair update.

        The remainder comes as integer terms over ``d`` (1 over GF(p), the
        lcm of its denominators over QQ), its lead ``lm`` first: over the
        lead's integer it is monic, one ``_norm``, and ``k = d / lead``, a
        ``Fraction`` over QQ formed only when a row is kept.

        Returns True when the remainder is a constant and ``stop_at_unit``
        is set, so the loop should stop.
        """
        quots, rem = _reduce(f, self.G, self.want, self.leads)
        if not rem:
            return False
        lm, p, d, k = next(iter(rem)), self.fld.char, 1, self.fld.one
        if not p:
            d = lcm(*[den for _, den in rem.values()])
            rem = {m: n * (d // den) for m, (n, den) in rem.items()}
        h = _norm(self.ring, rem[lm], rem)
        _set(h, "_lm", lm)
        if rem[lm] != d and self.want:
            k = pow(rem[lm], -1, p) if p else Fraction(d, rem[lm])
        row = self._combine(heads, quots, self.rows, k) if self.want else []
        if h.is_constant():
            self.unit_row = row
            if stop_at_unit:
                return True
        self._update_pairs(lm)
        self.G.append(h)
        self.leads.append(lm)
        self.rows.append(row)
        return False

    def _update_pairs(self, h_lm: int):
        """Gebauer-Moller pair update for an incoming element led by ``h_lm``.

        On packed monomials: ``a`` divides ``b`` when ``((b + G) - a) & G
        == G``, and ``((a | G) - (G >> 31)) & G`` marks the fields where
        ``a`` is nonzero.  Coprimality is tested first: coprime leading
        monomials share no nonzero variable field, their lcm is their sum,
        and their pair is skipped.  A sum past the exponent limit divides
        no lcm in range, so it stands as ``G``, which divides none."""
        ring = self.ring
        G, k = ring._guard, ring._graded
        one = G >> 31
        variables = G ^ (1 << 32 * k + 31) if k else G  # not a degree field
        leads, h_idx = self.leads, len(self.leads)
        h_support = ((h_lm | G) - one) & variables
        coprime = [not ((g | G) - one) & h_support for g in leads]
        lcms = [
            (G if (h_lm + g) & G else h_lm + g) if c else ring._lcm(h_lm, g)
            for g, c in zip(leads, coprime)
        ]
        kept: List[int] = []
        for i, li in enumerate(lcms):
            bound = li + G
            for lj in () if coprime[i] else lcms[i + 1 :] + [lcms[j] for j in kept]:
                if (bound - lj) & G == G:  # the first dominating lcm ends the scan
                    break
            else:
                kept.append(i)
        neg = ring._neg
        new_pairs = [(lcms[i] ^ neg, next(self.made), lcms[i], i, h_idx) for i in kept if not coprime[i]]
        survivors = []
        for pair in self.pairs:
            _, _, l, i, j = pair
            if (l + G - h_lm) & G != G or lcms[i] == l or lcms[j] == l:
                survivors.append(pair)
        self.pairs = survivors + new_pairs

    def run(self, stop_at_unit: bool) -> None:
        ring, n = self.ring, len(self.gens)
        one, zero = ring.one, ring.zero
        for i, g in enumerate(self.gens):
            heads = [(one, [one if j == i else zero for j in range(n)])] if self.want else []  # unit vector
            if self._insert(g, heads, stop_at_unit):
                return
        while self.pairs:
            best = min(self.pairs)
            self.pairs.remove(best)
            _, _, l, i, j = best
            ti = _poly(ring, {l - self.leads[i]: 1})
            tj = -_poly(ring, {l - self.leads[j]: 1})
            s = _dot(ring, [(ti, self.G[i]), (tj, self.G[j])])
            if self._insert(s, [(ti, self.rows[i]), (tj, self.rows[j])], stop_at_unit):
                return

    def reduced(self) -> Tuple[Tuple[Poly, ...], Tuple[Tuple[Poly, ...], ...]]:
        """Minimal, tail-reduced, monic basis sorted by leading monomial."""
        neg, G, leads = self.ring._neg, self.ring._guard, self.leads
        order = sorted(range(len(leads)), key=lambda i: leads[i] ^ neg)
        kept: List[int] = []
        for i in order:
            bound = leads[i] + G
            if not any((bound - leads[j]) & G == G for j in kept):
                kept.append(i)
        basis = [self.G[i] for i in kept]
        rows = [list(self.rows[i]) for i in kept]
        for pos in range(len(basis)):
            others = basis[:pos] + basis[pos + 1 :]
            quots, r = _reduce(basis[pos], others, self.want)
            if self.want and any(quots):
                heads = [(self.ring.one, rows[pos])]
                other_rows = rows[:pos] + rows[pos + 1 :]
                rows[pos] = self._combine(heads, quots, other_rows, self.fld.one)
            basis[pos] = _normalized(self.ring, r)
        return tuple(basis), tuple(tuple(rw) for rw in rows)


class GroebnerBasis(_Frozen):
    """Reduced monic basis of an ideal, with generator cofactors.

    ``basis[i] == sum(cofactors[i][j] * gens[j] for j)`` holds exactly;
    this identity is what downstream certificate checks re-evaluate.
    """

    __slots__ = ("ring", "gens", "basis", "cofactors", "_leads")

    def __init__(self, ring: PolyRing, gens: Sequence[Poly]):
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        rows = not isinstance(self, _RelationBasis)
        engine = _Engine(gens, ring, want_cofactors=rows)
        engine.run(stop_at_unit=False)
        basis, cofactors = engine.reduced()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "cofactors", cofactors if rows else None)
        object.__setattr__(self, "_leads", tuple(b._lead() for b in basis))

    def __repr__(self):
        return f"GroebnerBasis({[str(b) for b in self.basis]})"

    def normal_form(self, f: Poly) -> Poly:
        """The remainder of ``f`` on division by the basis.

        When no term of ``f`` is divisible by a leading monomial of the
        basis, ``f`` is its own remainder and is returned as it is; this
        relies on ``f`` holding reduced coefficients, as every ``Poly``
        built through ``PolyRing`` and its arithmetic does.
        """
        leads, G = self._leads, self.ring._guard
        for m in f._t:
            bound = m + G
            for lm in leads:
                if (bound - lm) & G == G:
                    return _normalized(self.ring, _reduce(f, self.basis, False, leads)[1])
        return f

    def contains_one(self) -> bool:
        """Whether the reduced basis is one element led by 1 (packed as 0)."""
        return self._leads == (0,)

    def member(self, f: Poly) -> Optional[List[Poly]]:
        """Cofactors of ``f`` on the original generators, or None."""
        if self.cofactors is None:
            raise ValueError("a relation basis keeps no cofactor rows")
        quots, r = divide(f, self.basis)
        if not r.is_zero():
            return None
        terms = [(q, row) for q, row in zip(quots, self.cofactors) if q._t]
        return _row_sum(self.ring, len(self.gens), terms)


class _RelationBasis(GroebnerBasis):
    """A presented algebra's basis on the engine's row-free path: ``cofactors`` is None."""

    __slots__ = ()


def ideal_contains_one(gens: Sequence[Poly], ring: PolyRing) -> bool:
    """Unit-ideal test that stops at the first constant remainder."""
    engine = _Engine(gens, ring, want_cofactors=False)
    engine.run(stop_at_unit=True)
    return engine.unit_row is not None


def unit_ideal_certificate(
    gens: Sequence[Poly], ring: PolyRing
) -> Optional[List[Poly]]:
    """Cofactors ``e`` with ``1 == sum(e[j]*gens[j])``, or None.

    Stops at the first constant remainder instead of completing the basis,
    and returns that remainder's row as it is.  Every row of the engine
    satisfies ``rows[i]·gens == G[i]``, and ``_insert`` makes the
    remainder monic and scales its row by the same ``k``, the inverse of
    the remainder's leading coefficient; so the constant is 1, and its row
    times the generators is exactly 1.
    """
    engine = _Engine(gens, ring, want_cofactors=True)
    engine.run(stop_at_unit=True)
    return engine.unit_row
