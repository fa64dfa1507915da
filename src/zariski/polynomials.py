"""Sparse multivariate polynomials over an exact field.

A ``Poly`` is an immutable sparse map from monomials to nonzero
coefficients, tagged with its ``PolyRing``.  Monomial orders (graded
reverse lexicographic by default, lexicographic on request, both ranking
the variables in declaration order, and the elimination order
``inner.eliminating()``) live in ``MonomialOrder`` and drive leading-term
selection for the division and basis-completion algorithms built on top.

Coefficients take one integer form for both fields, the layout of FLINT's
``fmpq_poly``: integer terms ``_t`` over one denominator ``_d``, with
``_d > 0`` and ``gcd(_d, *_t.values()) == 1`` over QQ, and ``_d == 1`` and
residues in ``1 .. p-1`` over GF(p).  Both forms are canonical.  The
arithmetic runs on these ints; ``Fraction`` appears only at the boundary,
where ``terms``, ``constant_value`` and printing return the field's
scalars and ``from_terms``, ``const`` and ``scale`` take them.

Inside the package a monomial is one int, as in the POLY structure of
Monagan & Pearce (*Sparse polynomial division using a heap*, JSC 2011;
Maple 17, 2013).  The int holds one 32-bit field per exponent, 31 value
bits under a guard bit, laid out by the ring's order from the top down:

- ``grevlex``: the total degree, then x_n ... x_1;
- ``lex``: x_1 ... x_n;
- ``inner.eliminating()``: the new variable, then the inner order's layout.

So a product of monomials is the sum of their ints; with ``G`` the guard
bits of every field, ``a`` divides ``b`` when ``((b + G) - a) & G == G``;
and the order compares ``m ^ NEG`` as ints, ``NEG`` the value bits of the
fields the order reverses (the variables under grevlex).  Every exponent,
and every total degree a degree field holds, stays below ``2**31``: a
monomial past that raises ``_ExponentLimitError``, a ``ValueError``.  The
public surface speaks exponent tuples: ``Poly.terms``, ``Poly(ring,
terms)``, ``PolyRing.from_terms`` and printing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul, or_
from typing import Dict, Iterable, List, Sequence, Tuple

from .fields import Field, Scalar, _Value

Monomial = Tuple[int, ...]

# every exponent and every degree field stays below this; a field is 32 bits
_LIMIT = 1 << 31
_VALUE = _LIMIT - 1
_FIELD = (1 << 32) - 1

# ``object.__setattr__`` and ``object.__new__`` bound once: ``_poly`` runs
# for every result
_set = object.__setattr__
_new = object.__new__


class _ExponentLimitError(ValueError):
    """A monomial with an exponent, or a total degree under a graded
    order, of ``2**31`` or more: more than a packed field holds."""

    def __init__(self, ring: "PolyRing", m: Monomial):
        super().__init__(
            f"monomial {_monomial_text(ring.names, m)} is past the exponent limit: "
            f"every exponent, and the total degree under a graded order, must be "
            f"below 2^31 = {_LIMIT}"
        )


class MonomialOrder(_Value):
    """A monomial order, ``grevlex`` or ``lex``, that ranks the variables in
    the declaration order of the ring, or the elimination order
    ``inner.eliminating()`` on one more variable."""

    __slots__ = ("kind", "inner")

    def __init__(self, kind: str = "grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "inner", None)

    def _key(self):
        return (self.kind, self.inner)

    def __repr__(self):
        if self.inner is not None:
            return f"{self.inner!r}.eliminating()"
        return f"MonomialOrder({self.kind!r})"

    def eliminating(self) -> "MonomialOrder":
        """The block order for one more variable, appended last, that
        eliminates it: a higher power of the new variable is larger, and
        this order ranks the old variables within each power.  A monomial
        that involves the new variable outranks every monomial free of it
        (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, §3.1)."""
        block = object.__new__(MonomialOrder)
        object.__setattr__(block, "kind", "elim")
        object.__setattr__(block, "inner", self)
        return block


def _layout(order: MonomialOrder, n: int) -> Tuple[Tuple[int, ...], int]:
    """``(fields, k)`` for ``order`` on ``n`` variables: the field index of
    each variable, counted from the lowest, and the number ``k`` of leading
    variables a grevlex degree field sums (0 when there is none).  Those
    ``k`` variables sit in fields ``0 .. k-1`` and their degree in field ``k``."""
    if order.inner is not None:
        fields, k = _layout(order.inner, n - 1)
        return fields + (n - 1 + (k > 0),), k
    if order.kind == "lex":
        return tuple(range(n - 1, -1, -1)), 0
    return tuple(range(n)), n


class PolyRing(_Value):
    """A polynomial ring ``field[names]`` with a fixed monomial order."""

    __slots__ = (
        "field", "names", "order",
        "_shifts", "_units", "_graded", "_guard", "_neg",
    )

    def __init__(
        self,
        field: Field,
        names: Sequence[str],
        order: MonomialOrder | None = None,
    ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm.isidentifier():
                raise ValueError(f"variable name {nm!r} is not an identifier")
        order = order if order is not None else MonomialOrder()
        fields, k = _layout(order, len(names))
        nfields = len(names) + (k > 0)
        degree = 1 << 32 * k if k else 0
        _set(self, "field", field)
        _set(self, "names", names)
        _set(self, "order", order)
        # the bit offset of x_i's field, and x_i as a packed monomial, its
        # degree field included
        shifts = tuple([32 * f for f in fields])
        _set(self, "_shifts", shifts)
        _set(self, "_units", tuple([(1 << s) + (degree if i < k else 0) for i, s in enumerate(shifts)]))
        _set(self, "_graded", k)
        # ((1 << 32*n) - 1) // _FIELD has a 1 at the bottom of each of n fields
        _set(self, "_guard", _LIMIT * (((1 << 32 * nfields) - 1) // _FIELD))
        _set(self, "_neg", _VALUE * (((1 << 32 * k) - 1) // _FIELD))

    def _key(self):
        return (self.field, self.names, self.order)

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"

    @property
    def nvars(self) -> int:
        return len(self.names)

    # -- packed monomials -------------------------------------------------
    def _pack(self, m: Monomial) -> int:
        """The packed int of the exponent tuple ``m``."""
        if len(m) != len(self.names):
            raise ValueError(f"monomial {m} has wrong arity for {self!r}")
        if m:
            if min(m) < 0:
                raise ValueError(f"monomial {m} has a negative exponent")
            if max(m) >= _LIMIT or sum(m[: self._graded]) >= _LIMIT:
                raise _ExponentLimitError(self, m)
        return sum(map(mul, m, self._units))

    def _mono(self, m: int) -> Monomial:
        """The exponent tuple of the packed int ``m``; all 32 bits of each
        field, so a monomial past the limit reads as it is."""
        return tuple([(m >> s) & _FIELD for s in self._shifts])

    def _lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials: the larger of each pair of
        fields, then the degree field set to the sum of the graded
        variables' fields.  Fields add up modulo ``2**32 - 1``, as
        ``2**32`` is 1 there; the sum is at most ``deg a + deg b``, below
        that modulus, so the remainder is the sum itself."""
        G = self._guard
        g = ((a | G) - b) & G  # a guard bit where a's field is at least b's
        keep = g - (g >> 31)
        m = (a & keep) | (b & ~keep)
        k = self._graded
        if k:
            d = (m & self._neg) % _FIELD
            if d >= _LIMIT:
                raise _ExponentLimitError(self, self._mono(m))
            m = (m & ~(_FIELD << 32 * k)) | (d << 32 * k)
        return m

    # -- constructors ---------------------------------------------------
    def from_terms(self, terms: Dict[Monomial, Scalar]) -> "Poly":
        """The polynomial with these terms, ``int`` or ``Fraction``
        coefficients; zero coefficients are dropped.  Over GF(p) each
        coefficient becomes its residue (so ``{(0,): p}`` gives the zero
        polynomial, and a denominator is inverted mod p)."""
        pack = self._pack
        return _over_lcm(self, {pack(m): (c.numerator, c.denominator) for m, c in terms.items()})

    @property
    def zero(self) -> "Poly":
        return _poly(self, {})

    @property
    def one(self) -> "Poly":
        return _poly(self, {0: 1})

    def const(self, c: Scalar) -> "Poly":
        return _norm(self, c.denominator, {0: c.numerator})

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self!r}")
        return _poly(self, {self._units[i]: 1})

    def gens(self) -> Tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    # -- derived rings ----------------------------------------------------
    def with_vars(self, extra: Sequence[str], order: MonomialOrder) -> "PolyRing":
        """Same field, the old variables followed by ``extra`` new ones."""
        return PolyRing(self.field, self.names + tuple(extra), order)

    def lift(self, p: "Poly", target: "PolyRing") -> "Poly":
        """Rename ``p`` into ``target``, matching variables by name, either
        way: ``target`` may lack a variable that ``p`` does not involve.

        When one ring's variables lead the other's and are packed alike (an
        elimination ring over its base, in both directions), the packed
        terms carry over as they are; otherwise each monomial is packed
        again by ``target._pack``, which checks the exponent limit."""
        if p.ring is not self and p.ring != self:
            raise ValueError("polynomial does not belong to this ring")
        for i, nm in enumerate(self.names):
            if nm not in target.names and p.involves(i):
                raise ValueError(f"polynomial involves {nm!r}, absent from target ring")
        n = min(self.nvars, target.nvars)
        if target.names[:n] == self.names[:n] and target._units[:n] == self._units[:n]:
            return _poly(target, p._t, p._d)
        where = [(i, target.names.index(nm)) for i, nm in enumerate(self.names) if nm in target.names]
        mono, pack = self._mono, target._pack
        terms = {}
        for m, c in p._t.items():
            e, moved = mono(m), [0] * target.nvars
            for i, j in where:
                moved[j] = e[i]
            terms[pack(tuple(moved))] = c
        return _poly(target, terms, p._d)

    def _staircase(self, leads: Sequence[int]) -> List[int]:
        """The packed monomials that no packed lead divides, in increasing
        order.  Raises ``ValueError`` when they are infinitely many: when
        no lead is a pure power of some variable."""
        G = self._guard
        stairs = [0]
        for nm, s, unit in zip(self.names, self._shifts, self._units):
            pure = [e for lm in leads if (e := (lm >> s) & _VALUE) and lm == e * unit]
            if not pure:
                raise ValueError(f"algebra is not finite over its field: no power of {nm!r} reduces")
            # a multiple of a divisible monomial is divisible: drop it at once
            stairs = [
                m for m in (a + e * unit for a in stairs for e in range(min(pure)))
                if all((m + G - lm) & G != G for lm in leads)
            ]
        return sorted(stairs, key=self._neg.__xor__)


class Poly(_Value):
    """Immutable sparse polynomial, integer terms ``_t`` over ``_d``;
    construct through ``PolyRing`` methods, or as ``Poly(ring, terms)``
    from a dict of exponent tuples to ``int`` or ``Fraction`` scalars."""

    # ``_hash``, ``_lm`` and ``_div`` stay unset until their first read
    __slots__ = ("ring", "_t", "_d", "_lm", "_div")

    def __new__(cls, ring: PolyRing, terms: Dict[Monomial, Scalar]):
        return ring.from_terms(terms)

    def _scalar(self, c: int) -> Scalar:
        """The field's scalar of the integer coefficient ``c``: the
        ``Fraction`` ``c / _d`` over QQ, ``c`` itself over GF(p)."""
        return c if self.ring.field.char else Fraction(c, self._d)

    @property
    def terms(self) -> Dict[Monomial, Scalar]:
        """The terms keyed by exponent tuples, with the field's scalars as
        coefficients: a new dict on every read."""
        mono, scalar = self.ring._mono, self._scalar
        return {mono(m): scalar(c) for m, c in self._t.items()}

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not any(self._t)

    def constant_value(self) -> Scalar:
        if any(self._t):
            raise ValueError("polynomial is not constant")
        return self._scalar(self._t.get(0, 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        k = self.ring._graded
        if k == self.ring.nvars:  # grevlex: the degree is the top field
            return max(self._t) >> 32 * k
        return max(map(sum, map(self.ring._mono, self._t)))

    def degree_in(self, i: int) -> int:
        shift = self.ring._shifts[i]
        return max(((m >> shift) & _VALUE for m in self._t), default=-1)

    def involves(self, i: int) -> bool:
        mask = _VALUE << self.ring._shifts[i]
        return any(m & mask for m in self._t)

    # -- leading data ------------------------------------------------------
    def _lead(self) -> int:
        """The packed leading monomial, kept after first use."""
        try:
            return self._lm
        except AttributeError:
            if not self._t:
                raise ValueError("zero polynomial has no leading monomial") from None
            lm = max(self._t, key=self.ring._neg.__xor__)
            _set(self, "_lm", lm)
            return lm

    def _division_form(self) -> Tuple[int, int, list]:
        """``(dd, lc, tail)`` on ints with ``self == (lc*x^lm + tail) / dd``,
        ``tail`` on packed monomials, kept after first use: the form
        ``groebner.divide`` reduces by.

        Over QQ it is ``(_d, _t)`` itself, negated when the leading
        coefficient is negative so that ``lc > 0``; over GF(p) ``dd`` is the
        inverse of the leading coefficient, ``lc`` is 1 and ``tail`` is monic.
        """
        try:
            return self._div
        except AttributeError:
            lm = self._lead()
            terms = self._t
            p = self.ring.field.char
            if p:
                dd = pow(terms[lm], -1, p)
                ints = {m: c * dd % p for m, c in terms.items()}
            elif terms[lm] < 0:  # no step then scales by a negative factor
                dd, ints = -self._d, {m: -c for m, c in terms.items()}
            else:
                dd, ints = self._d, dict(terms)
            lc = ints.pop(lm)
            form = (dd, lc, list(ints.items()))
            _set(self, "_div", form)
            return form

    def sorted_terms(self) -> Iterable[Tuple[Monomial, Scalar]]:
        """Terms in decreasing monomial order, with the field's scalars."""
        mono, t, scalar = self.ring._mono, self._t, self._scalar
        for m in sorted(t, key=self.ring._neg.__xor__, reverse=True):
            yield mono(m), scalar(t[m])

    # -- arithmetic --------------------------------------------------------
    # Coefficients are handled as plain ints here rather than through
    # ``Field``: over GF(p) residues are reduced mod p once per result term;
    # over QQ integer terms are combined over their denominators and the
    # result is normalized once by ``_norm``.
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = self.ring.field.char
        if p:
            return _poly(self.ring, {m: p - c for m, c in self._t.items()})
        return _poly(self.ring, {m: -c for m, c in self._t.items()}, self._d)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(self, other, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        acc = _checked(ring, _int_product({}, self._t.items(), other._t.items()))
        p = ring.field.char
        if p:
            return _poly(ring, {m: r for m, c in acc.items() if (r := c % p)})
        return _norm(ring, self._d * other._d, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """``self**n`` on the integer terms by J. C. P. Miller's recurrence
        (``_miller``; Knuth, *TAOCP* vol. 2, §4.7), best for dense powers in
        Monagan & Pearce, *Sparse polynomial powering using heaps* (CASC
        2012): ``(|f| - 1) * |f**n|`` products, where repeated multiplication
        by the base takes ``|f| * sum(|f**j| for j < n)``.  That stays for
        ``n <= 3`` and where ``_miller`` cannot divide.  A monomial is raised
        directly, and zero is returned as it is.

        Each field of the power is at most ``n`` times the largest field
        of the base, reached by the ``n``-th power of a base term; that is
        checked against the exponent limit before anything is built.  When
        the OR of the base's monomials leaves the top ``b`` value bits of
        every field clear, ``b`` the bit length of ``n``, every field stays
        below ``2**(31 - b) * n <= 2**31`` and the terms need no check.
        A monomial the recurrence forms is a monomial of the power plus one
        of the base, each field of both below ``2**31``: their sum carries
        into no other field, so shifting it back down is exact."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return self.ring.one
        if n == 1 or not self._t:
            return self
        ring = self.ring
        fields, b = reduce(or_, self._t, 0), n.bit_length()
        if fields and (b > 31 or fields & (((1 << b) - 1) << (31 - b)) * (ring._guard >> 31)):
            for m in self._t:
                ring._pack(tuple(e * n for e in ring._mono(m)))
        p = ring.field.char
        if len(self._t) == 1:  # gcd(c, d) == 1, so gcd(c**n, d**n) == 1
            ((m, c),) = self._t.items()
            return _poly(ring, {m * n: pow(c, n, p) if p else c**n}, self._d**n)
        acc = _miller(ring, self._t, n) if n > 3 else None
        if acc is None:
            acc, base = self._t, list(self._t.items())
            for _ in range(n - 1):
                acc = _int_product({}, acc.items(), base)
                if p:
                    acc = {m: r for m, c in acc.items() if (r := c % p)}
        if p:
            return _poly(ring, acc)
        return _norm(ring, self._d**n, acc)

    def scale(self, c: Scalar) -> "Poly":
        """``c * self`` for an ``int`` or ``Fraction`` scalar ``c``; an
        ``int`` over GF(p) is reduced in the one pass over the terms."""
        p = self.ring.field.char
        if p and type(c) is int:
            return _poly(self.ring, {m: r for m, v in self._t.items() if (r := v * c % p)})
        n = c.numerator
        return _norm(self.ring, self._d * c.denominator, {m: v * n for m, v in self._t.items()})

    # -- substitution -------------------------------------------------------
    def substitute(self, images: Sequence["Poly"], target: PolyRing) -> "Poly":
        """Evaluate at ``names[i] -> images[i]``, landing in ``target``.

        Each image power that a monomial needs is computed once per call
        (``images[i]`` itself for exponent 1).  Every monomial's product of
        powers, times its coefficient, is added into one integer dict over
        ``D``, the running lcm of the products' denominators (1 over
        GF(p)); the dict is reduced mod p, or normalized over ``_d * D``,
        once at the end.  Raises ``ValueError`` unless there is one image
        per variable and every image lies in ``target``.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        for im in images:
            if im.ring != target:
                raise ValueError("image from a ring other than the target")
        powers: Dict[Tuple[int, int], Poly] = {}
        acc: Dict[int, int] = {}
        get = acc.get
        D = 1
        shifts = self.ring._shifts
        for m, c in self._t.items():
            term = None
            if m:
                for i, s in enumerate(shifts):
                    e = (m >> s) & _VALUE
                    if e:
                        pw = powers.get((i, e))
                        if pw is None:
                            pw = powers[i, e] = images[i] ** e
                        term = pw if term is None else term * pw
            if term is None:
                acc[0] = get(0, 0) + c * D
                continue
            d = term._d
            if D % d:  # a new denominator: bring the sum over the lcm
                k = d // gcd(D, d)
                D *= k
                acc = {tm: v * k for tm, v in acc.items()}
                get = acc.get
            c *= D // d
            for tm, tc in term._t.items():
                acc[tm] = get(tm, 0) + c * tc
        p = target.field.char
        if p:
            return _poly(target, {m: r for m, v in acc.items() if (r := v % p)})
        return _norm(target, self._d * D, acc)

    # -- equality / hashing ---------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self._d == other._d and self._t == other._t

    __hash__ = _Value.__hash__

    def _key(self):
        return (self.ring, self._d, frozenset(self._t.items()))

    # -- display ---------------------------------------------------------------
    def __str__(self):
        if not self._t:
            return "0"
        field = self.ring.field
        names = self.ring.names
        chunks: list[str] = []
        for m, c in self.sorted_terms():
            vars_part = _monomial_text(names, m) if any(m) else ""
            negative = (c < 0) if field.char == 0 else False
            mag = -c if negative else c
            coeff_part = field.scalar_str(mag)
            if vars_part and coeff_part == "1":
                body = vars_part
            elif vars_part:
                body = f"{coeff_part}*{vars_part}"
            else:
                body = coeff_part
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


def _poly(ring: PolyRing, t: Dict[int, int], d: int = 1) -> Poly:
    """The ``Poly`` with integer terms ``t`` over ``d``, packed and
    canonical, as they are."""
    f = _new(Poly)
    _set(f, "ring", ring)
    _set(f, "_t", t)
    _set(f, "_d", d)
    return f


def _norm(ring: PolyRing, d: int, acc: Dict[int, int]) -> Poly:
    """The canonical ``Poly`` of the integer terms ``acc`` over ``d != 0``,
    zero terms dropped.  Over GF(p) each term is multiplied by the inverse
    of ``d`` mod p (``ZeroDivisionError`` when p divides ``d``); over QQ
    ``gcd(d, *acc.values())``, with the sign of ``d``, is divided out."""
    p = ring.field.char
    if p:
        if d != 1:
            if not d % p:
                raise ZeroDivisionError(f"denominator {d} is 0 in GF({p})")
            d = pow(d, -1, p)
        return _poly(ring, {m: r for m, c in acc.items() if (r := c * d % p)})
    acc = {m: c for m, c in acc.items() if c}
    g = gcd(d, *acc.values()) if d > 0 else -gcd(d, *acc.values())
    if g != 1:
        d //= g
        acc = {m: c // g for m, c in acc.items()}
    return _poly(ring, acc, d)


def _over_lcm(ring: PolyRing, fracs: Dict[int, Tuple[int, int]]) -> Poly:
    """The ``Poly`` of the terms ``m: (numerator, denominator)``, brought
    over the lcm of the denominators and normalized once."""
    d = lcm(*[den for _, den in fracs.values()])
    return _norm(ring, d, {m: n * (d // den) for m, (n, den) in fracs.items()})


def _monomial_text(names: Sequence[str], m: Monomial) -> str:
    """``x^2*y`` for the exponents ``(2, 1)``; ``1`` for the unit monomial."""
    return "*".join(
        f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e
    ) or "1"


def poly_sort_key(p: Poly) -> tuple:
    """Total order on polynomials of one ring, for canonical generator lists."""
    neg, d = p.ring._neg, p._d
    key = [(m ^ neg, c if d == 1 else Fraction(c, d)) for m, c in p._t.items()]
    return (p.total_degree(), tuple(sorted(key, reverse=True)))


# -- coefficient loops ---------------------------------------------------------
# Integer kernels behind ``Poly`` arithmetic, on packed monomials and the
# integer terms of each operand.


def _plus(f: Poly, g: Poly, sign: int) -> Poly:
    """``f + sign * g`` for ``sign`` 1 or -1, summed over ``lcm(f._d, g._d)``."""
    df, dg = f._d, g._d
    d = lcm(df, dg)
    acc = dict(f._t) if df == d else {m: c * (d // df) for m, c in f._t.items()}
    get = acc.get
    s = sign * (d // dg)
    for m, c in g._t.items():
        acc[m] = get(m, 0) + s * c
    return _norm(f.ring, d, acc)


def _int_product(acc: Dict[int, int], a: Iterable, b: Iterable) -> Dict[int, int]:
    """``acc`` plus the unreduced products of two term lists, per monomial."""
    b = list(b)
    get = acc.get
    for m1, c1 in a:
        for m2, c2 in b:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


def _miller(ring: PolyRing, t: Dict[int, int], n: int) -> Dict[int, int] | None:
    """The terms of ``f**n``, ``f`` the integer terms ``t`` (residues over
    GF(p)), by Miller's recurrence; ``None`` where it cannot divide.

    Euler's operator ``E = sum(x_j * d/dx_j)`` has ``f * E(f**n) == n *
    E(f) * f**n``.  Number the total-degree parts ``g_i`` of ``f`` by their
    distance ``i <= D`` from an end of its degree range whose part ``g_0 =
    c0 * x**m0`` is one term, and the parts ``Q_k`` of ``f**n`` alike from
    ``Q_0 = c0**n * x**(n*m0)``.  Comparing parts gives::

        k * c0 * x**m0 * Q_k == sum(((n+1)*i - k) * g_i * Q_(k-i) for i = 1 .. min(k, D))

    So each ``Q_k`` is one integer dict shifted down by ``m0`` and divided
    by ``k * c0``: with ``//`` over QQ, exact as ``t**n`` is integral, and
    mod p over GF(p), which needs ``p > n * D``.  Only the ``k`` that some
    ``Q_(k-i)`` reaches are formed, off a heap: a degree gap costs no step."""
    parts: Dict[int, list] = {}
    for e, mc in zip(map(sum, map(ring._mono, t)), t.items()):
        parts.setdefault(e, []).append(mc)
    lo, hi = min(parts), max(parts)
    end, p, top = lo if len(parts[lo]) == 1 else hi, ring.field.char, n * (hi - lo)
    if len(parts[end]) > 1 or p and p <= top:
        return None
    ((m0, c0),) = parts.pop(end)
    g = sorted((abs(e - end), gi) for e, gi in parts.items())
    Q = {0: [(m0 * n, pow(c0, n, p) if p else c0**n)]}
    todo, last = [i for i, _ in g], 0
    while todo:
        k = heappop(todo)
        if k == last:
            continue
        last, acc, q = k, {}, pow(k * c0, -1, p) if p else k * c0
        for i, gi in g:
            if (w := (n + 1) * i - k) and (prev := Q.get(k - i)):
                _int_product(acc, [(m, c * w) for m, c in gi], prev)
        if p:
            Q[k] = [(m - m0, r) for m, c in acc.items() if (r := c * q % p)]
        else:
            Q[k] = [(m - m0, c // q) for m, c in acc.items() if c]
        for i, _ in g if Q[k] else ():
            if k + i <= top:
                heappush(todo, k + i)
    return {m: c for part in Q.values() for m, c in part}


def _checked(ring: PolyRing, acc: Dict[int, int]) -> Dict[int, int]:
    """``acc`` as it is, unless a product set a guard bit: then the exponent
    limit is passed, and the error names the first such monomial.  A field
    of a sum of two packed monomials stays below ``2**32``, so the guard bit
    catches every overflow and no carry reaches the next field."""
    G = ring._guard
    if reduce(or_, acc, 0) & G:
        for m in acc:
            if m & G:
                raise _ExponentLimitError(ring, ring._mono(m))
    return acc


def _dot(ring: PolyRing, pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """``sum(l * r for l, r in pairs)`` summed in one integer dict: the
    kernel behind every cofactor row and S-polynomial.

    Over GF(p) each result term is reduced once.  Over QQ each product
    ``(a * b) / (dl * dr)`` of the operands' integer terms is scaled to
    the lcm ``d`` of the ``dl * dr``, and the sum is normalized once over
    ``d``.  No pairs give the ring's zero.
    """
    acc: Dict[int, int] = {}
    p = ring.field.char
    if p:
        for l, r in pairs:
            _int_product(acc, l._t.items(), r._t.items())
        _checked(ring, acc)
        return _poly(ring, {m: v for m, c in acc.items() if (v := c % p)})
    forms = [(l._d * r._d, l._t, r._t) for l, r in pairs if l._t and r._t]
    d = lcm(*[f[0] for f in forms])
    for dp, a, b in forms:
        s = d // dp
        _int_product(acc, [(m, c * s) for m, c in a.items()] if s != 1 else a.items(), b.items())
    return _norm(ring, d, _checked(ring, acc))
