"""Sparse multivariate polynomials over an exact field.

A ``Poly`` is an immutable sparse map from monomials to nonzero
coefficients, tagged with its ``PolyRing``.  Monomial orders (graded
reverse lexicographic by default, lexicographic on request, both ranking
the variables in declaration order, and the elimination order
``inner.eliminating()``) live in ``MonomialOrder`` and drive leading-term
selection for the division and basis-completion algorithms built on top.

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
terms)``, ``PolyRing.from_terms``, ``lead_monomial`` and printing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul, or_
from typing import Dict, Iterable, Sequence, Tuple

from .fields import Field, Scalar

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


class MonomialOrder:
    """A monomial order, ``grevlex`` or ``lex``, that ranks the variables in
    the declaration order of the ring, or the elimination order
    ``inner.eliminating()`` on one more variable."""

    __slots__ = ("kind", "inner")

    def __init__(self, kind: str = "grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "inner", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("MonomialOrder is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash(("MonomialOrder", self.kind, self.inner))

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


class PolyRing:
    """A polynomial ring ``field[names]`` with a fixed monomial order."""

    __slots__ = (
        "field", "names", "order", "_hash",
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
        _set(self, "_hash", hash(("PolyRing", field, names, order)))
        # the bit offset of x_i's field, and x_i as a packed monomial, its
        # degree field included
        shifts = tuple([32 * f for f in fields])
        _set(self, "_shifts", shifts)
        _set(self, "_units", tuple([(1 << s) + (degree if i < k else 0) for i, s in enumerate(shifts)]))
        _set(self, "_graded", k)
        # ((1 << 32*n) - 1) // _FIELD has a 1 at the bottom of each of n fields
        _set(self, "_guard", _LIMIT * (((1 << 32 * nfields) - 1) // _FIELD))
        _set(self, "_neg", _VALUE * (((1 << 32 * k) - 1) // _FIELD))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PolyRing is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def monomial_key(self, m: Monomial) -> int:
        """An int that ranks exponent tuples as the ring's order does."""
        return self._neg ^ self._pack(m)

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
        """The polynomial with these terms; zero coefficients are dropped.

        Coefficients are brought to the field's canonical form first: over
        GF(p) the residue in ``{0, ..., p-1}`` (so ``{(0,): p}`` gives the
        zero polynomial), over QQ a ``Fraction`` (so an ``int`` coefficient
        never reaches ``Field.inv`` as an ``int``).
        """
        p = self.field.char
        pack = self._pack
        if p:
            return _poly(self, {pack(m): r for m, c in terms.items() if (r := c % p)})
        return _poly(self, {pack(m): Fraction(c) for m, c in terms.items() if c})

    @property
    def zero(self) -> "Poly":
        return _poly(self, {})

    @property
    def one(self) -> "Poly":
        return _poly(self, {0: self.field.one})

    def const(self, c: Scalar) -> "Poly":
        c = self.field.add(c, self.field.zero)
        if not c:
            return self.zero
        return _poly(self, {0: c})

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self!r}")
        return _poly(self, {self._units[i]: self.field.one})

    def gens(self) -> Tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def var_named(self, name: str) -> "Poly":
        return self.var(self.names.index(name))

    # -- derived rings ----------------------------------------------------
    def with_vars(self, extra: Sequence[str], order: MonomialOrder | None = None) -> "PolyRing":
        """Same field, the old variables followed by ``extra`` new ones."""
        return PolyRing(self.field, self.names + tuple(extra), order)

    def lift(self, p: "Poly", target: "PolyRing") -> "Poly":
        """Reinterpret ``p`` in ``target``, matching variables by name.

        When ``target`` puts this ring's variables first and packs them
        alike (an elimination order over this ring's order), the packed
        terms carry over as they are."""
        if p.ring is not self and p.ring != self:
            raise ValueError("polynomial does not belong to this ring")
        n = self.nvars
        if target.names[:n] == self.names and target._units[:n] == self._units:
            return _poly(target, p._t)
        where = [target.names.index(nm) for nm in self.names]
        mono, pack = self._mono, target._pack
        terms = {}
        for m, c in p._t.items():
            big = [0] * target.nvars
            for i, e in zip(where, mono(m)):
                big[i] = e
            terms[pack(tuple(big))] = c
        return _poly(target, terms)

    def project(self, p: "Poly", target: "PolyRing") -> "Poly":
        """Map ``p`` into the smaller ring ``target`` (matching names).

        Raises ``ValueError`` if ``p`` involves a variable absent from
        ``target``.
        """
        where = []
        for i, nm in enumerate(self.names):
            where.append(target.names.index(nm) if nm in target.names else -1)
        mono, pack = self._mono, target._pack
        terms: Dict[int, Scalar] = {}
        for m, c in p._t.items():
            small = [0] * target.nvars
            for i, e in enumerate(mono(m)):
                if e == 0:
                    continue
                if where[i] < 0:
                    raise ValueError(
                        f"polynomial involves {self.names[i]!r}, absent from target ring"
                    )
                small[where[i]] = e
            terms[pack(tuple(small))] = c
        return _poly(target, terms)


class Poly:
    """Immutable sparse polynomial; construct through ``PolyRing`` methods,
    or as ``Poly(ring, terms)`` from a dict of exponent tuples to canonical
    coefficients."""

    __slots__ = ("ring", "_t", "_hash", "_lm", "_div")

    def __new__(cls, ring: PolyRing, terms: Dict[Monomial, Scalar]):
        pack = ring._pack
        return _poly(ring, {pack(m): c for m, c in terms.items()})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> Dict[Monomial, Scalar]:
        """The terms keyed by exponent tuples: a new dict on every read."""
        mono = self.ring._mono
        return {mono(m): c for m, c in self._t.items()}

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not any(self._t)

    def constant_value(self) -> Scalar:
        if not self._t:
            return self.ring.field.zero
        ((m, c),) = self._t.items()
        if m:
            raise ValueError("polynomial is not constant")
        return c

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        k = self.ring._graded
        if k == self.ring.nvars:  # grevlex: the degree is the top field
            return max(self._t) >> 32 * k
        return max(map(sum, map(self.ring._mono, self._t)))

    def degree_in(self, i: int) -> int:
        if not self._t:
            return -1
        shift = self.ring._shifts[i]
        return max((m >> shift) & _VALUE for m in self._t)

    def involves(self, i: int) -> bool:
        mask = _VALUE << self.ring._shifts[i]
        return any(m & mask for m in self._t)

    # -- leading data ------------------------------------------------------
    def _lead(self) -> int:
        """The packed leading monomial, kept after first use."""
        lm = self._lm
        if lm is None:
            if not self._t:
                raise ValueError("zero polynomial has no leading monomial")
            lm = max(self._t, key=self.ring._neg.__xor__)
            _set(self, "_lm", lm)
        return lm

    def lead_monomial(self) -> Monomial:
        return self.ring._mono(self._lead())

    def lead_coeff(self) -> Scalar:
        return self._t[self._lead()]

    def _division_form(self) -> Tuple[int, int, list]:
        """``(dd, lc, tail)`` on ints with ``self == (lc*x^lm + tail) / dd``,
        ``tail`` on packed monomials, kept after first use: the form
        ``groebner.divide`` reduces by.

        Over QQ ``dd`` is the lcm of the denominators, signed so ``lc > 0``;
        over GF(p) it is the inverse of the leading coefficient, ``lc`` is 1
        and ``tail`` is monic.
        """
        form = self._div
        if form is None:
            lm = self._lead()
            terms = self._t
            p = self.ring.field.char
            if p:
                dd = pow(terms[lm], -1, p)
                ints = {m: c * dd % p for m, c in terms.items()}
            else:
                dd, items = _integer_terms(terms)
                if terms[lm] < 0:  # no step then scales by a negative factor
                    dd, items = -dd, [(m, -c) for m, c in items]
                ints = dict(items)
            lc = ints.pop(lm)
            form = (dd, lc, list(ints.items()))
            _set(self, "_div", form)
        return form

    def sorted_terms(self) -> Iterable[Tuple[Monomial, Scalar]]:
        """Terms in decreasing monomial order."""
        mono, t = self.ring._mono, self._t
        for m in sorted(t, key=self.ring._neg.__xor__, reverse=True):
            yield mono(m), t[m]

    # -- arithmetic --------------------------------------------------------
    # Coefficients are handled as plain numbers here rather than through
    # ``Field``: residues are reduced mod p once per result term, and over
    # QQ products run on integers scaled by a common denominator.
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(self.ring.field.of_int(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(self.ring, _sum_terms(self._t, other._t, self.ring.field.char))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = self.ring.field.char
        if p:
            return _poly(self.ring, {m: p - c for m, c in self._t.items()})
        return _poly(self.ring, {m: -c for m, c in self._t.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.char
        return _poly(self.ring, _sum_terms(self._t, other._t, p, negate=True))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        p = ring.field.char
        if p:
            acc = _checked(ring, _int_product({}, self._t.items(), other._t.items()))
            return _poly(ring, {m: r for m, c in acc.items() if (r := c % p)})
        da, a = _integer_terms(self._t)
        db, b = _integer_terms(other._t)
        d = da * db
        acc = _checked(ring, _int_product({}, a, b))
        return _poly(ring, {m: Fraction(c, d) for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """``self**n`` by repeated multiplication by the base, which for
        dense multivariate powers beats squaring (Fateman, *Stud. Appl.
        Math.* 1974).  The base's integer terms are taken once and the
        running product stays on ints: reduced mod p at each step over
        GF(p), divided by ``d**n`` only at the end over QQ.  A monomial is
        raised directly.

        Each field of the power is at most ``n`` times the largest field
        of the base, reached by the ``n``-th power of a base term; that is
        checked against the exponent limit before anything is built.  When
        the OR of the base's monomials leaves the top ``b`` value bits of
        every field clear, ``b`` the bit length of ``n``, every field stays
        below ``2**(31 - b) * n <= 2**31`` and the terms need no check."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return self.ring.one
        if n == 1:
            return self
        ring = self.ring
        fields, b = reduce(or_, self._t, 0), n.bit_length()
        if fields and (b > 31 or fields & (((1 << b) - 1) << (31 - b)) * (ring._guard >> 31)):
            for m in self._t:
                ring._pack(tuple(e * n for e in ring._mono(m)))
        p = ring.field.char
        if len(self._t) == 1:
            ((m, c),) = self._t.items()
            return _poly(ring, {m * n: pow(c, n, p) if p else c**n})
        if p:
            base = list(self._t.items())
            acc = self._t
            for _ in range(n - 1):
                acc = _int_product({}, acc.items(), base)
                acc = {m: r for m, c in acc.items() if (r := c % p)}
            return _poly(ring, acc)
        d, base = _integer_terms(self._t)
        acc = dict(base)
        for _ in range(n - 1):
            acc = _int_product({}, acc.items(), base)
        d **= n
        return _poly(ring, {m: Fraction(c, d) for m, c in acc.items() if c})

    def scale(self, c: Scalar) -> "Poly":
        if not c:
            return self.ring.zero
        p = self.ring.field.char
        if p:
            return _poly(self.ring, {m: v * c % p for m, v in self._t.items()})
        return _poly(self.ring, {m: v * c for m, v in self._t.items()})

    # -- substitution -------------------------------------------------------
    def substitute(self, images: Sequence["Poly"], target: PolyRing) -> "Poly":
        """Evaluate at ``names[i] -> images[i]``, landing in ``target``.

        Each image power that a monomial needs is computed once per call
        (``images[i]`` itself for exponent 1).  Every monomial's product of
        powers, times its coefficient, is added into one coefficient dict,
        which is reduced mod p once per result term; zero sums are dropped.
        Raises ``ValueError`` unless there is one image per variable and
        every image lies in ``target``.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        for im in images:
            if im.ring != target:
                raise ValueError("image from a ring other than the target")
        powers: Dict[Tuple[int, int], Poly] = {}
        acc: Dict[int, Scalar] = {}
        get = acc.get
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
                acc[0] = get(0, 0) + c
                continue
            for tm, tc in term._t.items():
                acc[tm] = get(tm, 0) + c * tc
        p = target.field.char
        if p:
            return _poly(target, {m: r for m, v in acc.items() if (r := v % p)})
        return _poly(target, {m: v for m, v in acc.items() if v})

    # -- equality / hashing ---------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return self == self.ring.const(self.ring.field.of_int(other))
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, tuple(sorted(self._t.items()))))
            _set(self, "_hash", h)
        return h

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


def _poly(ring: PolyRing, t: Dict[int, Scalar]) -> Poly:
    """The ``Poly`` whose terms are ``t``, packed and canonical, as they are."""
    f = _new(Poly)
    _set(f, "ring", ring)
    _set(f, "_t", t)
    _set(f, "_hash", None)
    _set(f, "_lm", None)
    _set(f, "_div", None)
    return f


def _monomial_text(names: Sequence[str], m: Monomial) -> str:
    """``x^2*y`` for the exponents ``(2, 1)``; ``1`` for the unit monomial."""
    return "*".join(
        f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e
    ) or "1"


def poly_sort_key(p: Poly) -> tuple:
    """Total order on polynomials of one ring, for canonical generator lists."""
    neg = p.ring._neg
    return (p.total_degree(), tuple(sorted([(m ^ neg, c) for m, c in p._t.items()], reverse=True)))


# -- coefficient loops ---------------------------------------------------------
# Plain-number kernels behind ``Poly`` arithmetic, on packed monomials: ``p``
# is the field's characteristic (0 for QQ), and every result holds nonzero
# coefficients only.


def _sum_terms(a: Dict, b: Dict, p: int, negate: bool = False) -> Dict:
    """Terms of ``a + b`` (``a - b`` with ``negate``), zero sums dropped."""
    terms = dict(a)
    for m, c in b.items():
        s = terms.get(m)
        if s is None:
            terms[m] = ((p - c) if p else -c) if negate else c
            continue
        s = s - c if negate else s + c
        if p:
            s %= p
        if s:
            terms[m] = s
        else:
            del terms[m]
    return terms


def _integer_terms(a: Dict) -> Tuple[int, list]:
    """``(d, [(m, d*c)])`` with ``d`` the lcm of the denominators of ``a``."""
    d = lcm(*[c.denominator for c in a.values()])
    return d, [(m, c.numerator * (d // c.denominator)) for m, c in a.items()]


def _int_form(f: Poly) -> Tuple[int, Iterable]:
    """``(d, terms)`` on ints with ``f == sum(c * x^m for m, c in terms) / d``:
    the operand form ``_dot`` takes.  Over GF(p), ``d`` is 1 and the terms
    are ``f``'s own."""
    if f.ring.field.char:
        return 1, f._t.items()
    return _integer_terms(f._t)


def _int_product(acc: Dict[int, int], a: Iterable, b: Iterable) -> Dict[int, int]:
    """``acc`` plus the unreduced products of two term lists, per monomial."""
    b = list(b)
    get = acc.get
    for m1, c1 in a:
        for m2, c2 in b:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


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


def _dot(ring: PolyRing, pairs: Iterable[Tuple[tuple, tuple]]) -> Poly:
    """``sum(l * r for l, r in pairs)``, each operand in its ``_int_form``,
    summed in one integer dict; the kernel behind every cofactor row.

    Over GF(p) each result term is reduced once.  Over QQ each product's
    integer form ``(a * b) / (dl * dr)`` is scaled to one common
    denominator ``d``, the lcm of the ``dl * dr``, and each result term
    becomes one ``Fraction(c, d)``.  No pairs give the ring's zero.
    """
    acc: Dict[int, int] = {}
    p = ring.field.char
    if p:
        for (_, a), (_, b) in pairs:
            _int_product(acc, a, b)
        _checked(ring, acc)
        return _poly(ring, {m: v for m, c in acc.items() if (v := c % p)})
    forms = [(dl * dr, a, b) for (dl, a), (dr, b) in pairs if a and b]
    d = lcm(*[f[0] for f in forms])
    for dp, a, b in forms:
        s = d // dp
        _int_product(acc, [(m, c * s) for m, c in a] if s != 1 else a, b)
    _checked(ring, acc)
    return _poly(ring, {m: Fraction(c, d) for m, c in acc.items() if c})
