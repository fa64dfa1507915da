"""Sparse multivariate polynomials over an exact field.

A monomial is a tuple of exponents, one per ring variable; a ``Poly`` is an
immutable sparse map from monomials to nonzero coefficients, tagged with its
``PolyRing``.  Monomial orders (graded reverse lexicographic by default,
lexicographic on request, both ranking the variables in declaration order)
live in ``MonomialOrder`` and drive leading-term selection for the division
and basis-completion algorithms built on top.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, neg
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .fields import Field, Scalar

Monomial = Tuple[int, ...]


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

    def key_function(self, descending: bool = False) -> Callable[[Monomial], tuple]:
        """Key under which Python's ``max``/``sorted`` realize this order.

        Keys are flat tuples of ints.  With ``descending`` every entry is
        negated, so ``heapq`` (a min-heap) pops the largest monomial first.
        """
        if self.inner is not None:
            inner = self.inner.key_function(descending)
            if descending:
                return lambda m: (-m[-1], *inner(m[:-1]))
            return lambda m: (m[-1], *inner(m[:-1]))
        if self.kind == "lex":
            if descending:
                return lambda m: tuple(map(neg, m))
            return tuple
        if descending:
            return lambda m: (-sum(m), *m[::-1])
        return lambda m: (sum(m), *map(neg, m[::-1]))


class PolyRing:
    """A polynomial ring ``field[names]`` with a fixed monomial order."""

    __slots__ = ("field", "names", "order", "_key", "_heap_key", "_hash")

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_key", order.key_function())
        object.__setattr__(self, "_heap_key", order.key_function(True))
        object.__setattr__(self, "_hash", hash(("PolyRing", field, names, order)))

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

    def monomial_key(self, m: Monomial) -> tuple:
        return self._key(m)

    # -- constructors ---------------------------------------------------
    def from_terms(self, terms: Dict[Monomial, Scalar]) -> "Poly":
        """The polynomial with these terms; zero coefficients are dropped.

        Coefficients are brought to the field's canonical form first: over
        GF(p) the residue in ``{0, ..., p-1}`` (so ``{(0,): p}`` gives the
        zero polynomial), over QQ a ``Fraction`` (so an ``int`` coefficient
        never reaches ``Field.inv`` as an ``int``).
        """
        p = self.field.char
        if p:
            clean = {m: r for m, c in terms.items() if (r := c % p)}
        else:
            clean = {m: Fraction(c) for m, c in terms.items() if c}
        for m in clean:
            if len(m) != self.nvars:
                raise ValueError(f"monomial {m} has wrong arity for {self!r}")
        return Poly(self, clean)

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def const(self, c: Scalar) -> "Poly":
        c = self.field.add(c, self.field.zero)
        if not c:
            return self.zero
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self!r}")
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {m: self.field.one})

    def gens(self) -> Tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def var_named(self, name: str) -> "Poly":
        return self.var(self.names.index(name))

    # -- derived rings ----------------------------------------------------
    def with_vars(self, extra: Sequence[str], order: MonomialOrder | None = None) -> "PolyRing":
        """Same field, the old variables followed by ``extra`` new ones."""
        return PolyRing(self.field, self.names + tuple(extra), order)

    def lift(self, p: "Poly", target: "PolyRing") -> "Poly":
        """Reinterpret ``p`` in ``target``, matching variables by name."""
        if p.ring is not self and p.ring != self:
            raise ValueError("polynomial does not belong to this ring")
        where = [target.names.index(nm) for nm in self.names]
        terms: Dict[Monomial, Scalar] = {}
        for m, c in p.terms.items():
            big = [0] * target.nvars
            for i, e in enumerate(m):
                big[where[i]] = e
            terms[tuple(big)] = c
        return target.from_terms(terms)

    def project(self, p: "Poly", target: "PolyRing") -> "Poly":
        """Map ``p`` into the smaller ring ``target`` (matching names).

        Raises ``ValueError`` if ``p`` involves a variable absent from
        ``target``.
        """
        where = []
        for i, nm in enumerate(self.names):
            where.append(target.names.index(nm) if nm in target.names else -1)
        terms: Dict[Monomial, Scalar] = {}
        for m, c in p.terms.items():
            small = [0] * target.nvars
            for i, e in enumerate(m):
                if e == 0:
                    continue
                if where[i] < 0:
                    raise ValueError(
                        f"polynomial involves {self.names[i]!r}, absent from target ring"
                    )
                small[where[i]] = e
            key = tuple(small)
            if key in terms:
                terms[key] = self.field.add(terms[key], c)
            else:
                terms[key] = c
        return target.from_terms(terms)


# ``object.__setattr__`` bound once: ``Poly.__init__`` runs for every result
_set = object.__setattr__


class Poly:
    """Immutable sparse polynomial; construct through ``PolyRing`` methods."""

    __slots__ = ("ring", "terms", "_hash", "_lm", "_div")

    def __init__(self, ring: PolyRing, terms: Dict[Monomial, Scalar]):
        _set(self, "ring", ring)
        _set(self, "terms", terms)
        _set(self, "_hash", None)
        _set(self, "_lm", None)
        _set(self, "_div", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return self.ring.field.zero
        ((m, c),) = self.terms.items()
        if sum(m) != 0:
            raise ValueError("polynomial is not constant")
        return c

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def involves(self, i: int) -> bool:
        return any(m[i] for m in self.terms)

    # -- leading data ------------------------------------------------------
    def lead_monomial(self) -> Monomial:
        lm = self._lm
        if lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            lm = max(self.terms, key=self.ring._key)
            object.__setattr__(self, "_lm", lm)
        return lm

    def lead_coeff(self) -> Scalar:
        return self.terms[self.lead_monomial()]

    def _division_form(self) -> Tuple[int, int, list]:
        """``(dd, lc, tail)`` on ints with ``self == (lc*x^lm + tail) / dd``,
        kept after first use: the form ``groebner.divide`` reduces by.

        Over QQ ``dd`` is the lcm of the denominators, signed so ``lc > 0``;
        over GF(p) it is the inverse of the leading coefficient, ``lc`` is 1
        and ``tail`` is monic.
        """
        form = self._div
        if form is None:
            lm = self.lead_monomial()
            terms = self.terms
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
        key = self.ring.monomial_key
        for m in sorted(self.terms, key=key, reverse=True):
            yield m, self.terms[m]

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
        return Poly(self.ring, _sum_terms(self.terms, other.terms, self.ring.field.char))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = self.ring.field.char
        if p:
            return Poly(self.ring, {m: p - c for m, c in self.terms.items()})
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.char
        return Poly(self.ring, _sum_terms(self.terms, other.terms, p, negate=True))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.char
        if p:
            acc = _int_product(self.terms.items(), other.terms.items())
            return Poly(self.ring, {m: r for m, c in acc.items() if (r := c % p)})
        da, a = _integer_terms(self.terms)
        db, b = _integer_terms(other.terms)
        d = da * db
        acc = _int_product(a, b)
        return Poly(self.ring, {m: Fraction(c, d) for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return self.ring.one
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def scale(self, c: Scalar) -> "Poly":
        if not c:
            return self.ring.zero
        p = self.ring.field.char
        if p:
            return Poly(self.ring, {m: v * c % p for m, v in self.terms.items()})
        return Poly(self.ring, {m: v * c for m, v in self.terms.items()})

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
        acc: Dict[Monomial, Scalar] = {}
        get = acc.get
        for m, c in self.terms.items():
            term = None
            for i, e in enumerate(m):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[i, e] = images[i] ** e
                    term = pw if term is None else term * pw
            if term is None:
                one = (0,) * target.nvars
                acc[one] = get(one, 0) + c
                continue
            for tm, tc in term.terms.items():
                acc[tm] = get(tm, 0) + c * tc
        p = target.field.char
        if p:
            return Poly(target, {m: r for m, v in acc.items() if (r := v % p)})
        return Poly(target, {m: v for m, v in acc.items() if v})

    # -- equality / hashing ---------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return self == self.ring.const(self.ring.field.of_int(other))
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- display ---------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.names
        chunks: list[str] = []
        for m, c in self.sorted_terms():
            vars_part = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(m)
                if e
            )
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


def poly_sort_key(p: Poly) -> tuple:
    """Total order on polynomials of one ring, for canonical generator lists."""
    key = p.ring.monomial_key
    return (p.total_degree(), tuple((key(m), c) for m, c in p.sorted_terms()))


# -- coefficient loops ---------------------------------------------------------
# Plain-number kernels behind ``Poly`` arithmetic: ``p`` is the field's
# characteristic (0 for QQ), and every result holds nonzero coefficients only.


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


def _int_product(a: Iterable, b: Iterable) -> Dict[Monomial, int]:
    """Unreduced products of two term lists, summed per monomial."""
    b = list(b)
    acc: Dict[Monomial, int] = {}
    get = acc.get
    for m1, c1 in a:
        for m2, c2 in b:
            m = tuple(map(add, m1, m2))
            acc[m] = get(m, 0) + c1 * c2
    return acc
