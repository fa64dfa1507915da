"""Text grammar for fields, rings, polynomials, and basic opens.

The polynomial grammar: variables are identifiers, coefficients are decimal
integers or ``p/q`` rationals, ``^`` takes powers (``3/2^2`` is ``3/4``, and
``2^2/3`` is ``4/3``), ``*`` is optional, and parentheses group, e.g.
``3*x^2*y - 1/2`` or ``(x+1)(x-1)``.  Field specs are ``QQ`` or ``GF(p)`` for a prime p.  Ring
specs are ``QQ[x,y]`` with an optional quotient tail
``QQ[x,y]/(x^2+y^2-1)``.  Basic opens read ``D(f1, f2, ...)``.

One regex pass yields ``(kind, text, offset)`` tokens.  Numbers and
variables go straight into the integer form of ``polynomials``: each sum is
added into one integer dict and normalized once, and only a parenthesized
group becomes a ``Poly`` on its own.  Malformed input, parentheses nested
deeper than ``MAX_NESTING``, and numbers or (over QQ) numbers' powers longer
than Python reads raise ``ParseError`` at the line and column of their token.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from typing import Dict, List, Tuple

from .fields import Field, GF, QQ
from .polynomials import (
    _LIMIT, MonomialOrder, Poly, PolyRing, _ExponentLimitError, _checked, _norm, _product,
)

MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*/^(),\[\]])|(?P<bad>.)",
    re.S,
)

_Token = Tuple[str, str, int]


class _Parser:
    def __init__(self, text: str):
        """Tokenize all of ``text`` in one regex pass: punctuation is its own
        kind, whitespace is dropped, and an ``end`` token closes the list."""
        self.text = text
        self.tokens: List[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind, chunk = m.lastgroup, m.group()
            if kind == "bad":
                raise self.error(m.start(), f"unexpected character {chunk!r}")
            if kind != "ws":
                self.tokens.append((chunk if kind == "punct" else kind, chunk, m.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0
        self.depth = 0

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, offset: int, message: str) -> ParseError:
        """A ``ParseError`` at ``offset`` of the text, with its line and column."""
        text = self.text
        return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok[0] != kind:
            raise self.error(tok[2], f"expected {kind!r}, found {tok[1] or 'end of input'!r}")
        return tok

    def number(self) -> Tuple[int, int]:
        """The value and offset of the next token, a number."""
        tok = self.expect("num")
        try:
            return int(tok[1]), tok[2]
        except ValueError:
            limit = f"integers read with at most {sys.get_int_max_str_digits()} digits"
            raise self.error(tok[2], f"a number is past the digit limit: {limit}") from None

    def exponent(self, p: int, *bases: int) -> Tuple[int, int]:
        """The value and offset of the exponent after a ``^``.  Over QQ, a
        power of one of ``bases`` past the digit limit that ``number`` reads
        is refused there before it is formed: n**e has at least
        ``(b - 1) * e + 1`` bits, b the bit length of n, and 2**k has more
        than ``limit`` digits once ``3 * k >= 10 * limit``."""
        e, at = self.number()
        limit = sys.get_int_max_str_digits()
        if not p and limit and any(3 * (n.bit_length() - 1) * e >= 10 * limit for n in bases):
            raise self.error(at, f"a power is past the digit limit: integers read with at most {limit} digits")
        return e, at

    # polynomial grammar -------------------------------------------------
    # Factors and products are integer forms ``(d, t)``: packed terms ``t``
    # over ``d``.  Each sum is added into one dict over the lcm of its
    # products' ``d`` and normalized once.
    def _sum(self, ring: PolyRing) -> Poly:
        sign, D, acc = 1, 1, {}
        while self.kind() in ("-", "+"):
            if self.advance()[0] == "-":
                sign = -sign
        while True:
            d, t = self._product(ring)
            if D % d:  # a new denominator: bring the sum over the lcm
                k = d // gcd(D, d)
                D *= k
                acc = {m: c * k for m, c in acc.items()}
            s = sign * (D // d)
            for m, c in t.items():
                acc[m] = acc.get(m, 0) + s * c
            if self.kind() not in ("+", "-"):
                return _norm(ring, D, acc)
            sign = 1 if self.advance()[0] == "+" else -1

    def _product(self, ring: PolyRing) -> Tuple[int, Dict[int, int]]:
        """The integer form of a product of factors; over GF(p) its terms
        are residues and ``d`` is 1."""
        d, t = self._factor(ring)
        p = ring.field.char
        while True:
            kind = self.kind()
            if kind == "*":
                self.advance()
            elif kind not in ("num", "name", "("):
                return d, t
            at = self.tokens[self.pos][2]
            e, u = self._factor(ring)
            d *= e
            if len(u) == 1:  # one term: add its monomial to each of t's
                ((mu, cu),) = u.items()
                t = {m + mu: c * cu % p if p else c * cu for m, c in t.items()}
            else:
                t = _product(ring, t, u)
                if p:
                    t = {m: r for m, c in t.items() if (r := c % p)}
            try:
                _checked(ring, t)
            except _ExponentLimitError as exc:
                raise self.error(at, str(exc)) from None

    def _factor(self, ring: PolyRing) -> Tuple[int, Dict[int, int]]:
        """The integer form of a coefficient ``n^e/q^e2`` (each ``^`` and
        the ``/q`` optional, each ``^`` raising its own number), or of a
        variable or parenthesized sum raised to its ``^`` exponent if one
        follows."""
        kind, text, at = self.tokens[self.pos]
        p = ring.field.char
        group = None
        if kind == "num":
            num, d = self.number()[0], 1
            if self.kind() == "^":  # ^ binds to the numerator alone: 2^2/3 is 4/3
                self.advance()
                num = pow(num, self.exponent(p, num)[0], p or None)
            if self.kind() == "/":
                self.advance()
                d, at = self.number()
                if d == 0:
                    raise self.error(at, "zero denominator")
                if p and not d % p:
                    raise self.error(at, f"denominator {d} vanishes in {ring.field!r}")
                if self.kind() == "^":  # and to the denominator alone: 3/2^2 is 3/4
                    self.advance()
                    d = pow(d, self.exponent(p, d)[0], p or None)
                if p:
                    num, d = num * pow(d, -1, p), 1
            if p:
                num %= p
            return d, {0: num} if num else {}
        elif kind == "name":
            self.advance()
            if text not in ring.names:
                raise self.error(at, f"unknown variable {text!r}")
            m = ring._units[ring.names.index(text)]
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise self.error(at, f"parentheses nest deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            group = self._sum(ring)
            self.depth -= 1
            self.expect(")")
        else:
            raise self.error(at, f"expected a polynomial factor, found {text or 'end of input'!r}")
        if self.kind() == "^":
            self.advance()
            coeffs = (group._d, *group._t.values()) if group is not None and len(group._t) == 1 else ()
            exp, at = self.exponent(p, *coeffs)  # a one-term group raises its coefficient alone
            if group is not None:
                try:
                    group = group**exp
                except _ExponentLimitError as exc:
                    raise self.error(at, str(exc)) from None
            elif exp >= _LIMIT:
                mono = tuple([exp if u == m else 0 for u in ring._units])
                raise self.error(at, str(_ExponentLimitError(ring, mono)))
            else:
                m *= exp
        if group is not None:
            return group._d, group._t
        return 1, {m: 1}

    def _list(self, ring: PolyRing) -> List[Poly]:
        """``( f1, f2, ... )``, possibly empty."""
        self.expect("(")
        items: List[Poly] = []
        if self.kind() != ")":
            items.append(self._sum(ring))
            while self.kind() == ",":
                self.advance()
                items.append(self._sum(ring))
        self.expect(")")
        return items

    # field / ring specs ----------------------------------------------------
    def parse_field(self) -> Field:
        tok = self.expect("name")
        if tok[1] == "QQ":
            return QQ
        if tok[1] == "GF":
            self.expect("(")
            p, at = self.number()
            self.expect(")")
            try:
                return GF(p)
            except ValueError as exc:
                raise self.error(at, str(exc)) from None
        raise self.error(tok[2], f"unknown field {tok[1]!r} (use QQ or GF(p))")

    def parse_ring(self, order: MonomialOrder | None) -> Tuple[PolyRing, List[Poly]]:
        field = self.parse_field()
        self.expect("[")
        names = [self.expect("name")[1]]
        while self.kind() == ",":
            self.advance()
            names.append(self.expect("name")[1])
        self.expect("]")
        try:
            ring = PolyRing(field, names, order)
        except ValueError as exc:
            raise self.error(self.tokens[self.pos][2], str(exc)) from None
        if self.kind() != "/":
            return ring, []
        self.advance()
        return ring, self._list(ring)

    def parse_basic_open(self, ring: PolyRing) -> List[Poly]:
        tok = self.expect("name")
        if tok[1] != "D":
            raise self.error(tok[2], f"expected 'D(...)', found {tok[1]!r}")
        return self._list(ring)


def _parse(text: str, rule, *args):
    """``rule`` of a parser over ``text``, which must then be at its end."""
    p = _Parser(text)
    result = rule(p, *args)
    tok = p.tokens[p.pos]
    if tok[0] != "end":
        raise p.error(tok[2], f"unexpected trailing input {tok[1]!r}")
    return result


def parse_poly(text: str, ring: PolyRing) -> Poly:
    return _parse(text, _Parser._sum, ring)


def parse_field(text: str) -> Field:
    return _parse(text, _Parser.parse_field)


def parse_ring(text: str, order: MonomialOrder | None = None) -> Tuple[PolyRing, List[Poly]]:
    """Parse ``QQ[x,y]`` or ``GF(5)[x,y]/(x*y-1, ...)`` into (ring, relations)."""
    return _parse(text, _Parser.parse_ring, order)


def parse_basic_open(text: str, ring: PolyRing) -> List[Poly]:
    """Parse ``D(f1, f2, ...)`` into its generator list."""
    return _parse(text, _Parser.parse_basic_open, ring)


def parse_order(text: str) -> MonomialOrder:
    if text not in ("grevlex", "lex"):
        raise ParseError(f"unknown order {text!r} (use grevlex or lex)", 1, 1)
    return MonomialOrder(text)
