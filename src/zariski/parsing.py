"""Text grammar for fields, rings, polynomials, and basic opens.

The polynomial grammar: variables are identifiers, coefficients are decimal
integers or ``p/q`` rationals, ``^`` takes powers, ``*`` is optional, and
parentheses group, e.g. ``3*x^2*y - 1/2`` or ``(x+1)(x-1)``.  Field specs
are ``QQ`` or ``GF(p)`` for a prime p.  Ring specs are ``QQ[x,y]`` with an
optional quotient tail ``QQ[x,y]/(x^2+y^2-1)``.  Basic opens read
``D(f1, f2, ...)``.

One regex pass yields ``(kind, text, offset)`` tokens; numbers go straight
into the integer form of ``polynomials``.  Malformed input, parentheses
nested deeper than ``MAX_NESTING`` and numbers longer than Python reads
raise ``ParseError`` with the 1-based line and column of their token.
"""

from __future__ import annotations

import re
import sys
from typing import List, Tuple

from .fields import Field, GF, QQ
from .polynomials import MonomialOrder, Poly, PolyRing, _ExponentLimitError, _norm

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

    # polynomial grammar -------------------------------------------------
    def _sum(self, ring: PolyRing) -> Poly:
        negate = False
        while self.kind() in ("-", "+"):
            if self.advance()[0] == "-":
                negate = not negate
        total = self._product(ring)
        if negate:
            total = -total
        while self.kind() in ("+", "-"):
            op = self.advance()[0]
            term = self._product(ring)
            total = total - term if op == "-" else total + term
        return total

    def _product(self, ring: PolyRing) -> Poly:
        result = self._factor(ring)
        while True:
            kind = self.kind()
            if kind == "*":
                self.advance()
            elif kind not in ("num", "name", "("):
                return result
            result = result * self._factor(ring)

    def _factor(self, ring: PolyRing) -> Poly:
        kind, text, at = self.tokens[self.pos]
        if kind == "num":
            num = self.number()[0]
            if self.kind() != "/":
                base = ring.const(num)
            else:
                self.advance()
                den, at = self.number()
                if den == 0:
                    raise self.error(at, "zero denominator")
                try:
                    base = _norm(ring, den, {0: num})
                except ZeroDivisionError:
                    raise self.error(at, f"denominator {den} vanishes in {ring.field!r}") from None
        elif kind == "name":
            self.advance()
            if text not in ring.names:
                raise self.error(at, f"unknown variable {text!r}")
            base = ring.var_named(text)
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise self.error(at, f"parentheses nest deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            base = self._sum(ring)
            self.depth -= 1
            self.expect(")")
        else:
            raise self.error(at, f"expected a polynomial factor, found {text or 'end of input'!r}")
        if self.kind() == "^":
            self.advance()
            exp, at = self.number()
            try:
                base = base**exp
            except _ExponentLimitError as exc:
                raise self.error(at, str(exc)) from None
        return base

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
