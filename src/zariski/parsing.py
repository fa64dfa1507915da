"""Text grammar for fields, rings, polynomials, and basic opens.

The polynomial grammar: variables are identifiers, coefficients are decimal
integers or ``p/q`` rationals, ``^`` takes powers, ``*`` is optional, and
parentheses group, e.g. ``3*x^2*y - 1/2`` or ``(x+1)(x-1)``.  Field specs
are ``QQ`` or ``GF(p)``.  Ring specs are ``QQ[x,y]`` with an optional
quotient tail ``QQ[x,y]/(x^2+y^2-1)``.  Basic opens read ``D(f1, f2, ...)``.

Parse errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .fields import Field, GF, QQ
from .polynomials import MonomialOrder, Poly, PolyRing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*/^(),\[\]])"
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "punct" else chunk
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def fail(self, message: str):
        tok = self.current
        raise ParseError(message, tok.line, tok.col)

    # polynomial grammar -------------------------------------------------
    def parse_poly(self, ring: PolyRing) -> Poly:
        result = self._sum(ring)
        return result

    def _sum(self, ring: PolyRing) -> Poly:
        negate = False
        while self.current.kind in ("-", "+"):
            if self.advance().kind == "-":
                negate = not negate
        total = self._product(ring)
        if negate:
            total = -total
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            term = self._product(ring)
            total = total - term if op == "-" else total + term
        return total

    def _product(self, ring: PolyRing) -> Poly:
        result = self._factor(ring)
        while True:
            tok = self.current
            if tok.kind == "*":
                self.advance()
                result = result * self._factor(ring)
            elif tok.kind in ("num", "name", "("):
                result = result * self._factor(ring)
            else:
                return result

    def _factor(self, ring: PolyRing) -> Poly:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            num = int(tok.text)
            if self.current.kind == "/":
                self.advance()
                den_tok = self.expect("num")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.col)
                try:
                    value = ring.field.of_fraction(num, den)
                except ZeroDivisionError:
                    raise ParseError(
                        f"denominator {den} vanishes in {ring.field!r}",
                        den_tok.line,
                        den_tok.col,
                    ) from None
                base = ring.const(value)
            else:
                base = ring.const(ring.field.of_int(num))
        elif tok.kind == "name":
            self.advance()
            if tok.text not in ring.names:
                raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
            base = ring.var_named(tok.text)
        elif tok.kind == "(":
            self.advance()
            base = self._sum(ring)
            self.expect(")")
        else:
            self.fail(f"expected a polynomial factor, found {tok.text or 'end of input'!r}")
        if self.current.kind == "^":
            self.advance()
            exp_tok = self.expect("num")
            base = base ** int(exp_tok.text)
        return base

    # field / ring specs ----------------------------------------------------
    def parse_field(self) -> Field:
        tok = self.expect("name")
        if tok.text == "QQ":
            return QQ
        if tok.text == "GF":
            self.expect("(")
            p_tok = self.expect("num")
            self.expect(")")
            try:
                return GF(int(p_tok.text))
            except ValueError as exc:
                raise ParseError(str(exc), p_tok.line, p_tok.col) from None
        raise ParseError(f"unknown field {tok.text!r} (use QQ or GF(p))", tok.line, tok.col)

    def parse_ring(self, order: MonomialOrder | None = None) -> Tuple[PolyRing, List[Poly]]:
        field = self.parse_field()
        self.expect("[")
        names = [self.expect("name").text]
        while self.current.kind == ",":
            self.advance()
            names.append(self.expect("name").text)
        self.expect("]")
        tok = self.current
        try:
            ring = PolyRing(field, names, order)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        relations: List[Poly] = []
        if self.current.kind == "/":
            self.advance()
            self.expect("(")
            if self.current.kind != ")":
                relations.append(self._sum(ring))
                while self.current.kind == ",":
                    self.advance()
                    relations.append(self._sum(ring))
            self.expect(")")
        return ring, relations

    def parse_basic_open(self, ring: PolyRing) -> List[Poly]:
        tok = self.expect("name")
        if tok.text != "D":
            raise ParseError(f"expected 'D(...)', found {tok.text!r}", tok.line, tok.col)
        self.expect("(")
        gens: List[Poly] = []
        if self.current.kind != ")":
            gens.append(self._sum(ring))
            while self.current.kind == ",":
                self.advance()
                gens.append(self._sum(ring))
        self.expect(")")
        return gens

    def done(self):
        if self.current.kind != "end":
            self.fail(f"unexpected trailing input {self.current.text!r}")


def parse_poly(text: str, ring: PolyRing) -> Poly:
    p = _Parser(text)
    result = p.parse_poly(ring)
    p.done()
    return result


def parse_field(text: str) -> Field:
    p = _Parser(text)
    result = p.parse_field()
    p.done()
    return result


def parse_ring(text: str, order: MonomialOrder | None = None) -> Tuple[PolyRing, List[Poly]]:
    """Parse ``QQ[x,y]`` or ``GF(5)[x,y]/(x*y-1, ...)`` into (ring, relations)."""
    p = _Parser(text)
    result = p.parse_ring(order)
    p.done()
    return result

def parse_basic_open(text: str, ring: PolyRing) -> List[Poly]:
    """Parse ``D(f1, f2, ...)`` into its generator list."""
    p = _Parser(text)
    result = p.parse_basic_open(ring)
    p.done()
    return result


def parse_order(text: str) -> MonomialOrder:
    if text not in ("grevlex", "lex"):
        raise ParseError(f"unknown order {text!r} (use grevlex or lex)", 1, 1)
    return MonomialOrder(text)
