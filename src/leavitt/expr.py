"""Text format for algebra elements: parser and canonical printer.

Grammar (whitespace-insensitive between tokens)::

    expr    := ['-'] term (('+' | '-') term)*
    term    := coef factor* | factor+
    factor  := name ['*'] | '(' expr ')' ['*']
    coef    := INT ['/' INT]
    name    := [A-Za-z][A-Za-z0-9_]*

Juxtaposition is algebra multiplication and the postfix '*' is the
involution; there is no infix multiplication sign and no exponent sugar
(write ``e e e``).  Names resolve against the graph's vertices and edges.
A bare coefficient denotes that multiple of the identity, so ``0`` parses
to the zero element and ``render`` round-trips every element exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, LeavittAlgebra


class ParseError(ValueError):
    """Syntax or name-resolution failure, with position and expectations."""

    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        hint = ""
        if self.expected:
            hint = " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(f"{message} at {line}:{col}{hint}")


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME INT + - * / ( ) END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in "+-*/()":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"stray character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, algebra: LeavittAlgebra, text: str):
        self.algebra = algebra
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected) -> ParseError:
        tok = self.peek()
        what = "end of input" if tok.kind == "END" else f"{tok.text!r}"
        return ParseError(f"unexpected {what}", tok.line, tok.col, expected)

    def parse(self) -> Element:
        value = self.expr()
        if self.peek().kind != "END":
            raise self.fail({"'+'", "'-'", "end of input"})
        return value

    def expr(self) -> Element:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + (-rhs if op.kind == "-" else rhs)
        return value

    def term(self) -> Element:
        tok = self.peek()
        if tok.kind == "INT":
            value = self.algebra.one().scale(self.coef())
        elif tok.kind in ("NAME", "("):
            value = self.factor()
        else:
            raise self.fail({"integer", "name", "'('"})
        while self.peek().kind in ("NAME", "("):
            value = value * self.factor()
        return value

    def coef(self):
        num = int(self.take().text)
        if self.peek().kind == "/":
            self.take()
            if self.peek().kind != "INT":
                raise self.fail({"integer"})
            den = int(self.take().text)
            tok = self.tokens[self.pos - 1]
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.col)
            return self.algebra.field.ratio(num, den)
        return self.algebra.field.from_int(num)

    def factor(self) -> Element:
        tok = self.take()
        if tok.kind == "NAME":
            value = self.resolve(tok)
        elif tok.kind == "(":
            value = self.expr()
            if self.peek().kind != ")":
                raise self.fail({"')'"})
            self.take()
        else:
            raise self.fail({"name", "'('"})
        if self.peek().kind == "*":
            self.take()
            value = value.star()
        return value

    def resolve(self, tok: _Token) -> Element:
        g = self.algebra.graph
        if tok.text in g.vertices:
            return self.algebra.vertex(tok.text)
        if g.has_edge(tok.text):
            return self.algebra.edge(tok.text)
        raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)


def parse(algebra: LeavittAlgebra, text: str) -> Element:
    """Parse an expression into a normal-form element of the algebra."""
    return _Parser(algebra, text).parse()


def render(a: Element) -> str:
    """Canonical text: terms in basis order, reduced exact coefficients."""
    if not a.terms:
        return "0"
    field = a.algebra.field
    pieces = []
    for m in a.support():
        negative, mag = field.split_sign(a.terms[m])
        body = str(m)
        if mag != field.one:
            body = f"{mag} {body}"
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)
