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

A term is evaluated as one path product.  Each run of names folds into a
single monomial p q* (or vanishes) by one structural product per factor,
is scaled by the term's signed coefficient and is normalised onto the
basis once, so a term costs time linear in its length; a parenthesised
factor is parsed to an element and multiplied in.  The normal form is
unique, so this equals the factor-by-factor product.  Names resolve
through the algebra's name table (``LeavittAlgebra.generators``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, LeavittAlgebra, Monomial, add_terms, monomial_product


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
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
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
        one = self.algebra.field.one
        sign = one
        if self.peek().kind == "-":
            self.take()
            sign = -one
        terms = {}
        while True:
            add_terms(terms, self.term(sign).terms.items(), self.algebra.field.zero)
            if self.peek().kind not in ("+", "-"):
                return Element(self.algebra, terms)
            sign = -one if self.take().kind == "-" else one

    def term(self, sign) -> Element:
        """The term times ``sign``: each run of names is one path product
        and each parenthesised factor one Element, multiplied in order; the
        signed coefficient scales the first of them."""
        tok = self.peek()
        if tok.kind == "INT":
            c = sign * self.coef()
        elif tok.kind in ("NAME", "("):
            c = sign
        else:
            raise self.fail({"integer", "name", "'('"})
        value = None
        while self.peek().kind in ("NAME", "("):
            piece = self.run(c) if self.peek().kind == "NAME" else self.group().scale(c)
            c = self.algebra.field.one
            value = piece if value is None else value * piece
        return self.algebra.one().scale(c) if value is None else value

    def coef(self):
        num = int(self.take().text)
        if self.peek().kind == "/":
            self.take()
            if self.peek().kind != "INT":
                raise self.fail({"integer"})
            den = int(self.take().text)
            tok = self.tokens[self.pos - 1]
            if not self.algebra.field.coerce(den):
                raise ParseError("zero denominator", tok.line, tok.col)
            return self.algebra.field.ratio(num, den)
        return self.algebra.field.coerce(num)

    def run(self, c) -> Element:
        """A run of names: one path product c p q*, normalised once."""
        m = self.generator()
        while self.peek().kind == "NAME":
            g = self.generator()  # resolved even once the run is zero
            if m is not None:
                m = monomial_product(m, g)
        if m is None:
            return self.algebra.zero()
        return Element(self.algebra, self.algebra._normal({m: c}))

    def generator(self) -> Monomial:
        tok = self.take()
        pair = self.algebra.generators.get(tok.text)
        if pair is None:
            raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)
        if self.peek().kind == "*":
            self.take()
            return pair[1]
        return pair[0]

    def group(self) -> Element:
        self.take()
        value = self.expr()
        if self.peek().kind != ")":
            raise self.fail({"')'"})
        self.take()
        if self.peek().kind == "*":
            self.take()
            value = value.star()
        return value


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
