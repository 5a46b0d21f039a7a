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

Tokens come from one compiled regular-expression scan.  Blanks are
space, tab, carriage return and newline; an integer is a run of decimal
digits (``str.isdecimal``); a name starts with a letter (``str.isalpha``)
and goes on with letters, digits and underscores; any other character is
stray.  A token is a (kind, text, offset) tuple, and a line and column are
worked out from the offset only when a ParseError is raised.

A term is evaluated as one path product.  Each run of names is folded on
edge names into a single monomial p q* (or zero): the fold keeps the edges
of p, a stack of ghost edges and the vertex reached, looking each name up
in a name -> (source, range, edge) table built once per algebra
(``LeavittAlgebra.generators``), so a run builds one monomial.  That
monomial is scaled by the term's signed coefficient and normalised onto
the basis once, so a term costs time linear in its length; a
parenthesised factor is parsed to an element and multiplied in.  The
normal form is unique, so this equals the factor-by-factor product.
"""

from __future__ import annotations

import re

from .algebra import Element, LeavittAlgebra, Monomial, add_terms
from .graph import Path


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


# Blanks, then one token: an integer, a name, an operator or a stray
# character.  In a str pattern ``\d`` is str.isdecimal and ``\w`` is isalnum
# or "_"; the name class [^\W\d_] also admits digits that are not decimal,
# such as "²", which _tokenize reports as stray, since a name starts with
# str.isalpha.  The stray class holds no blank.
_TOKEN = re.compile(r"[ \t\r\n]*(?:(\d+)|([^\W\d_]\w*)|([-+*/()])|([^ \t\r\n]))")
_KIND = (None, "INT", "NAME", None, None)  # by group; an operator is its own kind


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column of an offset, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, the last of kind END.  The scan stops
    before trailing blanks, which would otherwise be retried from each of
    their offsets."""
    tokens = []
    for m in _TOKEN.finditer(text, 0, len(text.rstrip(" \t\r\n"))):
        i = m.lastindex
        word = m.group(i)
        if i == 4 or (i == 2 and not word[0].isalpha()):
            raise ParseError(f"stray character {word[0]!r}", *_position(text, m.start(i)))
        tokens.append((_KIND[i] or word, word, m.start(i)))
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, algebra: LeavittAlgebra, text: str):
        self.algebra = algebra
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok, expected=()) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]), expected)

    def fail(self, expected) -> ParseError:
        tok = self.tokens[self.pos]
        what = "end of input" if tok[0] == "END" else f"{tok[1]!r}"
        return self.error(f"unexpected {what}", tok, expected)

    def parse(self) -> Element:
        value = self.expr()
        if self.peek() != "END":
            raise self.fail({"'+'", "'-'", "end of input"})
        return value

    def expr(self) -> Element:
        one = self.algebra.field.one
        sign = one
        if self.peek() == "-":
            self.pos += 1
            sign = -one
        terms = {}
        while True:
            add_terms(terms, self.term(sign).terms.items())
            if self.peek() not in ("+", "-"):
                return Element(self.algebra, terms)
            sign = -one if self.take()[0] == "-" else one

    def term(self, sign) -> Element:
        """The term times ``sign``: each run of names is one path product
        and each parenthesised factor one Element, multiplied in order; the
        signed coefficient scales the first of them."""
        kind = self.peek()
        if kind == "INT":
            c = sign * self.coef()
        elif kind in ("NAME", "("):
            c = sign
        else:
            raise self.fail({"integer", "name", "'('"})
        value = None
        while (kind := self.peek()) in ("NAME", "("):
            piece = self.run(c) if kind == "NAME" else self.group().scale(c)
            c = self.algebra.field.one
            value = piece if value is None else value * piece
        return self.algebra.one().scale(c) if value is None else value

    def coef(self):
        num = int(self.take()[1])
        if self.peek() == "/":
            self.pos += 1
            if self.peek() != "INT":
                raise self.fail({"integer"})
            tok = self.take()
            den = int(tok[1])
            if not self.algebra.field.coerce(den):
                raise self.error("zero denominator", tok)
            return self.algebra.field.ratio(num, den)
        return self.algebra.field.coerce(num)

    def run(self, c) -> Element:
        """A run of names: one path product c p q*, normalised once.

        The product is folded on edge names: the edges of p, a stack of
        ghost edges whose top is the first edge of q, and the vertex
        reached, which is None once the product has vanished."""
        names = self.algebra.generators
        tokens = self.tokens
        left, ghosts = [], []
        start = at = None
        while tokens[self.pos][0] == "NAME":
            tok = tokens[self.pos]
            self.pos += 1
            entry = names.get(tok[1])
            if entry is None:  # resolved even once the run is zero
                raise self.error(f"unknown name {tok[1]!r}", tok)
            src, dst, edge = entry
            star = tokens[self.pos][0] == "*"
            if star:
                self.pos += 1
            if start is None:
                start = at = dst if star else src
            if at is None:
                continue
            if edge is None:  # a vertex, its own star
                at = src if src == at else None
            elif star:  # e* needs r(e) and steps back to s(e)
                if dst == at:
                    ghosts.append(edge)
                    at = src
                else:
                    at = None
            elif ghosts:  # e* e = r(e), and f* e = 0 for f != e
                at = dst if ghosts.pop() == edge else None
            elif src == at:
                left.append(edge)
                at = dst
            else:
                at = None
        if at is None:
            return self.algebra.zero()
        mid = names[left[-1]][1] if left else start
        m = Monomial(Path(start, tuple(left), mid), Path(at, tuple(reversed(ghosts)), mid))
        return Element(self.algebra, self.algebra._normal(((m, c),)))

    def group(self) -> Element:
        self.pos += 1
        value = self.expr()
        if self.peek() != ")":
            raise self.fail({"')'"})
        self.pos += 1
        if self.peek() == "*":
            self.pos += 1
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
