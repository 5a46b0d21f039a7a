"""Exact arithmetic in the Leavitt path algebra of a finite graph.

Generators are the vertices v, the edges e and the ghost edges e*, subject
to the usual Cuntz-Krieger relations: vertices are orthogonal idempotents,
edges compose with their endpoints, e*f = delta_{e,f} r(e), and at every
non-sink vertex v the relation v = sum_{s(e)=v} e e* holds.

An element is a finite linear combination of monomials p q* (two paths
with a common range).  Fixing a specialization singles out a linear basis:
the monomials whose two paths do not both end in the same special edge.
Elements are always stored on that basis; the only rewrite rule replaces a
monomial (p c, q c) with special last edge c by

    (p, q) - sum over the other edges f at s(c) of (p f, q f),

which is the vertex relation at s(c) rearranged.  A vertex has exactly one
special edge, so every replacement (p f, q f) ends in a non-special edge
and is already basic: only (p, q) may be rewritten again.  Each monomial
therefore rewrites along a single chain, of at most min(l(p), l(q)) steps.
A new element or product merges its coefficients once, over all the chains.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .fields import QQ
from .graph import Graph, Path
from .specialization import Specialization


class Monomial(namedtuple("Monomial", "left right")):
    """The product p q* of two paths with a common range.

    A ``(left, right)`` tuple, so hashing and equality run in C."""

    __slots__ = ()

    def __new__(cls, left: Path, right: Path):
        if left.end != right.end:
            raise ValueError(
                f"paths end at {left.end!r} and {right.end!r}; "
                "a monomial needs a common range"
            )
        return tuple.__new__(cls, (left, right))

    # so ``_replace`` and ``copy.replace`` check the common range too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def degree(self) -> int:
        return len(self.left.edges) - len(self.right.edges)

    @property
    def total_length(self) -> int:
        return len(self.left.edges) + len(self.right.edges)

    def star(self) -> "Monomial":
        return Monomial(self.right, self.left)

    def sort_key(self):
        return (
            self.degree,
            self.total_length,
            self.left.edges,
            self.left.start,
            self.right.edges,
            self.right.start,
        )

    def __str__(self):
        parts = list(self.left.edges) + [name + "*" for name in reversed(self.right.edges)]
        if not parts:
            return self.left.start
        return " ".join(parts)


def monomial_product(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Structural product (p,q)(u,w); None when q* u vanishes.

    q* u is nonzero exactly when one of q, u continues the other: either
    u = q u' giving (p u', w), or q = u q' giving (p, w q').
    """
    q, u = m1.right.edges, m2.left.edges
    n = min(len(q), len(u))
    if m1.right.start != m2.left.start or q[:n] != u[:n]:
        return None
    p, w = m1.left, m2.right
    if len(u) > n:
        return Monomial(Path(p.start, p.edges + u[n:], m2.left.end), w)
    return Monomial(p, Path(w.start, w.edges + q[n:], m1.right.end))


def add_terms(terms: dict, pairs) -> dict:
    """Add (monomial, coefficient) pairs into ``terms`` in place, dropping
    monomials whose coefficients sum to zero; returns ``terms``.  Each
    coefficient is already a field element: a new monomial stores it as is,
    unless it is zero, and only a monomial already present adds."""
    for m, c in pairs:
        if m not in terms:
            if c:
                terms[m] = c
        elif acc := terms[m] + c:
            terms[m] = acc
        else:
            del terms[m]
    return terms


class LeavittAlgebra:
    """The Leavitt path algebra of a graph, tied to a specialization and field.

    The specialization fixes the storage basis (and the filtration order
    statistic downstream); the field fixes the exact coefficient type.
    """

    def __init__(self, special: Specialization, field=QQ):
        self.special = special
        self.graph: Graph = special.graph
        self.field = field

    def __eq__(self, other):
        return (
            isinstance(other, LeavittAlgebra)
            and self.special == other.special
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.special, self.field))

    def __repr__(self):
        return f"LeavittAlgebra({self.special!r}, {self.field!r})"

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        """The identity: the sum of all vertices."""
        one = self.field.one
        return Element(
            self,
            {Monomial(self.graph.vertex_path(v), self.graph.vertex_path(v)): one
             for v in self.graph.vertices},
        )

    def vertex(self, name: str) -> "Element":
        p = self.graph.vertex_path(name)
        return Element(self, {Monomial(p, p): self.field.one})

    def edge(self, name: str) -> "Element":
        e = self.graph.edge(name)
        p = self.graph.path(e.src, (name,))
        return Element(self, {Monomial(p, self.graph.vertex_path(e.dst)): self.field.one})

    def ghost(self, name: str) -> "Element":
        return self.edge(name).star()

    @cached_property
    def generators(self) -> dict:
        """Name -> (source, range, the edge's name or None for a vertex) for
        every vertex and edge, built once per algebra: the parser's name
        table.  Paths built from it hold the graph's own name strings."""
        table = {v: (v, v, None) for v in self.graph.vertices}
        table.update((e.name, (e.src, e.dst, e.name)) for e in self.graph.edges)
        return table

    def element(self, terms) -> "Element":
        """Build an element from monomial/coefficient pairs, normalized."""
        items = terms.items() if isinstance(terms, dict) else terms
        coerce = self.field.coerce
        return Element(self, self._normal((m, coerce(c)) for m, c in items))

    # -- rewriting ----------------------------------------------------------

    def is_basic(self, m: Monomial) -> bool:
        """True iff m belongs to the storage basis for this specialization."""
        return self._reducible_edge(m) is None

    def _reducible_edge(self, m: Monomial):
        lp, rp = m.left.edges, m.right.edges
        if lp and rp and lp[-1] == rp[-1] and self.special.is_special(lp[-1]):
            return self.graph.edge(lp[-1])
        return None

    def _normal(self, pairs) -> dict:
        """Rewrite (monomial, coefficient) pairs, which may repeat, cancel or
        be zero, onto the basis: one ``add_terms`` over their rewrite chains
        is the only merge."""
        return add_terms({}, self._rewrite(pairs))

    def _rewrite(self, pairs):
        """Yield each pair (m, c) as its rewrite chain.

        While m = (p e, q e) ends in the same special edge e on both sides,
        yield -c (p f, q f) for every other edge f at s(e), each already
        basic, and go on with (p, q); then yield the last, basic monomial.

        Every monomial of the chain of m has order > ord(m) - 1: this is
        the one level of slack of ``completion``.  Write m = (p t, q t),
        with t the run of j special edges that the chain strips, and let n
        and w = s + d + 1 be the order parameters of (p, q).  As t is
        special, ord(m) = (n + 2j)/(w + 2j).  The last monomial (p, q) has
        order n/w, which is >= ord(m) when n >= w; otherwise ord(m) - n/w =
        [2j/(w + 2j)] [(w - n)/w] < 1.  The side monomial (p t' f, q t' f)
        of step i has f not special and |t'| = i - 1, so its order
        (n + 2i)/(d + 1) is >= (n + 2i)/(w + 2i), which lies between n/w
        and ord(m).  Merging the chains into a normal form only cancels.
        """
        g = self.graph
        for m, c in pairs:
            while (e := self._reducible_edge(m)) is not None:
                p = Path(m.left.start, m.left.edges[:-1], e.src)
                q = Path(m.right.start, m.right.edges[:-1], e.src)
                for f in g.out_edges(e.src):
                    if f.name != e.name:
                        yield Monomial(g.extend(p, f), g.extend(q, f)), -c
                m = Monomial(p, q)
            yield m, c


class Element:
    """A finite linear combination of basis monomials; immutable by contract."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LeavittAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _check(self, other: "Element"):
        if self.algebra != other.algebra:
            raise ValueError("elements live in different algebras")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Monomial]:
        return sorted(self.terms, key=Monomial.sort_key)

    def coefficient(self, m: Monomial):
        return self.terms.get(m, self.algebra.field.zero)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return Element(self.algebra, terms)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        c = self.algebra.field.coerce(c)
        if not c:
            return self.algebra.zero()
        return Element(self.algebra, {m: c * x for m, x in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, Element):
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        return Element(self.algebra, self.algebra._normal(
            (m, c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
            if (m := monomial_product(m1, m2)) is not None))

    def star(self) -> "Element":
        """The involution: swaps each monomial's paths, fixes coefficients."""
        return Element(self.algebra, {m.star(): c for m, c in self.terms.items()})

    def __str__(self):
        from .expr import render

        return render(self)

    def __repr__(self):
        return f"<{self}>"
