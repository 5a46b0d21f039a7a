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

which is the vertex relation at s(c) rearranged.  The replacement terms
end in a non-special edge, so each rewrite shortens the reducible part and
the process terminates after at most min(l(p), l(q)) steps per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .graph import Graph, Path
from .specialization import Specialization


@dataclass(frozen=True)
class Monomial:
    """The product p q* of two paths with a common range."""

    left: Path
    right: Path

    def __post_init__(self):
        if self.left.end != self.right.end:
            raise ValueError(
                f"paths end at {self.left.end!r} and {self.right.end!r}; "
                "a monomial needs a common range"
            )

    @property
    def degree(self) -> int:
        return len(self.left) - len(self.right)

    @property
    def total_length(self) -> int:
        return len(self.left) + len(self.right)

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


def _extends(prefix: Path, longer: Path) -> bool:
    return (
        longer.start == prefix.start
        and longer.edges[: len(prefix.edges)] == prefix.edges
    )


def monomial_product(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Structural product (p,q)(u,w); None when q* u vanishes.

    q* u is nonzero exactly when one of q, u continues the other: either
    u = q u' giving (p u', w), or q = u q' giving (p, w q').
    """
    q, u = m1.right, m2.left
    if len(u) >= len(q):
        if not _extends(q, u):
            return None
        tail = Path(q.end, u.edges[len(q.edges):], u.end)
        left = Path(m1.left.start, m1.left.edges + tail.edges, tail.end)
        return Monomial(left, m2.right)
    if not _extends(u, q):
        return None
    tail = Path(u.end, q.edges[len(u.edges):], q.end)
    right = Path(m2.right.start, m2.right.edges + tail.edges, tail.end)
    return Monomial(m1.left, right)


def add_terms(terms: dict, pairs, zero) -> dict:
    """Add (monomial, coefficient) pairs into ``terms`` in place, dropping
    monomials whose coefficients sum to ``zero``; returns ``terms``."""
    for m, c in pairs:
        acc = terms.get(m, zero) + c
        if acc:
            terms[m] = acc
        elif m in terms:
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

    def element(self, terms) -> "Element":
        """Build an element from monomial/coefficient pairs, normalized."""
        items = terms.items() if isinstance(terms, dict) else terms
        coerce = self.field.coerce
        raw = add_terms({}, ((m, coerce(c)) for m, c in items), self.field.zero)
        return Element(self, self._normal(raw))

    # -- rewriting ----------------------------------------------------------

    def is_basic(self, m: Monomial) -> bool:
        """True iff m belongs to the storage basis for this specialization."""
        return self._reducible_edge(m) is None

    def _reducible_edge(self, m: Monomial):
        lp, rp = m.left.edges, m.right.edges
        if lp and rp and lp[-1] == rp[-1] and self.special.is_special(lp[-1]):
            return self.graph.edge(lp[-1])
        return None

    def _normal(self, raw: dict, chooser=None) -> dict:
        """Rewrite onto the basis.  The result does not depend on the order
        in which reducible monomials are picked; ``chooser`` exists so tests
        can randomize that order."""
        work = [(m, c) for m, c in raw.items() if c]
        return add_terms({}, self._rewrite(work, chooser), self.field.zero)

    def _rewrite(self, work: list, chooser):
        """Drain ``work`` by the rewrite rule, yielding the basic terms."""
        while work:
            idx = len(work) - 1 if chooser is None else chooser(len(work))
            m, c = work.pop(idx)
            e = self._reducible_edge(m)
            if e is None:
                yield m, c
                continue
            p1 = Path(m.left.start, m.left.edges[:-1], e.src)
            q1 = Path(m.right.start, m.right.edges[:-1], e.src)
            work.append((Monomial(p1, q1), c))
            for f in self.graph.out_edges(e.src):
                if f.name == e.name:
                    continue
                work.append(
                    (Monomial(self.graph.extend(p1, f), self.graph.extend(q1, f)), -c)
                )


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
        terms = add_terms(dict(self.terms), other.terms.items(), self.algebra.field.zero)
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
        products = (
            (m, c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
            if (m := monomial_product(m1, m2)) is not None
        )
        raw = add_terms({}, products, self.algebra.field.zero)
        return Element(self.algebra, self.algebra._normal(raw))

    def star(self) -> "Element":
        """The involution: swaps each monomial's paths, fixes coefficients."""
        return Element(self.algebra, {m.star(): c for m, c in self.terms.items()})

    def degree_split(self) -> dict[int, "Element"]:
        """Split into homogeneous parts by degree l(p) - l(q)."""
        parts: dict[int, dict] = {}
        for m, c in self.terms.items():
            parts.setdefault(m.degree, {})[m] = c
        return {d: Element(self.algebra, t) for d, t in sorted(parts.items())}

    def __str__(self):
        from .expr import render

        return render(self)

    def __repr__(self):
        return f"<{self}>"
