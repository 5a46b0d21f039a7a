"""Truncated arithmetic in the graded completion.

A ``TruncatedElement`` stores a normal-form body plus a precision level K
with this contract: the true value minus the body is a (possibly infinite)
converging sum of monomials, each of order >= K.  In particular the
remainder lies in the closure of the filtration stage at level K.  The
body itself only keeps terms of order < K, and ``prec == inf`` means the
value is exact.

Precision propagates through products via ``product_precision`` plus one
unit of slack: rewriting a dropped-tail product onto the storage basis can
cost one level, so a congruence check at level K compares bodies down to
order K - 1.  Comparisons never claim more precision than both operands
carry; asking for more raises an error instead of silently degrading.

Truncated values never mix specializations or fields: the order statistic
depends on both, so the algebra is part of the value's identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, LeavittAlgebra, Monomial
from .filtration import INF, Order, as_order, format_order, min_order, order_of, product_precision
from .graph import Graph, Path
from .specialization import Specialization


@dataclass(frozen=True)
class TruncatedElement:
    body: Element
    prec: Order

    @property
    def algebra(self) -> LeavittAlgebra:
        return self.body.algebra

    @property
    def is_exact(self) -> bool:
        return self.prec == INF

    def __add__(self, other):
        return trunc_add(self, other)

    def __sub__(self, other):
        return trunc_add(self, _neg(other))

    def __mul__(self, other):
        return trunc_mul(self, other)

    def render(self) -> str:
        from .expr import render

        text = render(self.body)
        if self.is_exact:
            return text
        return f"{text} + O(V_{format_order(self.prec)})"

    def __repr__(self):
        return f"<{self.render()}>"


def _drop_high_order(a: Element, prec: Order) -> Element:
    if prec == INF:
        return a
    special = a.algebra.special
    kept = {m: c for m, c in a.terms.items() if order_of(special, m) < prec}
    if len(kept) == len(a.terms):
        return a
    return Element(a.algebra, kept)


def _make(body: Element, prec: Order) -> TruncatedElement:
    return TruncatedElement(_drop_high_order(body, prec), prec)


def exact(a: Element) -> TruncatedElement:
    return TruncatedElement(a, INF)


def _neg(a: TruncatedElement) -> TruncatedElement:
    return TruncatedElement(-a.body, a.prec)


def truncate(a: Element, K) -> TruncatedElement:
    """Forget the part of a normal-form element of order >= K."""
    return _make(a, as_order(K))


def trunc_add(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    return _make(a.body + b.body, min(a.prec, b.prec))


def _minus_slack(k: Order) -> Order:
    if k == INF:
        return INF
    return max(k - 1, Fraction(0))


def trunc_mul(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    """Product with the guaranteed-order bookkeeping.

    Tail-times-body terms keep the order promised by ``product_precision``;
    the tail-times-tail part keeps (min(prec) - 1)/2; normalizing costs one
    more level of slack.  Exact times exact stays exact.
    """
    special = a.algebra.special
    body = a.body * b.body
    bounds = [product_precision(special, a.prec, m) for m in b.body.terms]
    bounds += [product_precision(special, b.prec, m) for m in a.body.terms]
    lo = min(a.prec, b.prec)
    bounds.append(INF if lo == INF else Fraction(lo - 1, 2))
    prec = _minus_slack(min(bounds))
    return _make(body, prec)


def equal_mod(a: TruncatedElement, b: TruncatedElement, K) -> bool:
    """Congruence at level K: bodies agree down to order K - 1.

    K may not exceed either operand's precision; such a request could not
    be answered soundly and raises instead.
    """
    diff = a.body - b.body
    K = as_order(K)
    if K > min(a.prec, b.prec):
        raise ValueError(
            f"congruence at level {format_order(K)} exceeds available precision "
            f"{format_order(min(a.prec, b.prec))}"
        )
    if K == INF:
        return diff.is_zero
    return min_order(diff) >= K - 1


# -- arrival paths and their idempotents -----------------------------------


def _arrival_enumeration(g: Graph, W, max_len: int):
    """Arrival paths into W of length <= max_len, shortest first, and a completeness flag.

    The flag is set when no travel prefix outside W survives, i.e. the
    enumeration provably saw the whole arrival set.
    """
    W = frozenset(W)
    results = [g.vertex_path(w) for w in sorted(W)]
    frontier = [g.vertex_path(v) for v in g.vertices if v not in W]
    length = 0
    while frontier and length < max_len:
        nxt = []
        for p in frontier:
            for e in g.out_edges(p.end):
                q = g.extend(p, e)
                if e.dst in W:
                    results.append(q)
                else:
                    nxt.append(q)
        frontier = nxt
        length += 1
    return results, not frontier


def arrival_paths(g: Graph, W, max_len: int) -> list[Path]:
    """All paths of length <= max_len whose first vertex in W is the range.

    Every vertex of W counts, as a zero-length path.  W must be nonempty.
    """
    W = frozenset(W)
    if not W:
        raise ValueError("arrival paths need a nonempty target set")
    for w in W:
        g.check_vertex(w)
    return sorted(_arrival_enumeration(g, W, max_len)[0], key=Path.sort_key)


def _enumeration_cutoff(g: Graph, K: Fraction) -> int:
    # Arrival paths keep their special suffix below |V| per side, so a path
    # of order < K has length < K(2|V| + 1)/2.
    return math.ceil(Fraction(K) * (2 * len(g.vertices) + 1) / 2)


def arrival_idempotent(alg: LeavittAlgebra, W, K) -> TruncatedElement:
    """The sum of p p* over arrival paths in the hereditary set W.

    Keeps the terms of order < K at precision K; when the enumeration
    provably exhausts the arrival set the value is exact.
    """
    K = as_order(K)
    g = alg.graph
    W = frozenset(W)
    if not g.is_hereditary(W):
        raise ValueError(f"{sorted(W)} is not hereditary")
    if K == INF:
        raise ValueError("arrival idempotents need a finite working precision")
    paths, complete = _arrival_enumeration(g, W, _enumeration_cutoff(g, K))
    one = alg.field.one
    kept: dict[Monomial, object] = {}
    dropped = False
    for p in paths:
        m = Monomial(p, p)
        if order_of(alg.special, m) < K:
            kept[m] = one
        else:
            dropped = True
    body = alg.element(kept)
    if complete and not dropped:
        return exact(body)
    return _make(body, K)


def walk_branches(special: Specialization, v: str, K):
    """The branch paths walk(k) f of the special walk from v.

    walk(k) is the walk's first k steps and f a non-special edge at its
    end; k runs while 2(k + 1) < K and the walk has not reached a sink.
    The monomial (walk(k) f)(walk(k) f)* has order 2(k + 1).
    """
    g = special.graph
    for k, walk in enumerate(special.walk(v)):
        if 2 * (k + 1) >= K:
            return
        for f in g.out_edges(walk.end):
            if not special.is_special(f.name):
                yield g.extend(walk, f)


def vertex_idempotent(alg: LeavittAlgebra, v: str, K) -> TruncatedElement:
    """The limit idempotent of the special walk from v.

    Equals v minus, for every step k of the walk and every non-special
    edge f leaving the walk's k-th vertex, the monomial (walk f)(walk f)*.
    Each such term has order 2(k + 1).  When the walk reaches a sink the
    sum is finite and the value is exact; otherwise terms with order < K
    are kept at precision K.
    """
    K = as_order(K)
    g = alg.graph
    special = alg.special
    reaches_sink = bool(special.orbit_vertices(v) & g.sinks())
    if not reaches_sink and K == INF:
        raise ValueError(
            "vertex idempotents need a finite working precision unless the "
            "special walk reaches a sink"
        )

    vp = g.vertex_path(v)
    terms: dict[Monomial, object] = {Monomial(vp, vp): alg.field.one}
    minus_one = -alg.field.one
    for q in walk_branches(special, v, INF if reaches_sink else K):
        terms[Monomial(q, q)] = minus_one
    body = alg.element(terms)
    if reaches_sink:
        return exact(body)
    return _make(body, K)
