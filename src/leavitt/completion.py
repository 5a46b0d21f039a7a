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
from itertools import islice

from .algebra import Element, LeavittAlgebra, Monomial, add_terms
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

    def render(self) -> str:
        from .expr import render

        text = render(self.body)
        if self.is_exact:
            return text
        return f"{text} + O(V_{format_order(self.prec)})"

    def __repr__(self):
        return f"<{self.render()}>"


def exact(a: Element) -> TruncatedElement:
    return TruncatedElement(a, INF)


def truncate(a: Element, K) -> TruncatedElement:
    """Forget the part of a normal-form element of order >= K."""
    K = as_order(K)
    if K != INF:
        special = a.algebra.special
        kept = {m: c for m, c in a.terms.items() if order_of(special, m) < K}
        if len(kept) < len(a.terms):
            a = Element(a.algebra, kept)
    return TruncatedElement(a, K)


def trunc_add(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    return truncate(a.body + b.body, min(a.prec, b.prec))


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
    return truncate(body, prec)


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


def _special_depth(special: Specialization, W: frozenset) -> int:
    """D: the longest special walk from outside W that ends on entering W.

    Before it enters W such a walk visits distinct vertices outside W (a
    walk that repeats a vertex is on a special cycle and never leaves it),
    so D <= |V| - |W|.  The special suffix of an arrival path is such a walk.
    """
    n = len(special.graph.vertices) - len(W)
    return max(
        (next((len(p) for p in islice(special.walk(v), n + 1) if p.end in W), 0)
         for v in special.graph.vertices if v not in W),
        default=0,
    )


def _outside_path_reaches(g: Graph, W: frozenset, n: int) -> bool:
    """Whether some path of length n avoids the hereditary set W.

    No edge leaves W, so a cycle through a vertex outside W stays outside
    W and answers yes.  Without one, a successor outside W has fewer
    descendants, so one pass in that order finds the longest path.
    """
    longest: dict[str, int] = {}
    for v in sorted((v for v in g.vertices if v not in W), key=lambda v: len(g.descendants(v))):
        succ = [e.dst for e in g.out_edges(v) if e.dst not in W]
        if any(v in g.descendants(x) for x in succ):
            return True
        longest[v] = max((longest[x] + 1 for x in succ), default=0)
    return bool(longest) and max(longest.values()) >= n


def _enumeration_cutoff(g: Graph, K: Fraction) -> int:
    # An arrival path of order < K has 2l < K(2s + 1) with special suffix
    # s <= D <= |V| - 1, so it is shorter than K(2|V| + 1)/2.  The pruned
    # states of arrival_idempotent stop short of that, so the cutoff decides
    # exactness: e(W) is exact iff no path of this length avoids W (so every
    # arrival path is shorter) and every arrival path has order < K.
    return math.ceil(Fraction(K) * (2 * len(g.vertices) + 1) / 2)


def arrival_idempotent(alg: LeavittAlgebra, W, K) -> TruncatedElement:
    """The sum of p p* over the arrival paths p into the hereditary set W.

    An arrival path of length l whose last s edges are special (and whose
    edge before them, if any, is not) has order 2l/(2s + 1).  The sum is
    built by v = sum e e*, one edge at a time, over states (u, d, r): u
    reaches W after a travel prefix of length d with trailing special run r.
    A state is live iff 2(d + dist(u, W)) * K.den < K.num * (2r + 1) for u
    in W (the path is kept), or < K.num * (2D + 1) outside W, D the
    ``_special_depth`` of W (else every arrival path through the prefix
    has order >= K).  F(u, d, r), the sum of x x* over the arrival paths x
    from u that keep the whole path, is u for a live u in W.  Outside W it
    is the normal form of the sum of e F(r(e), d + 1, r') e* over the edges
    e at u into vertices that reach W, r' = r + 1 if e is special and 0 if
    not.  e(W) is the sum of the F(u, 0, 0).

    The value is exact iff no path of length ``_enumeration_cutoff`` avoids
    W and every state reached is live, which a forward pass over the states
    decides before any term is built.  Otherwise terms of order >= K are
    dropped, and early: a term p p* of F(u, d, r) other than u ends in a
    non-special edge, so wrapping never rewrites it and its order ends up
    2(d + |p|) >= 2(d + 1).
    """
    K = as_order(K)
    g = alg.graph
    W = frozenset(W)
    if not g.is_hereditary(W):
        raise ValueError(f"{sorted(W)} is not hereditary")
    if K == INF:
        raise ValueError("arrival idempotents need a finite working precision")
    special = alg.special
    num, den = K.numerator, K.denominator
    budget = num * (2 * _special_depth(special, W) + 1)
    dist = g.distances_to(W)
    steps = {u: [(Path(u, (e.name,), e.dst), special.is_special(e.name))
                 for e in g.out_edges(u) if e.dst in dist]
             for u in dist if u not in W}
    levels = []  # the live states (u, r) at each depth d
    states = {(u, 0) for u in dist}
    dropped = False
    while states:
        d = len(levels)
        live = {(u, r) for u, r in states
                if 2 * (d + dist[u]) * den < (num * (2 * r + 1) if u in W else budget)}
        dropped |= len(live) < len(states)
        levels.append(live)
        states = {(head.end, r + 1 if on_special else 0)
                  for u, r in live if u not in W for head, on_special in steps[u]}
    inexact = dropped or _outside_path_reaches(g, W, _enumeration_cutoff(g, K))
    below: dict = {}  # F at depth d + 1
    for d in reversed(range(len(levels))):
        here = {}
        for u, r in levels[d]:
            if u in W:
                here[u, r] = alg.vertex(u).terms
                continue
            branches = ((head, below.get((head.end, r + 1 if on_special else 0), {}))
                        for head, on_special in steps[u])
            terms = alg.element(_wrapped(g, branches)).terms
            if inexact and 2 * (d + 1) * den >= num:
                terms = {m: c for m, c in terms.items() if not m.left.edges}
            here[u, r] = terms
        below = here
    body = Element(alg, {m: c for terms in below.values() for m, c in terms.items()})
    return truncate(body, K) if inexact else exact(body)


def _wrapped(g: Graph, branches):
    """The terms of left x left* over the (left, x) branches, x a term dict."""
    return ((Monomial(g.concat(left, m.left), g.concat(left, m.right)), c)
            for left, terms in branches for m, c in terms.items())


def conjugate(alg: LeavittAlgebra, x, w: str, K) -> TruncatedElement:
    """Entry w of the recovery operator C applied to the vector x.

    C(x)_w collects walk(k) f x(r(f)) f* walk(k)* over the special walk
    from w and the non-special edges f at the walk's k-th vertex, keeping
    k while 2(k+1) < K; the walk also stops at a sink.  ``x(u)`` returns
    the operand at u.  The conjugating edge f is never special, so
    wrapping a monomial leaves its special suffix and degree alone while
    adding 2(k+1) to its length: orders never drop, and the operand's
    precision passes through undamaged.  Wrapping also keeps a basic
    monomial basic: each side of the result ends in the last edge of that
    side of the operand, or in f where that side is a vertex, and f is not
    special.  The wrapped terms therefore need no normal-form pass.
    """
    g = alg.graph
    special = alg.special
    branches = []  # (walk(k) f, the operand at r(f))
    for k, walk in enumerate(special.walk(w)):
        if 2 * (k + 1) >= K:
            break
        branches += [(g.extend(walk, f), x(f.dst)) for f in g.out_edges(walk.end)
                     if not special.is_special(f.name)]
    wrapped = _wrapped(g, ((left, operand.body.terms) for left, operand in branches))
    raw = add_terms({}, wrapped, alg.field.zero)
    # dropped walk indices only shed order >= K
    prec = min(min((operand.prec for _, operand in branches), default=INF), K)
    return truncate(Element(alg, raw), prec)


def vertex_idempotent(alg: LeavittAlgebra, v: str, K) -> TruncatedElement:
    """The limit idempotent of the special walk from v: e_v = v - C(1)_v.

    C(1)_v sums the monomials (walk(k) f)(walk(k) f)*, of order 2(k + 1),
    over the branches of the walk.  When the walk reaches a sink the sum
    is finite and the value is exact; otherwise terms with order < K are
    kept at precision K.
    """
    K = as_order(K)
    reaches_sink = bool(alg.special.orbit_vertices(v) & alg.graph.sinks())
    if not reaches_sink and K == INF:
        raise ValueError(
            "vertex idempotents need a finite working precision unless the "
            "special walk reaches a sink"
        )
    if reaches_sink:
        K = INF
    # C is linear, so e_v = v + C(-1)_v.  The branch monomials have length
    # >= 2 and v has order 0, so v merges into the body iff K > 0.
    minus_one = {u: exact(-alg.vertex(u)) for u in alg.graph.vertices}
    branches = conjugate(alg, minus_one.__getitem__, v, K).body.terms
    head = alg.vertex(v).terms if K else {}
    return TruncatedElement(Element(alg, {**head, **branches}), K)
