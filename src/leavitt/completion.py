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


def _arrivals(special: Specialization, W: frozenset, K: Fraction):
    """The arrival paths into W of order < K, and whether any was left out.

    An arrival path p of length l whose last s edges are special (and
    whose edge before them, if any, is not) has order 2l/(2s + 1); it is
    kept iff 2l * K.den < K.num * (2s + 1).  The search runs depth first
    from each vertex outside W that reaches W, over edges into vertices
    that reach W, carrying l and s as integers.  A travel prefix of length
    L at u is pruned once 2(L + dist(u, W)) * K.den >= K.num * (2D + 1):
    each arrival path through it has length >= L + dist(u, W) and special
    suffix <= D, the ``_special_depth`` of W, so order >= K.  The flag is
    set when an arrival path failed the order test or a prefix was pruned.
    """
    g = special.graph
    num, den = K.numerator, K.denominator
    budget = num * (2 * _special_depth(special, W) + 1)
    dist = g.distances_to(W)
    steps = {
        u: [(e.name, e.dst, special.is_special(e.name), dist[e.dst])
            for e in g.out_edges(u) if e.dst in dist]
        for u in dist if u not in W
    }
    found = [g.vertex_path(w) for w in sorted(W)] if num > 0 else []
    dropped = num <= 0
    for v in sorted(steps):
        if 2 * dist[v] * den >= budget:
            dropped = True
            continue
        names: list[str] = []  # the travel prefix below the top of the stack
        stack = [(iter(steps[v]), 0)]
        while stack:
            it, run = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                if names:
                    names.pop()
                continue
            name, dst, on_special, d = step
            length = len(stack)
            s = run + 1 if on_special else 0
            if not d:
                if 2 * length * den < num * (2 * s + 1):
                    found.append(Path(v, (*names, name), dst))
                else:
                    dropped = True
            elif 2 * (length + d) * den >= budget:
                dropped = True
            else:
                names.append(name)
                stack.append((iter(steps[dst]), s))
    return found, dropped


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
    # s <= D <= |V| - 1, so it is shorter than K(2|V| + 1)/2.  The search
    # in _arrivals never goes that deep: it prunes a prefix of length L at
    # u once 2(L + dist(u, W)) >= K(2D + 1).  The cutoff decides exactness:
    # e(W) is exact iff no path of this length avoids W (so every arrival
    # path is shorter) and every arrival path has order < K.
    return math.ceil(Fraction(K) * (2 * len(g.vertices) + 1) / 2)


def arrival_idempotent(alg: LeavittAlgebra, W, K) -> TruncatedElement:
    """The sum of p p* over arrival paths in the hereditary set W.

    Keeps exactly the terms of order < K, found by the pruned search of
    ``_arrivals``, at precision K.
    The value is exact iff no path of length ``_enumeration_cutoff`` avoids
    W and the search left no arrival path out: none failed the order test
    and no prefix that can reach W was pruned.
    """
    K = as_order(K)
    g = alg.graph
    W = frozenset(W)
    if not g.is_hereditary(W):
        raise ValueError(f"{sorted(W)} is not hereditary")
    if K == INF:
        raise ValueError("arrival idempotents need a finite working precision")
    paths, dropped = _arrivals(alg.special, W, K)
    one = alg.field.one
    body = alg.element({Monomial(p, p): one for p in paths})
    if dropped or _outside_path_reaches(g, W, _enumeration_cutoff(g, K)):
        return truncate(body, K)
    return exact(body)


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
    wrapped = (
        (Monomial(g.concat(left, m.left), g.concat(left, m.right)), c)
        for left, operand in branches
        for m, c in operand.body.terms.items()
    )
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
