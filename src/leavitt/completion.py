"""Truncated arithmetic in the graded completion.

A ``TruncatedElement`` stores a normal-form body plus a precision level K
with this contract: the true value minus the body is a (possibly infinite)
converging sum of monomials, each of order >= K.  In particular the
remainder lies in the closure of the filtration stage at level K.  The
body itself only keeps terms of order < K, and ``prec == inf`` means the
value is exact.  The precision is fixed when the element is made; terms
are built only when read.  ``below(L)`` returns the body's terms of order
below a level L <= prec, and ``body`` is ``below(prec)``.  Products, sums
and vertex idempotents defer their terms, and a caller that reads below L
forms only what that level needs.  A product of two inexact operands reads
the body of each operand that is not diagonal to fix its precision, so
even working-precision escalation, which reads only precisions, forms
such operands.

An element is diagonal when every term of its body is a projection x x*,
x a vertex or a path that ends in a non-special edge: such a term has
weight 1 and order 2|x|.  The idempotents e(W) and e_v, the recovery
operator's values, vertices, zero and one are diagonal, and so are sums
and products of diagonal elements, which span the commutative diagonal
subalgebra: (x x*)(y y*) is the projection of the longer path when one
path is a prefix of the other, and 0 otherwise, with no rewriting.  The
makers of diagonal elements say so, and ``trunc_mul`` uses it to fix its
precision without reading a diagonal operand, to split without scanning
one, and to multiply by prefix lookup.  A diagonal body is cut by length,
and its largest read so far serves every lower read.

Precision propagates through products via ``product_precision`` plus one
unit of slack: rewriting a dropped-tail product onto the storage basis can
cost one level, so a congruence check at level K compares bodies down to
order K - 1 and reads each side below max(K - 1, 0).  The same slack tells
a product how far to read its operands: a tail of order >= k times a term
m normalises to order >= product_precision(k, m) - 1.  Comparisons never
claim more precision than both operands carry; asking for more raises an
error instead of silently degrading.

Truncated values never mix specializations or fields: the order statistic
depends on both, so the algebra is part of the value's identity.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from itertools import islice

from .algebra import Element, LeavittAlgebra, Monomial, add_terms
from .filtration import (INF, Order, as_order, format_order, order_key, params_of,
                         product_precision)
from .filtration import order_of  # noqa: F401  bench/selftest.py traces this binding
from .graph import Graph, Path
from .specialization import Specialization


class TruncatedElement:
    """A body known below ``prec``; ``make(L)`` builds its terms of order
    below a level L <= prec.

    A diagonal element keeps its largest read: its maker's read below L is
    its whole body cut below L, as a diagonal product or sum never rewrites,
    so a lower read is a cut of the kept one, by length.  Any other element
    keeps only its whole body."""

    def __init__(self, algebra: LeavittAlgebra, prec: Order, make: Callable[[Order], Element],
                 diagonal: bool = False):
        self.algebra = algebra
        self.prec = prec
        self.diagonal = diagonal
        self._make = make
        self._read: Element | None = None  # the kept read, below self._level
        self._level: Order = 0
        self._lengths: list[dict] | None = None  # a diagonal read's terms by |x|

    @property
    def body(self) -> Element:
        return self.below(self.prec)

    def below(self, L: Order) -> Element:
        """The body's terms of order below L; the whole body, built once,
        for L >= prec."""
        L = min(L, self.prec)
        if self._read is None or self._level < L:
            if L < self.prec and not self.diagonal:
                return self._make(L)
            self._read, self._level, self._lengths = self._make(L), L, None
            if L == self.prec:
                del self._make  # release the operands the maker holds
        if L >= self._level:
            return self._read
        return self._cut(L) if self.diagonal else _below(self._read, L)

    def _cut(self, L: Order) -> Element:
        """The kept diagonal read's terms x x* with 2|x| < L, a union of
        length buckets made on the first cut."""
        if self._lengths is None:
            self._lengths = []
            for m, c in self._read.terms.items():
                n = len(m.left.edges)
                while len(self._lengths) <= n:
                    self._lengths.append({})
                self._lengths[n][m] = c
        room = math.ceil(L / 2)  # 2n < L iff n < room
        if room >= len(self._lengths):
            return self._read
        terms = {}
        for bucket in self._lengths[:room]:
            terms.update(bucket)
        return Element(self.algebra, terms)

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


def _below(a: Element, L: Order) -> Element:
    """The terms of a normal-form element of order below L."""
    if L == INF:
        return a
    special = a.algebra.special
    num, den = L.numerator, L.denominator
    kept = {}
    for m, c in a.terms.items():
        n, weight = order_key(special, m)
        if n * den < num * weight:
            kept[m] = c
    return a if len(kept) == len(a.terms) else Element(a.algebra, kept)


def _held(a: Element, prec: Order, diagonal: bool = False) -> TruncatedElement:
    """A built body a, whose terms all have order below prec."""
    held = TruncatedElement(a.algebra, prec, None, diagonal)
    held._read, held._level = a, prec
    return held


def exact(a: Element) -> TruncatedElement:
    """a, exact; diagonal when a is a combination of vertices, such as a
    vertex, zero or one."""
    return _held(a, INF, all(not m.left.edges and not m.right.edges for m in a.terms))


def truncate(a: Element, K) -> TruncatedElement:
    """Forget the part of a normal-form element of order >= K."""
    K = as_order(K)
    return _held(_below(a, K), K)


def _common_algebra(a: TruncatedElement, b: TruncatedElement) -> LeavittAlgebra:
    if a.algebra != b.algebra:
        raise ValueError("elements live in different algebras")
    return a.algebra


def trunc_add(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    return TruncatedElement(_common_algebra(a, b), min(a.prec, b.prec),
                            lambda L: a.below(L) + b.below(L), a.diagonal and b.diagonal)


def _minus_slack(k: Order) -> Order:
    if k == INF:
        return INF
    return max(k - 1, Fraction(0))


def _split_level(special: Specialization, L: Order, terms) -> Order:
    """The least k at which a tail of order >= k times any of the monomials
    ``terms`` normalises to order >= L, that is product_precision(k, m) - 1
    >= L: k >= 2(L + 1) + 1 and k >= 2(s + d + 1)(L + 1) - n + d.  A term of
    weight s + d + 1 = 1, as every term of a diagonal element is, needs only
    the first bound, so a diagonal operand passes no terms."""
    if L == INF:
        return INF
    num, den = L.numerator + L.denominator, L.denominator  # L + 1
    top = 2 * num + den
    for m in terms:
        n, s, d = params_of(special, m)
        top = max(top, 2 * (s + d + 1) * num - (n - d) * den)
    return Fraction(top, den)


def _diagonal_times(d: Element, z: Element, d_left: bool) -> Element:
    """d z (``d_left``) or z d, for d diagonal and z any normal form, by
    prefix lookup.

    Let x be a vertex or a path that ends in a non-special edge, and a b* a
    basic monomial.  Then

        (x x*)(y y*) is y y* if x is a prefix of y, x x* if y is a prefix
                     of x, and 0 otherwise;
        (x x*)(a b*) is a b* if x is a prefix of a, (x, b x') if x = a x',
                     and 0 otherwise;
        (a b*)(x x*) is a b* if x is a prefix of b, (a x', x) if x = b x',
                     and 0 otherwise,

    as x* a is a' when a = x a', x'* when x = a x', and 0 when neither path
    continues the other.  The first line is the second with a = b = y.  In
    (x, b x') both paths end in x's last edge, which is not special, so
    every result term is basic: no monomial product and no normal form.
    Each term of z is looked up once per prefix of its meeting path, and
    each x once per length of a meeting path shorter than x.
    """
    alg = d.algebra
    through = {}  # (start, edges) of a prefix of a meeting path -> those z terms
    into = {}  # k -> (start, edges) of a meeting path of length k -> (other path, c)
    for m, c in z.terms.items():
        meet, other = (m.left, m.right) if d_left else (m.right, m.left)
        start, edges = meet.start, meet.edges
        for i in range(len(edges) + 1):
            through.setdefault((start, edges[:i]), []).append((m, c))
        into.setdefault(len(edges), {}).setdefault((start, edges), []).append((other, c))
    pairs = []
    for t, w in d.terms.items():
        x = t.left
        start, edges = x.start, x.edges
        for m, c in through.get((start, edges), ()):
            pairs.append((m, w * c if d_left else c * w))
        for k, ends in into.items():
            if k < len(edges):
                for other, c in ends.get((start, edges[:k]), ()):
                    q = Path(other.start, other.edges + edges[k:], x.end)
                    pairs.append((Monomial(x, q), w * c) if d_left else (Monomial(q, x), c * w))
    return Element(alg, add_terms({}, pairs, alg.field.zero))


def trunc_mul(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    """Product with the guaranteed-order bookkeeping.

    Tail-times-body terms keep the order promised by ``product_precision``;
    the tail-times-tail part keeps (min(prec) - 1)/2; normalizing costs one
    more level of slack.  Exact times exact stays exact.  An exact operand
    has no tail, so the other operand's terms bound nothing and are not
    read; the product itself is formed only when its terms are read.  A
    diagonal operand is not read either: each of its terms m has weight 1,
    so product_precision(k, m) = max((k - 1)/2, 0), never below the bound
    (min(prec) - 1)/2, as k is the other operand's precision.

    Read below L, the product first reads all of x, which is the diagonal
    operand when just one is diagonal (its split level needs no read), b
    when only b is exact (the precision read b's terms) and a otherwise.  It
    reads the other operand, y, below the ``_split_level`` k_y of x's terms,
    and then x below the level k_x of the terms of y it read.  As x y =
    x y_hi + x_lo y_lo + x_hi y_lo, and the first and last parts normalise
    to order >= L, the terms below L are those of x_lo y_lo.  A diagonal x
    multiplies by prefix lookup, ``_diagonal_times``.  When both operands
    are diagonal, so is the product: each of its terms is the longer of two
    projections, so the terms below L are the product of the operands'
    terms below L.
    """
    alg = _common_algebra(a, b)
    special = alg.special
    lo = min(a.prec, b.prec)
    bounds = [INF if lo == INF else Fraction(lo - 1, 2)]
    if a.prec != INF and not b.diagonal:
        bounds += [product_precision(special, a.prec, m) for m in b.body.terms]
    if b.prec != INF and not a.diagonal:
        bounds += [product_precision(special, b.prec, m) for m in a.body.terms]
    prec = _minus_slack(min(bounds))
    diagonal = a.diagonal and b.diagonal
    swap = b.diagonal if a.diagonal != b.diagonal else b.is_exact and not a.is_exact
    x, y = (b, a) if swap else (a, b)

    def make(L):
        if diagonal:
            return _diagonal_times(a.below(L), b.below(L), True)
        y_lo = y.below(_split_level(special, L, () if x.diagonal else x.body.terms))
        x_lo = x.below(_split_level(special, L, y_lo.terms))
        if x.diagonal:
            return _below(_diagonal_times(x_lo, y_lo, not swap), L)
        return _below(y_lo * x_lo if swap else x_lo * y_lo, L)

    return TruncatedElement(alg, prec, make, diagonal)


def equal_mod(a: TruncatedElement, b: TruncatedElement, K) -> bool:
    """Congruence at level K: bodies agree down to order K - 1.

    Each side is read below max(K - 1, 0), the only terms the congruence
    compares, and the reads are compared term by term: a normal form is
    unique, and no stored element holds a zero coefficient.  K may not
    exceed either operand's precision; such a request raises instead.
    """
    _common_algebra(a, b)
    K = as_order(K)
    if K > min(a.prec, b.prec):
        raise ValueError(
            f"congruence at level {format_order(K)} exceeds available precision "
            f"{format_order(min(a.prec, b.prec))}"
        )
    L = _minus_slack(K)
    return a.below(L) == b.below(L)


# -- arrival paths and their idempotents -----------------------------------


def _special_depth(special: Specialization, W: frozenset) -> int:
    """D: the longest special walk from outside W that ends on entering W.

    Before it enters W such a walk visits distinct vertices outside W (a
    walk that repeats a vertex is on a special cycle and never leaves it),
    so D <= |V| - |W|.  The special suffix of an arrival path is such a walk.
    """
    n = len(special.graph.vertices) - len(W)
    return max(
        (next((len(p.edges) for p in islice(special.walk(v), n + 1) if p.end in W), 0)
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
    2(d + |p|) >= 2(d + 1).  The body kept is held at precision K with no
    cut after: by induction from the deepest level, every such term has
    2(d + |p|) < K, as a child's terms gain one edge when wrapped and new
    terms of length 1 are kept only while 2(d + 1) < K.  So at d = 0 each
    term has order 2|p| < K or is a vertex, of order 0, and K = 0 leaves
    no live state.
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
            wrapped = ((Monomial(g.concat(head, m.left), g.concat(head, m.right)), c)
                       for head, on_special in steps[u]
                       for m, c in below.get((head.end, r + 1 if on_special else 0), {}).items())
            terms = alg.element(wrapped).terms
            if inexact and 2 * (d + 1) * den >= num:
                terms = {m: c for m, c in terms.items() if not m.left.edges}
            here[u, r] = terms
        below = here
    body = Element(alg, {m: c for terms in below.values() for m, c in terms.items()})
    return _held(body, K if inexact else INF, diagonal=True)


def _walk_vertices(alg: LeavittAlgebra, w: str, K: Order) -> frozenset:
    """The vertices of the special walk from w, which at K = inf must reach
    a sink."""
    orbit = alg.special.orbit_vertices(w)
    if K == INF and not orbit & alg.graph.sinks():
        raise ValueError("a special walk that reaches no sink needs a finite working precision")
    return orbit


def conjugate(alg: LeavittAlgebra, x, w: str, K) -> TruncatedElement:
    """Entry w of the recovery operator C applied to the vector x.

    C(x)_w collects walk(k) f x[r(f)] f* walk(k)* over the special walk
    from w and the non-special edges f at the walk's k-th vertex; the walk
    stops at a sink, and at K = inf it must reach one.  ``x[u]`` is an exact
    normal-form element whose terms are projections p p*; reading any other
    term raises ``ValueError``.  As f is not special, left p, with left =
    walk(k) f, ends in a non-special edge, so (left p)(left p)* is basic, of
    weight s + d + 1 = 1 and order 2(|left| + |p|): no normal-form pass is
    needed, and the walk stops at the first k with 2(k + 1) >= K.  Only the
    terms of order below K are built, and the result has precision K.  The
    lefts are prefix-free, as walk(k) f leaves the walk where walk(k + 1)
    stays on it, so distinct (left, p) give distinct left p: each term is
    stored once, with no coefficients to merge.
    """
    K = as_order(K)
    g = alg.graph
    special = alg.special
    _walk_vertices(alg, w, K)
    room = INF if K == INF else math.ceil(K / 2)  # 2n < K iff n < room
    terms = {}
    for k, walk in enumerate(special.walk(w)):
        if k + 1 >= room:
            break
        for f in g.out_edges(walk.end):
            if special.is_special(f.name):
                continue
            left = g.extend(walk, f)
            for m, c in x[f.dst].terms.items():
                if m.left != m.right:
                    raise ValueError(f"the recovery operator wraps projections p p*, not {m}")
                if k + 1 + len(m.left.edges) < room:
                    p = g.concat(left, m.left)
                    terms[Monomial(p, p)] = c
    return _held(Element(alg, terms), K, diagonal=True)


def vertex_idempotent(alg: LeavittAlgebra, v: str, K) -> TruncatedElement:
    """The limit idempotent of the special walk from v: e_v = v - C(1)_v.

    C(1)_v sums the monomials (walk(k) f)(walk(k) f)*, of order 2(k + 1),
    over the branches of the walk.  When the walk reaches a sink the sum
    is finite and the value is exact; otherwise K must be finite, and terms
    with order < K are kept at precision K.  The sum is built when terms
    are read, and read below L it runs C at L.
    """
    K = as_order(K)
    if _walk_vertices(alg, v, K) & alg.graph.sinks():
        K = INF

    def make(L):
        # C is linear, so e_v = v + C(-1)_v.  The branch monomials have
        # length >= 2 and v has order 0, so v merges into the body iff L > 0.
        minus_one = {u: -alg.vertex(u) for u in alg.graph.vertices}
        branches = conjugate(alg, minus_one, v, L).body.terms
        head = alg.vertex(v).terms if L else {}
        return Element(alg, {**head, **branches})

    return TruncatedElement(alg, K, make, diagonal=True)
