"""Truncated arithmetic in the graded completion.

A ``TruncatedElement`` stores a normal-form body plus a precision level K
with this contract: the true value minus the body is a (possibly infinite)
converging sum of monomials, each of order >= K.  In particular the
remainder lies in the closure of the filtration stage at level K.  The
body itself only keeps terms of order < K, and ``prec == inf`` means the
value is exact.  The precision is fixed when the element is made; terms
are built only when read.  ``below(L)`` returns the body's terms of order
below a level L <= prec, and ``body`` is ``below(prec)``.  Products, sums
and the idempotents e(W) and e_v defer their terms, and a caller that reads
below L forms only what that level needs.  An element keeps its largest
read so far, and every lower read is a cut of it.  A product of two inexact
operands reads the body of each operand that is not diagonal to fix its
precision, so even working-precision escalation, which reads only
precisions, forms such operands.

An element is diagonal when every term of its body is a projection x x*,
x a vertex or a path that ends in a non-special edge: such a term has
weight 1 and order 2|x|.  The idempotents e(W) and e_v, the recovery
operator's values, vertices, zero and one are diagonal, and so are sums
and products of diagonal elements.  The makers say so, and ``trunc_mul``
uses it to fix its precision without reading a diagonal operand and to
multiply by prefix lookup, which by the lemma of ``_diagonal_times`` never
lowers an order, so that each operand is read only as deep as the
product's low part needs; a diagonal read is cut by length.  ``unwrap``
reads e* D e off D's coefficients by the same prefix identities.

Precision propagates through products via ``product_precision`` plus one
unit of slack: rewriting a dropped-tail product onto the storage basis can
cost one level, so a congruence check at level K compares bodies down to
order K - 1 and reads each side below max(K - 1, 0).  The same slack tells
a product of operands that are not diagonal how far to read them.
Comparisons never claim more precision than both operands carry; asking
for more raises an error instead of silently degrading.

Truncated values never mix specializations or fields: the order statistic
depends on both, so the algebra is part of the value's identity.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import islice

from .algebra import Element, LeavittAlgebra, Monomial, add_terms
from .filtration import (INF, Order, as_order, format_order, least_level, order_key, params_of,
                         tail_order)
# bench/selftest.py traces these bindings
from .filtration import order_of, product_precision  # noqa: F401
from .graph import Graph, Path
from .specialization import Specialization


class TruncatedElement:
    """A body known below ``prec``; ``make(L)`` builds its terms of order
    below a level L <= prec.

    The element keeps its largest read.  Every maker's read below L is its
    whole body cut below L, so a lower read is a cut of the kept one: by
    length for a diagonal element, by order for any other."""

    def __init__(self, algebra: LeavittAlgebra, prec: Order, make: Callable[[Order], Element],
                 diagonal: bool = False):
        self.algebra = algebra
        self.prec = prec
        self.diagonal = diagonal
        self._make = make
        self._read: Element | None = None  # the kept read, below self._level
        self._level: Order = 0

    @property
    def body(self) -> Element:
        return self.below(self.prec)

    def below(self, L: Order) -> Element:
        """The body's terms of order below L; the whole body, built once,
        for L >= prec."""
        prec, level = self.prec, self._level
        if L is INF or (prec is not INF and prec <= L):
            L = prec
        if self._read is None or (level is not INF and (L is INF or level < L)):
            self._read, self._level = self._make(L), L
            if L is prec:
                del self._make  # release the operands the maker holds
            return self._read
        if L is level or (level is not INF and L == level):
            return self._read
        return _cut(self._read, L) if self.diagonal else _below(self._read, L)

    @property
    def is_exact(self) -> bool:
        return self.prec is INF

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
    if L is INF:
        return a
    special = a.algebra.special
    num, den = L.numerator, L.denominator
    kept = {}
    for m, c in a.terms.items():
        n, weight = order_key(special, m)
        if n * den < num * weight:
            kept[m] = c
    return a if len(kept) == len(a.terms) else Element(a.algebra, kept)


def _room(L: Order):
    """The least n with 2n >= L, so 2n < L iff n < room; INF for L = INF."""
    return INF if L is INF else -(-L.numerator // (2 * L.denominator))


def _cut(a: Element, L: Order) -> Element:
    """The terms x x* with 2|x| < L of a diagonal element."""
    room = _room(L)
    return Element(a.algebra, {m: c for m, c in a.terms.items() if len(m.left.edges) < room})


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
    return TruncatedElement(_common_algebra(a, b), least_level(a.prec, b.prec),
                            lambda L: a.below(L) + b.below(L), a.diagonal and b.diagonal)


def _minus_slack(k: Order) -> Order:
    """max(k - 1, 0), the level a congruence at k compares down to."""
    if k is INF:
        return INF
    num, den = k.numerator, k.denominator
    return Fraction(max(num - den, 0), den)


def _split_level(special: Specialization, L: Order, terms) -> Order:
    """The least k at which a tail of order >= k times any of the monomials
    ``terms`` normalises to order >= L, that is product_precision(k, m) - 1
    >= L: k >= 2(L + 1) + 1 and k >= 2(s + d + 1)(L + 1) - n + d.  By the
    lemma of ``_diagonal_times``, a product with a diagonal operand needs
    no slack, and reads by ``_diagonal_split_level`` instead."""
    if L is INF:
        return INF
    num, den = L.numerator + L.denominator, L.denominator  # L + 1
    top = 2 * num + den
    for m in terms:
        n, s, d = params_of(special, m)
        top = max(top, 2 * (s + d + 1) * num - (n - d) * den)
    return Fraction(top, den)


def _diagonal_split_level(L: Order, terms) -> Order:
    """A level k at which the projections p p* of a diagonal operand with
    2|p| >= k, times any of the basic monomials ``terms`` on either side,
    give only terms of order >= L: the largest, over the terms a b*, of
    L(D + 1) + D, D = ||a| - |b||, when that exceeds 2 max(|a|, |b|), and
    of 2 max(|a|, |b|) + 1 otherwise.  Such a p is longer than a and b, so
    by the lemma of ``_diagonal_times`` each product is 0 or basic of order
    >= (2|p| - D)/(D + 1) >= L, and terms of order >= L cancel only one
    another.  As 2|p| is even, the levels in (2 max, 2 max + 2] read the
    same projections; the first choice lets two diagonal operands read each
    other below L.
    """
    if L is INF:
        return INF
    num, den = L.numerator, L.denominator
    top = 0
    for a, b in {(len(m.left.edges), len(m.right.edges)) for m in terms}:
        D, longer = abs(a - b), 2 * max(a, b) * den
        level = num * (D + 1) + D * den
        top = max(top, level if level > longer else longer + den)
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

    Lemma: a projection never lowers the order of a basic monomial.  With
    D = ||a| - |b||, (x, b x') has s = 0, degree D and order
    (2|x| - |a| + |b|)/(D + 1) >= (|a| + |b|)/(D + 1) >= ord(a b*), as
    |x| > |a|, and (a x', x) has order (2|x| - |b| + |a|)/(D + 1), likewise.
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
            pairs.append((m, w * c))
        for k, ends in into.items():
            if k < len(edges):
                for other, c in ends.get((start, edges[:k]), ()):
                    q = Path(other.start, other.edges + edges[k:], x.end)
                    pairs.append((Monomial(x, q) if d_left else Monomial(q, x), w * c))
    return Element(alg, add_terms({}, pairs))


def unwrap(d: TruncatedElement, e: str) -> TruncatedElement:
    """e* d e for a diagonal d and an edge e from u to v, by prefix shift.

    e* x is x' when x = e x', e* when x = u, and 0 otherwise, so e* (x x*) e
    is v for x = u or x = e (e then not special), y y* for x = e y, and 0
    for every other projection of d.  Read below L, the value takes c_u and
    c_e onto v and c_{e y} onto y y* for 2|y| < L, reading d below L + 2:
    no product and no normal form.

    The precision is that of trunc_mul(trunc_mul(exact(e*), d), exact(e)),
    fixed from the exact operands alone, and that chain read below L <=
    prec is e* d.body e cut below L: P = e* d drops only terms of e* d.body
    of order t >= p, its precision, c e* or c_{e y} y (e y)*, which come
    back times e as c v or c_{e y} y y*, of order >= 2t - 1 >= 2p - 1 >
    prec when prec > 0, as prec <= max((p - 3)/2, 0).
    """
    alg = d.algebra
    edge = alg.graph.edge(e)
    u, v = edge.src, edge.dst

    def make(L):
        room, pairs = _room(L), []
        for m, c in d.below(L if L is INF else L + 2).terms.items():
            x, rest = m.left, m.left.edges[1:]
            if x.start == u and x.edges[:1] in ((), (e,)) and len(rest) < room:
                y = Path(v, rest, x.end if rest else v)
                pairs.append((Monomial(y, y), c))
        return Element(alg, add_terms({}, pairs))

    prec = trunc_mul(trunc_mul(exact(alg.ghost(e)), d), exact(alg.edge(e))).prec
    return TruncatedElement(alg, prec, make, diagonal=True)


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

    Read below L, the product names one operand x: a diagonal operand if
    there is one, b when only b is exact (the precision read b's terms) and
    a otherwise.  It reads the other operand, y, below a level k_y and then
    x below the level k_x of the terms of y it read, so that x y_hi and
    x_hi y_lo normalise to order >= L and the terms below L are those of
    x_lo y_lo.  A diagonal x, by the lemma of ``_diagonal_times``, has
    k_y = L and k_x from ``_diagonal_split_level``, and multiplies by
    prefix lookup, with no cut when y is diagonal too: the terms are then
    the longer of two projections.  Any other x has both from
    ``_split_level``.
    """
    alg = _common_algebra(a, b)
    special = alg.special
    lo = least_level(a.prec, b.prec)
    prec = INF
    if lo is not INF:
        # the least bound num/den on integers: (lo - 1)/2, then tail_order
        # over the terms of each operand that is not diagonal, k the other's
        # precision; product_precision's (k - 1)/2 never wins, as k >= lo
        num, den = lo.numerator - lo.denominator, 2 * lo.denominator
        for k, y in ((a.prec, b), (b.prec, a)):
            if k is INF or y.diagonal:
                continue
            ka, kb = k.numerator, k.denominator
            for m in y.body.terms:
                top, bottom = tail_order(special, ka, kb, m)
                if top * den < num * bottom:
                    num, den = top, bottom
        prec = Fraction(max(num - den, 0), den)  # less one level of slack, at least 0
    diagonal = a.diagonal and b.diagonal
    swap = b.diagonal if a.diagonal != b.diagonal else b.is_exact and not a.is_exact
    x, y = (b, a) if swap else (a, b)

    def make(L):
        if x.diagonal:
            y_lo = y.below(L)
            if not y_lo.terms:
                return y_lo
            x_lo = x.below(_diagonal_split_level(L, y_lo.terms))
            product = _diagonal_times(x_lo, y_lo, not swap)
            return product if diagonal else _below(product, L)
        y_lo = y.below(_split_level(special, L, x.body.terms))
        x_lo = x.below(_split_level(special, L, y_lo.terms))
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
    lo = least_level(a.prec, b.prec)
    if lo is not INF and K > lo:
        raise ValueError(
            f"congruence at level {format_order(K)} exceeds available precision "
            f"{format_order(lo)}"
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
    return -(-K.numerator * (2 * len(g.vertices) + 1) // (2 * K.denominator))


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
    decides; the pass fixes the precision, K or inf, and the live states,
    and nothing more is built until a read.  Read below L, a backward pass
    over those states builds F in the diagonal.  A term of F other than a
    vertex is a projection p p* with p ending in a non-special edge, so
    wrapping it in e gives (e p)(e p)*, already basic, and a vertex term
    c r(e) gives c e e*, basic unless e is special.  Only there does the
    vertex relation rewrite it, to c u - sum of c f f* over the other edges
    f at u, all of them: no other step needs a normal form.  A term p p* of
    F(u, d, r) other than u is never rewritten again, so its order ends up
    2(d + |p|): the pass drops it once that reaches L, which keeps just the
    terms of order below L, while vertex terms, the only ones a parent
    rewrites, are always kept (and the read below 0 is empty).

    A read below L is not e(W) built at working precision L: the live
    states of a lower precision are fewer, and since e e* = u - sum of f f*
    for a special e, dropping a state changes the low-order terms it feeds
    through vertex terms.  So every read runs over the live states of K.
    """
    K = as_order(K)
    g = alg.graph
    W = frozenset(W)
    if not g.is_hereditary(W):
        raise ValueError(f"{sorted(W)} is not hereditary")
    if K is INF:
        raise ValueError("arrival idempotents need a finite working precision")
    special = alg.special
    num, den = K.numerator, K.denominator
    budget = num * (2 * _special_depth(special, W) + 1)
    dist = g.distances_to(W)
    steps = {u: [(e.name, e.dst, special.is_special(e.name))
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
        states = {(v, r + 1 if on_special else 0)
                  for u, r in live if u not in W for _, v, on_special in steps[u]}
    inexact = dropped or _outside_path_reaches(g, W, _enumeration_cutoff(g, K))

    def make(L):
        if not L:
            return Element(alg, {})
        room = _room(L)
        one = alg.field.one
        point = {u: Monomial(Path(u, (), u), Path(u, (), u)) for u in dist}
        edge = {f.name: Monomial(Path(u, (f.name,), f.dst), Path(u, (f.name,), f.dst))
                for u in steps for f in g.out_edges(u)}
        rest = {u: [edge[f.name] for f in g.out_edges(u) if not special.is_special(f.name)]
                for u in steps}
        below: dict = {}  # F at depth d + 1, as terms
        for d in reversed(range(len(levels))):
            short = d + 1 < room  # a new term f f* at depth d ends up of length d + 1
            here = {}
            for u, r in levels[d]:
                if u in W:
                    here[u, r] = {point[u]: one}
                    continue
                pairs = []
                for name, v, on_special in steps[u]:
                    for m, c in below.get((v, r + 1 if on_special else 0), {}).items():
                        p = m.left
                        if p.edges:
                            q = Path(u, (name,) + p.edges, p.end)
                            pairs.append((Monomial(q, q), c))
                        elif on_special:  # c e e* = c u - sum of c f f*, f != e at u
                            pairs.append((point[u], c))
                            if short:
                                pairs += [(t, -c) for t in rest[u]]
                        elif short:
                            pairs.append((edge[name], c))
                here[u, r] = add_terms({}, pairs)
            below = here
        return Element(alg, {m: c for terms in below.values() for m, c in terms.items()})

    return TruncatedElement(alg, K if inexact else INF, make, diagonal=True)


def _walk_vertices(alg: LeavittAlgebra, w: str, K: Order) -> frozenset:
    """The vertices of the special walk from w, which at K = inf must reach
    a sink."""
    orbit = alg.special.orbit_vertices(w)
    if K is INF and not orbit & alg.graph.sinks():
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
    room = _room(K)
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
