import itertools
import math
import random
import runpy
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path as FsPath

import pytest

from leavitt import Graph, LeavittAlgebra, Monomial, Specialization, construct_regular
from leavitt.algebra import Element, add_terms, monomial_product
from leavitt.completion import (
    TruncatedElement,
    _enumeration_cutoff,
    _held,
    _outside_path_reaches,
    _special_depth,
    arrival_idempotent,
    conjugate,
    exact,
    trunc_add,
    trunc_mul,
    truncate,
    vertex_idempotent,
)
from leavitt.expr import ParseError
from leavitt.filtration import INF, as_order, format_order, min_order, order_of, params_of
from leavitt.graph import Path, format_vertex_set
from leavitt.structure import (FAIL, PASS, REFUSED, SAMPLE_LEN, SAMPLED_PASS, Verdict,
                               _basic_monomials_between, _certify, _escalated, _judge,
                               _refuse_frame_finite, _refuse_not_hereditary, _require_finite,
                               check_central_idempotent, check_collapse, check_ideal_transfer,
                               check_partition, check_vertex_idempotent_laws, decompose,
                               vertex_recovery)

ROOT = FsPath(__file__).resolve().parent.parent
DATA = ROOT / "data"
INPUTS = ROOT / "tests" / "inputs"

CORPUS = ("loop", "toeplitz", "rose2", "twocycle", "line", "y", "g3")


def load_graph(name: str) -> Graph:
    return Graph.load(DATA / f"{name}.json")


def corpus_graphs():
    return {name: load_graph(name) for name in CORPUS}


def family_graph(family: str, n: int) -> Graph:
    """The benchmark's synthetic graph ``family(n)``: rose, complete or
    chain_to_rose."""
    families = runpy.run_path(str(ROOT / "bench" / "graphs.py"))["FAMILIES"]
    return Graph.from_json(families[family](n))


@pytest.fixture(scope="session")
def toeplitz():
    return load_graph("toeplitz")


@pytest.fixture(scope="session")
def gamma_a(toeplitz):
    return Specialization.load(toeplitz, DATA / "gammaA.json")


@pytest.fixture(scope="session")
def gamma_b(toeplitz):
    return Specialization.load(toeplitz, DATA / "gammaB.json")


@pytest.fixture(scope="session")
def alg_a(gamma_a):
    return LeavittAlgebra(gamma_a)


@pytest.fixture(scope="session")
def alg_b(gamma_b):
    return LeavittAlgebra(gamma_b)


@pytest.fixture(scope="session")
def loop_alg():
    g = load_graph("loop")
    return LeavittAlgebra(construct_regular(g))


# -- independent oracles ------------------------------------------------------


def descendants_by_relaxation(g: Graph, v: str) -> frozenset:
    """Transitive closure by repeated edge relaxation over a boolean table."""
    reach = {u: u == v for u in g.vertices}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if reach[e.src] and not reach[e.dst]:
                reach[e.dst] = True
                changed = True
    return frozenset(u for u, ok in reach.items() if ok)


def hereditary_sets_bruteforce(g: Graph) -> list[frozenset]:
    """Every nonempty hereditary subset, by exhaustive enumeration."""
    out = []
    verts = g.vertices
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            W = frozenset(combo)
            if all(descendants_by_relaxation(g, w) <= W for w in W):
                out.append(W)
    return out


def minimal_hereditary_bruteforce(g: Graph) -> list[frozenset]:
    hered = hereditary_sets_bruteforce(g)
    minimal = [W for W in hered if not any(U < W for U in hered)]
    return sorted(minimal, key=min)


def special_connected_by_dfs(s: Specialization, W: frozenset) -> bool:
    """Whether the special edges with both ends in W connect W, by a DFS
    over W alone."""
    g = s.graph
    adj = {w: set() for w in W}
    for w in W:
        if g.is_sink(w):
            continue
        e = g.edge(s.mapping[w])
        if e.dst in W:
            adj[w].add(e.dst)
            adj[e.dst].add(w)
    seen = {min(W)}
    stack = [min(W)]
    while stack:
        u = stack.pop()
        for x in adj[u]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen == W


def orbit_path_by_steps(s: Specialization, v: str, n: int):
    """The special walk of length up to n from v, one edge at a time."""
    g = s.graph
    p = g.vertex_path(v)
    for _ in range(n):
        if g.is_sink(p.end):
            break
        p = g.extend(p, g.edge(s.mapping[p.end]))
    return p


def orbit_vertices_by_steps(s: Specialization, v: str) -> frozenset:
    """The vertices of the special walk from v, stepped until one repeats."""
    g = s.graph
    seen = [v]
    at = v
    while not g.is_sink(at):
        at = g.edge(s.mapping[at]).dst
        if at in seen:
            break
        seen.append(at)
    return frozenset(seen)


def witness_cycle_by_trail(s: Specialization, frame_union: frozenset):
    """The first special cycle outside frame_union, found by following the
    walk from each vertex in turn and keeping the trail until it repeats."""
    g = s.graph
    for start in g.vertices:
        trail = [start]
        at = start
        while at not in frame_union and not g.is_sink(at):
            nxt = g.edge(s.mapping[at]).dst
            if nxt in trail:
                cycle = trail[trail.index(nxt):]
                return g.path(nxt, [s.mapping[u] for u in cycle])
            trail.append(nxt)
            at = nxt
    return None


def undirected_components_by_dfs(s: Specialization) -> tuple:
    """Components of the special edges without direction, by a DFS over an
    undirected adjacency table."""
    g = s.graph
    adj = {v: set() for v in g.vertices}
    for name in s.special_edges:
        e = g.edge(name)
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    comps = []
    assigned = set()
    for v in g.vertices:
        if v in assigned:
            continue
        comp = {v}
        assigned.add(v)
        stack = [v]
        while stack:
            for x in adj[stack.pop()] - assigned:
                assigned.add(x)
                comp.add(x)
                stack.append(x)
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=min))


def normal_by_worklist(alg: LeavittAlgebra, raw: dict, chooser=None) -> dict:
    """The normal form by a worklist over every term: pop a term (the last,
    or the one ``chooser(len(work))`` picks), keep it if basic, otherwise
    push (p, q) and each -c (p f, q f) back, each tested again when popped."""
    g = alg.graph
    work = [(m, c) for m, c in raw.items() if c]
    out = {}
    while work:
        idx = len(work) - 1 if chooser is None else chooser(len(work))
        m, c = work.pop(idx)
        e = alg._reducible_edge(m)
        if e is None:
            add_terms(out, [(m, c)])
            continue
        p1 = Path(m.left.start, m.left.edges[:-1], e.src)
        q1 = Path(m.right.start, m.right.edges[:-1], e.src)
        work.append((Monomial(p1, q1), c))
        for f in g.out_edges(e.src):
            if f.name != e.name:
                work.append((Monomial(g.extend(p1, f), g.extend(q1, f)), -c))
    return out


def product_by_premerge(a: Element, b: Element) -> Element:
    """a b by merging the structural products into a dict with
    ``add_terms`` before normalising the merged terms."""
    alg = a.algebra
    products = ((m, c1 * c2) for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()
                if (m := monomial_product(m1, m2)) is not None)
    raw = add_terms({}, products)
    return Element(alg, alg._normal(raw.items()))


def _extends(prefix: Path, longer: Path) -> bool:
    return longer.start == prefix.start and longer.edges[: len(prefix.edges)] == prefix.edges


def monomial_product_by_extends(m1: Monomial, m2: Monomial):
    """(p,q)(u,w) by testing which of q, u extends the other and building
    the leftover tail as a path of its own before appending it."""
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


def arrival_enumeration_by_bfs(g: Graph, W, max_len: int):
    """Arrival paths into W of length <= max_len, by a breadth-first search
    over every travel prefix, and whether no prefix of length max_len
    avoids W."""
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


def arrival_idempotent_by_bfs(alg: LeavittAlgebra, W, K):
    """e(W) from every arrival path shorter than ceil(K(2|V| + 1)/2),
    filtered by ``order_of``; exact iff the search saw every arrival path
    and none had order >= K."""
    K = as_order(K)
    g = alg.graph
    cutoff = math.ceil(K * (2 * len(g.vertices) + 1) / 2)
    paths, complete = arrival_enumeration_by_bfs(g, W, cutoff)
    kept = {}
    dropped = False
    for p in paths:
        m = Monomial(p, p)
        if order_of(alg.special, m) < K:
            kept[m] = alg.field.one
        else:
            dropped = True
    body = alg.element(kept)
    if complete and not dropped:
        return exact(body)
    return truncate(body, K)


def arrival_idempotent_by_pruned_search(alg: LeavittAlgebra, W, K):
    """e(W) from the arrival paths of order < K, listed by a depth-first
    search that prunes a travel prefix of length L at u once
    2(L + dist(u, W)) * K.den >= K.num * (2D + 1), then normalised in one
    ``alg.element`` call; exact iff no path of length
    ``_enumeration_cutoff`` avoids W, no arrival path failed the order test
    and no prefix that can reach W was pruned."""
    K = as_order(K)
    g = alg.graph
    W = frozenset(W)
    special = alg.special
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
    body = alg.element({Monomial(p, p): alg.field.one for p in found})
    if dropped or _outside_path_reaches(g, W, _enumeration_cutoff(g, K)):
        return truncate(body, K)
    return exact(body)


def arrival_idempotent_eager(alg: LeavittAlgebra, W, K) -> TruncatedElement:
    """e(W) with its whole body built at K: the same forward pass over the
    states (u, d, r) as ``arrival_idempotent``, then a backward pass that
    wraps each child term on both sides and puts every state's sum through
    ``alg.element``'s normal-form pass, dropping the terms p p* of F(u, d, r)
    other than vertices once 2(d + 1) >= K when the value is inexact."""
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
    levels = []
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
    below: dict = {}
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


def _walk_branches(special: Specialization, v: str, K):
    """The branch paths walk(k) f of the special walk from v, for k while
    2(k + 1) < K and the walk has not reached a sink."""
    g = special.graph
    for k, walk in enumerate(special.walk(v)):
        if 2 * (k + 1) >= K:
            return
        for f in g.out_edges(walk.end):
            if not special.is_special(f.name):
                yield g.extend(walk, f)


def conjugate_by_truncation(alg: LeavittAlgebra, x, w: str, K) -> TruncatedElement:
    """The recovery operator built first and cut afterwards: every term of
    the operand element ``x[u]`` is wrapped in every branch walk(k) f, and
    then the terms whose ``order_of`` reaches K go."""
    K = as_order(K)
    g = alg.graph
    special = alg.special
    orbit = special.orbit_vertices(w)
    if K == INF and not orbit & g.sinks():
        raise ValueError("a special walk that reaches no sink needs a finite working precision")
    ends = {f.dst for u in orbit for f in g.out_edges(u) if not special.is_special(f.name)}
    w_max = max((s + d + 1 for u in ends for _, s, d in
                 (params_of(special, m) for m in x[u].terms)), default=1)
    branches = []  # (walk(k) f, the operand at r(f))
    for k, walk in enumerate(special.walk(w)):
        if 2 * (k + 1) >= K * w_max:
            break
        branches += [(g.extend(walk, f), x[f.dst]) for f in g.out_edges(walk.end)
                     if not special.is_special(f.name)]
    raw = {}
    for left, operand in branches:
        wrapped = ((Monomial(g.concat(left, m.left), g.concat(left, m.right)), c)
                   for m, c in operand.terms.items())
        add_terms(raw, wrapped)

    def kept(L):
        return Element(alg, {m: c for m, c in raw.items() if order_of(special, m) < L})

    return TruncatedElement(alg, K, kept)


def conjugation_step_by_normal_form(alg: LeavittAlgebra, W, vec, Kw) -> dict:
    """The recovery operator with every wrapped sum put through
    ``alg.element``'s normal-form pass."""
    g = alg.graph
    out = {}
    for w in sorted(W):
        raw = {}
        prec = Kw
        for left in _walk_branches(alg.special, w, Kw):
            x = vec[left.end]
            prec = min(prec, x.prec)
            wrapped = (
                (Monomial(g.concat(left, m.left), g.concat(left, m.right)), c)
                for m, c in x.body.terms.items()
            )
            add_terms(raw, wrapped)
        out[w] = truncate(alg.element(raw), prec)
    return out


def vertex_idempotent_by_branches(alg: LeavittAlgebra, v: str, K):
    """v minus (q q*) over the branch paths q of the special walk from v,
    normalised by ``alg.element``; exact when the walk reaches a sink."""
    K = as_order(K)
    g = alg.graph
    reaches_sink = bool(alg.special.orbit_vertices(v) & g.sinks())
    vp = g.vertex_path(v)
    terms = {Monomial(vp, vp): alg.field.one}
    for q in _walk_branches(alg.special, v, INF if reaches_sink else K):
        terms[Monomial(q, q)] = -alg.field.one
    body = alg.element(terms)
    return exact(body) if reaches_sink else truncate(body, K)


def vertex_recovery_by_vertex(alg: LeavittAlgebra, w: str, K) -> Verdict:
    """Lemma 24 for one vertex w: look up w's frame member, run the
    member's whole recovery series and keep entry w of it."""
    K = _require_finite(K)
    g = alg.graph
    g.check_vertex(w)
    name = f"vertex-recovery[{w}]"
    member = next((W for W in g.frame() if w in W), None)
    if member is None:
        return Verdict(name, REFUSED, K, None, note=f"{w!r} lies in no minimal hereditary set")
    if len(member) == 1 and g.is_sink(w):
        return Verdict(
            name, REFUSED, K, None,
            note=f"{w!r} is a lone sink: e_{w} = {w} holds outright, no series needed",
        )
    refusal = _refuse_frame_finite(alg, name, K)
    if refusal is not None:
        return refusal

    steps = math.ceil(K / 2)
    Kw = max(K + 2, Fraction(2 * (steps + 1)))
    vec = {u: vertex_idempotent(alg, u, Kw) for u in sorted(member)}
    total = vec[w]
    for _ in range(steps):
        bodies = {x: t.body for x, t in vec.items()}
        vec = {u: conjugate(alg, bodies, u, Kw) for u in sorted(member)}
        total = trunc_add(total, vec[w])
    final = truncate(total.body, min(total.prec, Fraction(2 * (steps + 1))))
    pairs = [(final, exact(alg.vertex(w)), f"recovery series sums to {w}")]
    return _judge(name, K, pairs)


def recovery_series_by_iterates(alg: LeavittAlgebra, vertices, K) -> dict:
    """Lemma 24's series over ``vertices`` with every iterate C^i(e) built
    at Kw = 2(steps + 1) and the iterates added up one by one."""
    steps = math.ceil(K / 2)
    Kw = Fraction(2 * (steps + 1))
    vec = {u: vertex_idempotent(alg, u, Kw) for u in vertices}
    total = vec
    for _ in range(steps):
        bodies = {x: t.body for x, t in vec.items()}
        vec = {u: conjugate(alg, bodies, u, Kw) for u in vertices}
        total = {u: trunc_add(total[u], vec[u]) for u in vertices}
    return total


def vertex_recovery_by_iterates(alg: LeavittAlgebra, W, K) -> list[Verdict]:
    """Lemma 24 for the frame member W, judged on
    ``recovery_series_by_iterates``."""
    K = _require_finite(K)
    vertices = sorted(W)
    names = [f"vertex-recovery[{w}]" for w in vertices]
    if len(vertices) == 1 and alg.graph.is_sink(vertices[0]):
        w = vertices[0]
        note = f"{w!r} is a lone sink: e_{w} = {w} holds outright, no series needed"
        return [Verdict(names[0], REFUSED, K, None, note=note)]
    refusals = [_refuse_frame_finite(alg, name, K) for name in names]
    if refusals[0] is not None:
        return refusals
    total = recovery_series_by_iterates(alg, vertices, K)
    return [
        _judge(name, K, [(total[w], exact(alg.vertex(w)), f"recovery series sums to {w}")])
        for name, w in zip(names, vertices)
    ]


def product_precision_by_fractions(special: Specialization, k, m: Monomial):
    """``product_precision`` in ``Fraction`` arithmetic: the lesser of
    (k - 1)/2 and (k + n - d)/(2(s + d + 1)), clamped at zero."""
    k = as_order(k)
    if k == INF:
        return INF
    n, s, d = params_of(special, m)
    bound = min(Fraction(k - 1, 2), Fraction(k + n - d, 2 * (s + d + 1)))
    return max(bound, Fraction(0))


def minus_slack_by_fractions(k):
    """max(k - 1, 0) in ``Fraction`` arithmetic; inf stays inf."""
    if k == INF:
        return INF
    return max(k - 1, Fraction(0))


def trunc_mul_precision_by_bounds(a: TruncatedElement, b: TruncatedElement):
    """``trunc_mul``'s precision as a list of ``Fraction`` bounds: (lo - 1)/2,
    then ``product_precision_by_fractions`` over the terms of each operand
    that is not diagonal, at the other's precision when finite, less one
    level of slack."""
    special = a.algebra.special
    lo = min(a.prec, b.prec)
    bounds = [INF if lo == INF else Fraction(lo - 1, 2)]
    if a.prec != INF and not b.diagonal:
        bounds += [product_precision_by_fractions(special, a.prec, m) for m in b.body.terms]
    if b.prec != INF and not a.diagonal:
        bounds += [product_precision_by_fractions(special, b.prec, m) for m in a.body.terms]
    return minus_slack_by_fractions(min(bounds))


def trunc_mul_eager(a: TruncatedElement, b: TruncatedElement) -> TruncatedElement:
    """The truncated product formed in full and then truncated, with the
    precision bounded over the terms of both operands."""
    special = a.algebra.special
    body = a.body * b.body
    bounds = [product_precision_by_fractions(special, a.prec, m) for m in b.body.terms]
    bounds += [product_precision_by_fractions(special, b.prec, m) for m in a.body.terms]
    lo = min(a.prec, b.prec)
    bounds.append(INF if lo == INF else Fraction(lo - 1, 2))
    return truncate(body, minus_slack_by_fractions(min(bounds)))


def unwrap_by_products(d: TruncatedElement, e: str) -> TruncatedElement:
    """e* d e as two truncated products, (e* d) e."""
    alg = d.algebra
    return trunc_mul(trunc_mul(exact(alg.ghost(e)), d), exact(alg.edge(e)))


def judge_by_full_bodies(name: str, K, pairs, sampled=False, note=None) -> Verdict:
    """The verdict on whole bodies: each pair's difference is formed in
    full, and the pair fails when its least order is below K - 1."""
    levels = [min(lhs.prec, rhs.prec) for lhs, rhs, _ in pairs]
    achieved = min(levels) if levels else INF
    for lhs, rhs, label in pairs:
        if K > min(lhs.prec, rhs.prec):
            raise ValueError("congruence level exceeds available precision")
        residual = min_order(lhs.body - rhs.body)
        if residual < K - 1:
            witness = (f"{label}: residual has order {format_order(residual)} "
                       f"< {format_order(K - 1)}")
            return Verdict(name, FAIL, K, achieved, witness=witness, note=note)
    return Verdict(name, SAMPLED_PASS if sampled else PASS, K, achieved, note=note)


def suite_all_in_order(alg: LeavittAlgebra, K, order) -> list[Verdict]:
    """``run_suite(alg, "all", K)`` by a schedule: one callable per check,
    listed in ``run_suite``'s order, then permuted in place by ``order``
    (such as ``list.reverse``) before any runs.  Results do not depend on
    the order in which the checks run; tests compare this with
    ``run_suite`` to prove it."""
    K = _require_finite(K)
    g = alg.graph
    frame = g.frame()
    V = frozenset(g.vertices)
    targets = frame if V in frame else frame + [V]
    thunks = [lambda W=W: [check_central_idempotent(alg, W, K)] for W in targets]
    for W in frame:
        W2 = g.hereditary_complement(g.hereditary_complement(W))
        thunks.append(lambda W=W, W2=W2: [check_collapse(alg, W, W2, K)])
    thunks += [lambda W=W: [check_partition(alg, W, K)] for W in targets]
    thunks.append(lambda: check_vertex_idempotent_laws(alg, K))
    thunks.append(lambda: check_ideal_transfer(alg, K))
    thunks += [lambda W=W: vertex_recovery(alg, W, K) for W in frame]

    def assembly():
        refusal = _refuse_frame_finite(alg, "decomposition", K)
        return [refusal] if refusal is not None else decompose(alg, K).checks

    thunks.append(assembly)
    order(thunks)
    verdicts = [v for thunk in thunks for v in thunk()]
    return sorted(verdicts, key=lambda v: v.name)


def central_idempotent_by_loops(alg: LeavittAlgebra, W, K) -> Verdict:
    """``check_central_idempotent`` with its generators made in every
    escalation round, one loop per kind of generator."""
    K = _require_finite(K)
    W = frozenset(W)
    name = f"central-idempotent[{format_vertex_set(W)}]"
    refusal = _refuse_not_hereditary(alg, name, K, W)
    if refusal is not None:
        return refusal

    def pairs_at(Kw):
        eW = arrival_idempotent(alg, W, Kw)
        pairs = [(trunc_mul(eW, eW), eW, "e(W)^2 = e(W)")]
        for v in alg.graph.vertices:
            x = exact(alg.vertex(v))
            pairs.append((trunc_mul(x, eW), trunc_mul(eW, x), f"{v} commutes with e(W)"))
        for e in alg.graph.edges:
            x = exact(alg.edge(e.name))
            pairs.append((trunc_mul(x, eW), trunc_mul(eW, x), f"{e.name} commutes with e(W)"))
            x = exact(alg.ghost(e.name))
            pairs.append((trunc_mul(x, eW), trunc_mul(eW, x), f"{e.name}* commutes with e(W)"))
        return pairs

    return _certify(name, K, pairs_at)


def partition_by_ordered_pairs(alg: LeavittAlgebra, W, K) -> Verdict:
    """``check_partition`` with e(W) e(W^perp) = 0 checked in both orders."""
    K = _require_finite(K)
    W = frozenset(W)
    name = f"partition[{format_vertex_set(W)}]"
    refusal = _refuse_not_hereditary(alg, name, K, W) or _refuse_frame_finite(alg, name, K)
    if refusal is not None:
        return refusal
    Wp = alg.graph.hereditary_complement(W)
    zero = exact(alg.zero())
    one = exact(alg.one())

    def pairs_at(Kw):
        eW = arrival_idempotent(alg, W, Kw)
        eWp = arrival_idempotent(alg, Wp, Kw) if Wp else zero
        return [
            (trunc_mul(eW, eWp), zero, "e(W) e(W^perp) = 0"),
            (trunc_mul(eWp, eW), zero, "e(W^perp) e(W) = 0"),
            (trunc_add(eW, eWp), one, "e(W) + e(W^perp) = 1"),
        ]

    return _certify(name, K, pairs_at)


def frame_partition_by_ordered_pairs(alg: LeavittAlgebra, K) -> list[Verdict]:
    """``decompose``'s partition-of-unity and orthogonality verdicts, with
    e(W_i) e(W_j) = 0 checked in both orders."""
    K = _require_finite(K)
    frame = alg.graph.frame()
    zero = exact(alg.zero())
    one = exact(alg.one())

    def pairs_at(Kw):
        es = {W: arrival_idempotent(alg, W, Kw) for W in frame}
        total = zero
        for W in frame:
            total = trunc_add(total, es[W])
        pairs = [(total, one, "sum of e(W_i) = 1")]
        for i, Wi in enumerate(frame):
            for Wj in frame[i + 1:]:
                for A, B in ((Wi, Wj), (Wj, Wi)):
                    pairs.append((trunc_mul(es[A], es[B]), zero,
                                  f"e({format_vertex_set(A)}) e({format_vertex_set(B)}) = 0"))
        return pairs

    pairs = _escalated(K, pairs_at)
    return [_judge("partition-of-unity", K, pairs[:1]), _judge("orthogonality", K, pairs[1:])]


def _vertex_idempotents_at(alg: LeavittAlgebra, Kw) -> dict:
    return {v: vertex_idempotent(alg, v, Kw) for v in alg.graph.vertices}


def vertex_idempotent_laws_by_closures(alg: LeavittAlgebra, K) -> list[Verdict]:
    """``check_vertex_idempotent_laws`` with one closure per law, each
    building every e_v and every edge operand in every escalation round."""
    K = _require_finite(K)
    g = alg.graph
    special = alg.special
    zero = exact(alg.zero())

    def idem_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        return [(trunc_mul(ev[v], ev[v]), ev[v], f"e_{v}^2 = e_{v}") for v in g.vertices]

    pairs = _escalated(K, idem_pairs)
    verdict = _judge("vertex-idempotent", K, pairs)
    if verdict.status == PASS:
        for v, (_, ev, _) in zip(g.vertices, pairs):
            coeff = ev.body.coefficient(Monomial(g.vertex_path(v), g.vertex_path(v)))
            if coeff != alg.field.one:
                verdict = Verdict(
                    "vertex-idempotent", FAIL, K, verdict.achieved,
                    witness=f"e_{v} does not carry the vertex with coefficient 1",
                )
                break

    def orth_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        return [
            (trunc_mul(ev[v], ev[w]), zero, f"e_{v} e_{w} = 0")
            for v in g.vertices
            for w in g.vertices
            if v != w
        ]

    def nonspecial_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        pairs = []
        for v in g.vertices:
            for e in g.out_edges(v):
                if not special.is_special(e.name):
                    pairs.append(
                        (trunc_mul(ev[v], exact(alg.edge(e.name))), zero, f"e_{v} {e.name} = 0")
                    )
        return pairs

    def shift_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        pairs = []
        for v, name in special.mapping.items():
            e = exact(alg.edge(name))
            w = g.edge(name).dst
            pairs.append((trunc_mul(ev[v], e), trunc_mul(e, ev[w]), f"e_{v} {name} = {name} e_{w}"))
        return pairs

    return [
        verdict,
        _certify("vertex-orthogonal", K, orth_pairs),
        _certify("nonspecial-annihilates", K, nonspecial_pairs),
        _certify("special-shifts", K, shift_pairs),
    ]


def ideal_transfer_by_closures(alg: LeavittAlgebra, K) -> list[Verdict]:
    """``check_ideal_transfer`` with one closure per law, each building
    every e_v, edge operand and separation sample in every round."""
    K = _require_finite(K)
    g = alg.graph
    special = alg.special
    comps = special.undirected_components()
    comp_of = {v: i for i, S in enumerate(comps) for v in S}

    def transfer_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        pairs = []
        for v, name in special.mapping.items():
            w = g.edge(name).dst
            conj = unwrap_by_products(ev[v], name)
            pairs.append((ev[w], conj, f"e_{w} = {name}* e_{v} {name}"))
        return pairs

    def separation_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        zero = exact(alg.zero())
        pairs = []
        for v in g.vertices:
            for w in g.vertices:
                if comp_of[v] == comp_of[w]:
                    continue
                for m in _basic_monomials_between(alg, v, w, SAMPLE_LEN):
                    x = trunc_mul(trunc_mul(ev[v], exact(alg.element({m: 1}))), ev[w])
                    pairs.append((x, zero, f"e_{v} ({m}) e_{w} = 0"))
        return pairs

    note = f"sampled over basic monomials of total length <= {SAMPLE_LEN}"
    return [
        _certify("special-transfer", K, transfer_pairs),
        _certify("component-separation", K, separation_pairs, sampled=True, note=note),
    ]


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME INT + - * / ( ) END
    text: str
    line: int
    col: int


def tokenize_by_characters(text: str) -> list[_Token]:
    """The character loop that ``expr._tokenize``'s regex scan replaced:
    one token object per token, its line and column counted as it goes."""
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


class _ParserByProducts:
    """The factor-by-factor evaluation that ``parse`` replaced: each name
    becomes a vertex or edge Element; a term is the Element product of its
    factors, one at a time, starting from the multiple of the identity when
    it begins with a coefficient; the expression is the Element sum of its
    terms, negated where signed.  It reads the tokens of
    ``tokenize_by_characters``."""

    def __init__(self, algebra: LeavittAlgebra, text: str):
        self.algebra = algebra
        self.tokens = tokenize_by_characters(text)
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

    def factor(self) -> Element:
        tok = self.take()
        if tok.kind == "NAME":
            value = self.resolve(tok)
        else:
            value = self.expr()
            if self.peek().kind != ")":
                raise self.fail({"')'"})
            self.take()
        if self.peek().kind == "*":
            self.take()
            value = value.star()
        return value

    def resolve(self, tok) -> Element:
        g = self.algebra.graph
        if tok.text in g.vertices:
            return self.algebra.vertex(tok.text)
        if tok.text in {e.name for e in g.edges}:
            return self.algebra.edge(tok.text)
        raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)


def parse_by_products(alg: LeavittAlgebra, text: str) -> Element:
    return _ParserByProducts(alg, text).parse()


def is_prime_by_trial_division(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- randomized generators ----------------------------------------------------


def random_graph(rng: random.Random, max_vertices: int = 8, max_edges: int = 16) -> Graph:
    """A random graph where every vertex is a sink or has out-degree >= 1."""
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    non_sinks = [v for v in verts if rng.random() < 0.7]
    counter = 0
    for v in non_sinks:
        out = rng.randint(1, 2)
        for _ in range(out):
            if len(edges) >= max_edges:
                break
            edges.append((f"e{counter}", v, rng.choice(verts)))
            counter += 1
    return Graph(verts, edges)


def random_specialization(rng: random.Random, g: Graph) -> Specialization:
    mapping = {}
    for v in g.vertices:
        out = g.out_edges(v)
        if out:
            mapping[v] = rng.choice(out).name
    return Specialization(g, mapping)


def random_path(rng: random.Random, g: Graph, start: str, max_len: int):
    p = g.vertex_path(start)
    for _ in range(rng.randint(0, max_len)):
        out = g.out_edges(p.end)
        if not out:
            break
        p = g.extend(p, rng.choice(out))
    return p


def random_monomial(rng: random.Random, alg: LeavittAlgebra, max_len: int = 4) -> Monomial:
    g = alg.graph
    while True:
        v = rng.choice(g.vertices)
        w = rng.choice(g.vertices)
        p = random_path(rng, g, v, max_len)
        q = random_path(rng, g, w, max_len)
        if p.end == q.end:
            return Monomial(p, q)


def random_element(rng: random.Random, alg: LeavittAlgebra, terms: int = 3, max_len: int = 3):
    pairs = []
    for _ in range(rng.randint(1, terms)):
        coeff = rng.choice([-2, -1, 1, 2, 3])
        pairs.append((random_monomial(rng, alg, max_len), coeff))
    return alg.element(pairs)
