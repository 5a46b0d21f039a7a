import itertools
import math
import random
from pathlib import Path as FsPath

import pytest

from leavitt import Graph, LeavittAlgebra, Monomial, Specialization, construct_regular
from leavitt.algebra import add_terms
from leavitt.completion import (
    _enumeration_cutoff,
    _outside_path_reaches,
    _special_depth,
    exact,
    truncate,
)
from leavitt.filtration import INF, as_order, order_of
from leavitt.graph import Path

DATA = FsPath(__file__).resolve().parent.parent / "data"

CORPUS = ("loop", "toeplitz", "rose2", "twocycle", "line", "y", "g3")


def load_graph(name: str) -> Graph:
    return Graph.load(DATA / f"{name}.json")


def corpus_graphs():
    return {name: load_graph(name) for name in CORPUS}


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
            add_terms(raw, wrapped, alg.field.zero)
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
