import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    INF,
    Graph,
    LeavittAlgebra,
    Monomial,
    QQ,
    PrimeField,
    Specialization,
    arrival_idempotent,
    construct_regular,
    equal_mod,
    exact,
    min_order,
    parse,
    product_precision,
    trunc_add,
    trunc_mul,
    truncate,
    vertex_idempotent,
)

from leavitt.completion import _special_depth
from leavitt.filtration import order_of

from conftest import (
    CORPUS,
    arrival_enumeration_by_bfs,
    arrival_idempotent_by_bfs,
    arrival_idempotent_by_pruned_search,
    hereditary_sets_bruteforce,
    load_graph,
    random_graph,
    random_specialization,
    vertex_idempotent_by_branches,
)


def test_truncate_examples(alg_a):
    zero = truncate(alg_a.zero(), 5)
    assert zero.body.is_zero and zero.prec == 5
    a = parse(alg_a, "v - f f* - e f f* e*")
    t = truncate(a, 4)
    assert t.body == parse(alg_a, "v - f f*")
    assert truncate(a, INF).body == a
    assert truncate(a, INF).is_exact


def test_trunc_add_mul_precision(alg_a):
    a = truncate(parse(alg_a, "v"), 9)
    b = exact(parse(alg_a, "w"))
    assert trunc_add(a, b).prec == 9
    assert trunc_mul(exact(parse(alg_a, "e")), exact(parse(alg_a, "e*"))).is_exact
    # prec 9 times an exact vertex: product_precision(9, vertex) = 4, slack 1
    assert trunc_mul(a, b).prec == 3
    c = truncate(parse(alg_a, "v"), 3)
    assert trunc_mul(c, c).prec == 0


def test_trunc_mul_matches_formula(alg_b):
    rng = random.Random(19)
    special = alg_b.special
    for _ in range(50):
        pa = Fraction(rng.randint(2, 12))
        pb = Fraction(rng.randint(2, 12))
        a = truncate(parse(alg_b, "v + f f*"), pa)
        b = truncate(parse(alg_b, "w + e e*"), pb)
        prod = trunc_mul(a, b)
        bounds = [product_precision(special, pa, m) for m in b.body.terms]
        bounds += [product_precision(special, pb, m) for m in a.body.terms]
        bounds.append(Fraction(min(pa, pb) - 1, 2))
        assert prod.prec == max(min(bounds) - 1, 0)


def test_equal_mod_basic(alg_a):
    a = exact(parse(alg_a, "v - f f*"))
    assert equal_mod(a, a, 100)
    assert equal_mod(a, a, INF)
    b = truncate(parse(alg_a, "v"), 2)
    with pytest.raises(ValueError, match="exceeds available precision"):
        equal_mod(a, b, 3)


def test_equal_mod_toeplitz_counterexample(alg_a, alg_b):
    # with the frame-approaching choice the arrival idempotent of {w} is the
    # identity at level 2; with the loop special it is not
    one_b = exact(alg_b.one())
    assert equal_mod(arrival_idempotent(alg_b, {"w"}, 2), one_b, 2)
    one_a = exact(alg_a.one())
    ew = arrival_idempotent(alg_a, {"w"}, 2)
    assert not equal_mod(ew, one_a, 2)
    assert min_order(ew.body - one_a.body) < 1


def test_arrival_suffix_bound(gamma_b, gamma_a):
    # the special suffix of an arrival path is a special walk ending on
    # entering W, so it never exceeds D, the longest such walk, and D <= |V \ W|;
    # this is what makes the arrival sums converge and the pruning sound
    g = gamma_b.graph
    for gamma in (gamma_a, gamma_b):
        depth = _special_depth(gamma, frozenset({"w"}))
        assert depth <= len(set(g.vertices) - {"w"})
        for p in arrival_enumeration_by_bfs(g, {"w"}, 30)[0]:
            assert gamma.special_suffix(p) <= depth
    assert _special_depth(gamma_a, frozenset({"w"})) == 0  # v's walk loops on e
    assert _special_depth(gamma_b, frozenset({"w"})) == 1


def _bfs_prefixes(g, W, max_len: int, limit: int) -> int:
    """How many travel prefixes the breadth-first oracle builds, counted
    without building them; stops counting past ``limit``."""
    counts = {v: 1 for v in g.vertices if v not in W}
    total = len(counts)
    for _ in range(max_len):
        if total > limit or not counts:
            break
        nxt: dict = {}
        for v, c in counts.items():
            for e in g.out_edges(v):
                if e.dst not in W:
                    nxt[e.dst] = nxt.get(e.dst, 0) + c
        counts = nxt
        total += sum(counts.values())
    return total


ORACLE_LEVELS = (0, Fraction(1, 2), 1, 2, Fraction(7, 3), 3, 5)


def test_arrival_idempotent_matches_bfs_oracle():
    # arrival_idempotent equals the breadth-first enumerate-then-filter,
    # in body and in precision, over random graphs, both kinds of
    # specialization, every hereditary set and levels including 0 and
    # fractions; cases whose oracle would build many prefixes are skipped
    rng = random.Random(2024)
    compared = exact_cases = 0
    for i in range(50):
        g = random_graph(rng, max_vertices=6)
        specs = [random_specialization(rng, g), construct_regular(g)]
        fields = (QQ, PrimeField(7)) if i % 4 == 0 else (QQ,)
        for W in hereditary_sets_bruteforce(g):
            for K in ORACLE_LEVELS:
                cutoff = math.ceil(K * (2 * len(g.vertices) + 1) / 2)
                if _bfs_prefixes(g, W, cutoff, 400) > 400:
                    continue
                for special in specs:
                    for field in fields:
                        alg = LeavittAlgebra(special, field)
                        got = arrival_idempotent(alg, W, K)
                        want = arrival_idempotent_by_bfs(alg, W, K)
                        assert (got.body, got.prec) == (want.body, want.prec), (g, special, W, K)
                        compared += 1
                        exact_cases += got.is_exact
    assert compared > 4000 and 0 < exact_cases < compared, (compared, exact_cases)


def test_arrival_idempotent_inexact_when_loops_cannot_reach_W():
    # v1 and v2 carry loops but no path to the sink v0: the only arrival
    # path is v0 itself, yet paths of every length avoid W, so the value is
    # not certified exact
    g = Graph(["v0", "v1", "v2"], [("a", "v1", "v1"), ("b", "v2", "v2"), ("c", "v1", "v2")])
    alg = LeavittAlgebra(construct_regular(g))
    got = arrival_idempotent(alg, {"v0"}, 1)
    assert got.render() == "v0 + O(V_1)"
    want = arrival_idempotent_by_bfs(alg, {"v0"}, 1)
    assert (got.body, got.prec) == (want.body, want.prec)


def test_arrival_idempotent_matches_pruned_search_oracle():
    # the state recursion equals the pruned depth-first search it replaced,
    # in body and in precision, on random graphs of up to 8 vertices, both
    # kinds of specialization, every hereditary set and every oracle level;
    # cases where the search could build many prefixes are skipped
    rng = random.Random(2026)
    compared = exact_cases = skipped = 0
    for i in range(50):
        g = random_graph(rng, max_vertices=8, max_edges=16)
        specs = [random_specialization(rng, g), construct_regular(g)]
        fields = (QQ, PrimeField(7)) if i % 4 == 0 else (QQ,)
        for W in hereditary_sets_bruteforce(g):
            for K in ORACLE_LEVELS:
                for special in specs:
                    depth = math.ceil(K * (2 * _special_depth(special, W) + 1) / 2)
                    if _bfs_prefixes(g, W, depth, 2000) > 2000:
                        skipped += 1
                        continue
                    for field in fields:
                        alg = LeavittAlgebra(special, field)
                        got = arrival_idempotent(alg, W, K)
                        want = arrival_idempotent_by_pruned_search(alg, W, K)
                        assert (got.body, got.prec) == (want.body, want.prec), (g, special, W, K)
                        compared += 1
                        exact_cases += got.is_exact
    assert compared > 7000 and skipped < 20 and 0 < exact_cases < compared, (compared, skipped)


def test_arrival_terms_kept_on_chain_to_rose(monkeypatch):
    # on the chain c0 -> c1 -> c2 -> r with a loop at each c_i and two
    # petals at r, e({r}) is built one state at a time: at working
    # precisions 7, 14 and 28, alg.element is called 136, 280 and 574 times
    # with 182, 386 and 806 terms in all, at most 2 per call, where one call
    # on every kept arrival path took 274, 1,736 and 13,076 terms
    vertices = ["c0", "c1", "c2", "r"]
    edges = [("p0", "r", "r"), ("p1", "r", "r")]
    for i in range(3):
        edges += [(f"l{i}", vertices[i], vertices[i]), (f"f{i}", vertices[i], vertices[i + 1])]
    alg = LeavittAlgebra(construct_regular(Graph(vertices, edges)))
    calls = []
    element = LeavittAlgebra.element

    def counting(self, terms):
        terms = list(terms.items() if isinstance(terms, dict) else terms)
        calls[-1].append(len(terms))
        return element(self, terms)

    monkeypatch.setattr(LeavittAlgebra, "element", counting)
    for Kw in (7, 14, 28):
        calls.append([])
        e = arrival_idempotent(alg, {"r"}, Kw)
        assert e.prec == Kw and e.body == parse(alg, "c0 + c1 + c2 + r")
    assert [len(sizes) for sizes in calls] == [136, 280, 574]
    assert [sum(sizes) for sizes in calls] == [182, 386, 806]
    assert max(max(sizes) for sizes in calls) == 2
    # the state loop needs no recursion as Kw grows
    assert arrival_idempotent(alg, {"r"}, 224).render() == "c0 + c1 + c2 + r + O(V_224)"


def test_arrival_idempotent_on_exponential_arrival_graph():
    # the arrival paths into {v3} grow exponentially in number with Kw, the
    # states only linearly, so Kw=28 stays cheap
    g = Graph(
        [f"v{i}" for i in range(5)],
        [("e0", "v0", "v3"), ("e1", "v0", "v4"), ("e2", "v2", "v3"), ("e3", "v2", "v1"),
         ("e4", "v4", "v0"), ("e5", "v4", "v0")],
    )
    alg = LeavittAlgebra(construct_regular(g))
    got = arrival_idempotent(alg, {"v3"}, 7)
    want = arrival_idempotent_by_pruned_search(alg, {"v3"}, 7)
    assert (got.body, got.prec) == (want.body, want.prec)
    e = arrival_idempotent(alg, {"v3"}, 28)
    assert e.render() == "v0 + v2 + v3 + v4 - e3 e3* + O(V_28)"


@settings(max_examples=80, deadline=2000, derandomize=True, database=None)
@given(st.data())
def test_pruned_search_matches_brute_force(data):
    # every path up to the old cutoff, built by Graph.paths_from and filtered
    # by definition, gives the same e(W) as arrival_idempotent
    n = data.draw(st.integers(1, 4), label="vertices")
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for v in verts:
        for dst in data.draw(st.lists(st.sampled_from(verts), max_size=2), label=f"out {v}"):
            edges.append((f"e{len(edges)}", v, dst))
    g = Graph(verts, edges)
    mapping = {v: data.draw(st.sampled_from([e.name for e in g.out_edges(v)]), label=f"special {v}")
               for v in verts if g.out_edges(v)}
    alg = LeavittAlgebra(Specialization(g, mapping))
    W = data.draw(st.sampled_from(hereditary_sets_bruteforce(g)), label="W")
    K = data.draw(st.fractions(0, 2, max_denominator=3), label="K")

    cutoff = math.ceil(K * (2 * n + 1) / 2)
    travel = [p for v in verts for p in g.paths_from(v, cutoff)
              if not any(g.edge(name).src in W for name in p.edges)]
    arrivals = [p for p in travel if p.end in W]
    avoiding = [p for p in travel if p.end not in W and len(p) == cutoff]
    kept = [p for p in arrivals if order_of(alg.special, Monomial(p, p)) < K]
    body = alg.element({Monomial(p, p): 1 for p in kept})
    want = exact(body) if not avoiding and kept == arrivals else truncate(body, K)
    got = arrival_idempotent(alg, W, K)
    assert (got.body, got.prec) == (want.body, want.prec)


def test_arrival_idempotent_examples(alg_a, alg_b):
    gl = load_graph("loop")
    algl = LeavittAlgebra(construct_regular(gl))
    ev = arrival_idempotent(algl, {"v"}, 5)
    assert ev.is_exact and ev.body == parse(algl, "v")
    # whole vertex set: exactly the identity, exactly
    e_all = arrival_idempotent(alg_b, {"v", "w"}, 3)
    assert e_all.is_exact and e_all.body == alg_b.one()
    # proper set, loop special: kept terms are the orders 2k+2 below K
    ew = arrival_idempotent(alg_a, {"w"}, 6)
    assert ew.prec == 6
    assert ew.body == parse(alg_a, "w + f f* + e f f* e*")
    assert not arrival_idempotent(alg_b, {"w"}, 2).is_exact


def test_arrival_idempotent_requires_hereditary(alg_b):
    with pytest.raises(ValueError, match="not hereditary"):
        arrival_idempotent(alg_b, {"v"}, 3)


def test_arrival_idempotent_degree_zero_self_adjoint(alg_a, alg_b):
    for alg in (alg_a, alg_b):
        ew = arrival_idempotent(alg, {"w"}, 8)
        assert all(m.degree == 0 for m in ew.body.terms)
        assert ew.body.star() == ew.body


def test_vertex_idempotent_examples(alg_a, alg_b):
    ev = vertex_idempotent(alg_b, "v", 4)
    assert ev.is_exact and ev.body == parse(alg_b, "v - e e*")  # equals f f*
    ew = vertex_idempotent(alg_b, "w", 4)
    assert ew.is_exact and ew.body == parse(alg_b, "w")
    eva = vertex_idempotent(alg_a, "v", 6)
    assert eva.prec == 6
    assert eva.body == parse(alg_a, "v - f f* - e f f* e*")


def test_vertex_idempotent_sink_any_graph():
    for name in ("y", "g3", "line"):
        g = load_graph(name)
        alg = LeavittAlgebra(construct_regular(g))
        for v in g.sinks():
            t = vertex_idempotent(alg, v, 3)
            assert t.is_exact and t.body == alg.vertex(v)


def test_vertex_idempotent_carries_vertex(alg_a):
    for K in (1, 4, 10):
        for v in alg_a.graph.vertices:
            t = vertex_idempotent(alg_a, v, K)
            vp = alg_a.graph.vertex_path(v)
            assert t.body.coefficient(Monomial(vp, vp)) == alg_a.field.one


def test_vertex_idempotent_matches_branch_oracle():
    # e_v = v - C(1)_v through the recovery operator equals the branch sum
    # put through the normal-form pass, under random and regular
    # specializations, over QQ and (every fourth graph) F_7
    rng = random.Random(19)
    graphs = [load_graph(name) for name in CORPUS]
    graphs += [random_graph(rng) for _ in range(150)]
    calls = 0
    for i, g in enumerate(graphs):
        fields = (QQ, PrimeField(7)) if i % 4 == 0 else (QQ,)
        for special in (random_specialization(rng, g), construct_regular(g)):
            for field in fields:
                alg = LeavittAlgebra(special, field)
                for v in g.vertices:
                    for K in (0, Fraction(1, 2), 1, 2, Fraction(7, 3), 5, 9):
                        got = vertex_idempotent(alg, v, K)
                        want = vertex_idempotent_by_branches(alg, v, K)
                        assert (got.body, got.prec) == (want.body, want.prec), (g, v, K)
                        calls += 1
    assert calls > 10000, calls


def test_walk_increment_orders(alg_a):
    # consecutive walk projections differ by terms of order >= 2(n+1) - 1
    g, s = alg_a.graph, alg_a.special
    for v in g.vertices:
        for n in range(5):
            p0 = s.orbit_path(v, n)
            p1 = s.orbit_path(v, n + 1)
            a = alg_a.element({Monomial(p1, p1): 1}) - alg_a.element({Monomial(p0, p0): 1})
            if a.is_zero:
                continue
            assert min_order(a) >= 2 * (n + 1) - 1


def test_trunc_mul_sound_on_random_elements(alg_a, alg_b):
    # the exact product of the true values always agrees with the truncated
    # product at its advertised precision
    from conftest import random_element

    rng = random.Random(99)
    for alg in (alg_a, alg_b):
        for _ in range(150):
            a_full = random_element(rng, alg, terms=4, max_len=5)
            b_full = random_element(rng, alg, terms=4, max_len=5)
            a_lo = truncate(a_full, Fraction(rng.randint(1, 6)))
            b_lo = truncate(b_full, Fraction(rng.randint(1, 6)))
            lo = trunc_mul(a_lo, b_lo)
            hi = exact(a_full * b_full)
            assert equal_mod(lo, hi, lo.prec)


def test_recompute_at_higher_precision_agrees(alg_a, alg_b):
    # recomputing at a higher working precision and truncating back matches
    # the advertised congruence level
    for alg in (alg_a, alg_b):
        for K in (2, 4):
            lo = arrival_idempotent(alg, {"w"}, K)
            hi = arrival_idempotent(alg, {"w"}, 4 * K)
            assert equal_mod(lo, truncate(hi.body, K), K)
            lo2 = trunc_mul(lo, lo)
            hi2 = trunc_mul(hi, hi)
            level = min(lo2.prec, hi2.prec)
            assert equal_mod(lo2, hi2, level)


def test_render_with_tail_marker(alg_a):
    t = truncate(parse(alg_a, "v - f f*"), Fraction(7, 2))
    assert t.render() == "v - f f* + O(V_7/2)"
    assert exact(parse(alg_a, "v")).render() == "v"


def test_mixed_specializations_rejected(alg_a, alg_b):
    with pytest.raises(ValueError, match="different algebras"):
        trunc_add(exact(alg_a.one()), exact(alg_b.one()))
