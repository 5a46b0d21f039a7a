import random

import pytest

from leavitt import Graph, Specialization, construct_regular

from conftest import (
    corpus_graphs,
    load_graph,
    orbit_path_by_steps,
    orbit_vertices_by_steps,
    random_graph,
    random_specialization,
    special_connected_by_dfs,
    undirected_components_by_dfs,
    witness_cycle_by_trail,
)


def test_validation():
    g = load_graph("toeplitz")
    with pytest.raises(ValueError, match="no special edge"):
        Specialization(g, {})
    with pytest.raises(ValueError, match="sink or unknown"):
        Specialization(g, {"v": "e", "w": "e"})
    with pytest.raises(ValueError, match="does not leave"):
        g2 = load_graph("line")
        Specialization(g2, {"a": "f", "b": "e"})


def test_special_suffix(gamma_a, gamma_b, toeplitz):
    g = toeplitz
    assert gamma_a.special_suffix(g.vertex_path("v")) == 0
    assert gamma_a.special_suffix(g.path("v", ("e", "e", "e"))) == 3
    assert gamma_b.special_suffix(g.path("v", ("e", "e", "f"))) == 1
    assert gamma_a.special_suffix(g.path("v", ("e", "e", "f"))) == 0
    assert gamma_b.special_suffix(g.path("v", ("f",))) == 1


def test_orbit_path(gamma_a, gamma_b, toeplitz):
    g = toeplitz
    assert gamma_b.orbit_path("v", 1) == g.path("v", ("f",))
    assert gamma_b.orbit_path("v", 2) == g.path("v", ("f",))  # parks at the sink
    assert gamma_a.orbit_path("v", 3) == g.path("v", ("e", "e", "e"))
    for n in range(4):
        assert gamma_b.orbit_path("w", n) == g.vertex_path("w")


def test_frame_finite_reports(gamma_a, gamma_b):
    ra = gamma_a.report()
    assert not ra.frame_finite and not ra.regular
    assert ra.witness_cycle is not None
    assert ra.witness_cycle.edges == ("e",)
    rb = gamma_b.report()
    assert rb.frame_finite and rb.regular and rb.witness_cycle is None


def test_frame_finite_loop():
    g = load_graph("loop")
    s = Specialization(g, {"v": "c"})
    # the lone vertex is its own frame member, so nothing lies outside it
    assert s.report().frame_finite


def test_regular_examples():
    g = load_graph("twocycle")
    s = Specialization(g, {"a": "x", "b": "y"})
    assert s.report().regular
    gy = load_graph("y")
    sy = Specialization(gy, {"a": "e"})
    assert sy.report().regular
    gr = load_graph("rose2")
    sr = Specialization(gr, {"v": "e"})
    assert sr.report().regular


def test_connectivity_matches_dfs_oracle():
    # dense graphs (out-degree 1-3 everywhere) have large frame members,
    # whose special edges often fall apart
    rng = random.Random(41)
    disconnected = 0
    for _ in range(300):
        vs = [f"v{i}" for i in range(rng.randint(2, 7))]
        edges = [
            (f"e{v}_{j}", v, rng.choice(vs)) for v in vs for j in range(rng.randint(1, 3))
        ]
        s = random_specialization(rng, Graph(vs, edges))
        for W, ok in s.report().connectivity:
            assert ok == special_connected_by_dfs(s, W), (s.graph.to_json(), s.mapping, W)
            disconnected += not ok
    assert disconnected  # the sample covers both outcomes


def test_complete2_with_special_loops_is_disconnected():
    vs = ["v0", "v1"]
    g = Graph(vs, [(f"e{i}_{j}", vs[i], vs[j]) for i in range(2) for j in range(2)])
    report = Specialization(g, {"v0": "e0_0", "v1": "e1_1"}).report()
    assert report.frame_finite
    assert report.connectivity == ((frozenset(vs), False),)
    assert not report.regular


def test_walk_facts_match_stepping_oracles():
    rng = random.Random(57)
    graphs = []
    for _ in range(150):
        vs = [f"v{i}" for i in range(rng.randint(1, 7))]
        edges = [
            (f"e{v}_{j}", v, rng.choice(vs)) for v in vs for j in range(rng.randint(1, 3))
        ]
        graphs += [Graph(vs, edges), random_graph(rng)]
    witnesses = 0
    for g in graphs:
        union = frozenset().union(*g.frame())
        for s in (random_specialization(rng, g), construct_regular(g)):
            witness = s.report().witness_cycle
            assert witness == witness_cycle_by_trail(s, union), (g.to_json(), s.mapping)
            witnesses += witness is not None
            assert s.undirected_components() == undirected_components_by_dfs(s)
            for v in g.vertices:
                assert s.orbit_vertices(v) == orbit_vertices_by_steps(s, v)
                for n in (0, 1, 2, 5, 9):
                    assert s.orbit_path(v, n) == orbit_path_by_steps(s, v, n)
    assert witnesses  # the sample covers specializations that are not frame-finite


def test_construct_regular_corpus():
    expect = {
        "loop": {"v": "c"},
        "twocycle": {"a": "x", "b": "y"},
        "y": {"a": "e"},
        "toeplitz": {"v": "f"},
        "line": {"a": "e", "b": "f"},
        "g3": {"a": "e"},
        "rose2": {"v": "e"},
    }
    for name, g in corpus_graphs().items():
        s = construct_regular(g)
        assert s.mapping == expect[name], name
        assert s.report().regular, name


def test_construct_regular_random():
    rng = random.Random(91)
    for _ in range(100):
        g = random_graph(rng)
        assert construct_regular(g).report().regular


def test_undirected_components(gamma_a, gamma_b):
    assert gamma_b.undirected_components() == (frozenset({"v", "w"}),)
    assert gamma_a.undirected_components() == (frozenset({"v"}), frozenset({"w"}))
    g3 = load_graph("g3")
    s3 = construct_regular(g3)
    assert s3.undirected_components() == (frozenset({"a", "b"}), frozenset({"c"}))


def test_special_path_length_bound():
    # special paths whose range is not among their sources stay short
    for name, g in corpus_graphs().items():
        for s in _all_specializations(g):
            for v in g.vertices:
                p = g.vertex_path(v)
                for _ in range(len(g.vertices) + 3):
                    if g.is_sink(p.end):
                        break
                    p = g.extend(p, g.edge(s.mapping[p.end]))
                    sources = {g.edge(name_).src for name_ in p.edges}
                    if p.end not in sources:
                        assert len(p) <= len(g.vertices), (name, p)


def _all_specializations(g):
    import itertools

    non_sinks = [v for v in g.vertices if not g.is_sink(v)]
    pools = [[e.name for e in g.out_edges(v)] for v in non_sinks]
    for choice in itertools.product(*pools):
        yield Specialization(g, dict(zip(non_sinks, choice)))


def test_common_orbit_iff_same_component():
    # two vertices share an undirected component exactly when their special
    # walks meet
    rng = random.Random(17)
    graphs = list(corpus_graphs().values())
    for _ in range(40):
        graphs.append(random_graph(rng, max_vertices=6))
    for g in graphs:
        s = random_specialization(rng, g)
        comp_of = {}
        for i, S in enumerate(s.undirected_components()):
            for v in S:
                comp_of[v] = i
        for v in g.vertices:
            for w in g.vertices:
                same = comp_of[v] == comp_of[w]
                meets = bool(s.orbit_vertices(v) & s.orbit_vertices(w))
                assert same == meets, (g, s.mapping, v, w)


def test_frame_finite_certificate():
    # with a frame-finite specialization, special paths avoiding the frame
    # union die out within |V| steps
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, max_vertices=6)
        s = random_specialization(rng, g)
        if not s.report().frame_finite:
            continue
        union = frozenset().union(*g.frame())
        for v in g.vertices:
            p = g.vertex_path(v)
            steps = 0
            while not g.is_sink(p.end) and p.end not in union:
                p = g.extend(p, g.edge(s.mapping[p.end]))
                steps += 1
                assert steps <= len(g.vertices)


def test_json_round_trip(gamma_b, toeplitz):
    data = gamma_b.to_json()
    assert Specialization.from_json(toeplitz, data) == gamma_b
    with pytest.raises(ValueError, match="unknown keys"):
        Specialization.from_json(toeplitz, {"gamma": {}, "x": 1})
    for gamma in ({"v": None}, {"v": 1}, {"v": ["e"]}):
        with pytest.raises(ValueError, match="vertex names to edge names"):
            Specialization.from_json(toeplitz, {"gamma": gamma})
