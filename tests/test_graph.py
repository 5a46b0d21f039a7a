import copy
import pickle
import random

import pytest

from leavitt import Graph
from leavitt.graph import Path

from conftest import (
    CORPUS,
    corpus_graphs,
    descendants_by_relaxation,
    hereditary_sets_bruteforce,
    load_graph,
    minimal_hereditary_bruteforce,
    random_graph,
)


def test_path_keeps_its_dataclass_surface():
    # a (start, edges, end) tuple underneath; len counts edges, and text
    # and copies are those of the frozen dataclass it replaced
    g = load_graph("toeplitz")
    p = g.path("v", ("e", "f"))
    assert (p.start, p.edges, p.end) == ("v", ("e", "f"), "w")
    assert repr(p) == "Path(start='v', edges=('e', 'f'), end='w')"
    assert len(p) == 2 and str(p) == "e f"
    vertex = g.vertex_path("w")
    assert len(vertex) == 0 and str(vertex) == "w"
    assert repr(vertex) == "Path(start='w', edges=(), end='w')"
    for q in (p, vertex):
        for twin in (copy.copy(q), copy.deepcopy(q),
                     *(pickle.loads(pickle.dumps(q, proto))
                       for proto in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert twin == q and type(twin) is Path and hash(twin) == hash(q)


def test_path_replace_and_make():
    # namedtuple's own _make checks len, which counts edges, not fields
    g = load_graph("toeplitz")
    p = g.path("v", ("e", "f"))
    assert p._replace(edges=("f",)) == g.path("v", ("f",))
    assert Path._make(["w", (), "w"]) == g.vertex_path("w")
    if hasattr(copy, "replace"):
        assert copy.replace(p, start="v", edges=("e",), end="v") == g.path("v", ("e",))


def test_paths_built_apart_are_one_dict_key():
    g = load_graph("toeplitz")
    a = g.path("v", ("e", "e"))
    b = g.extend(g.path("v", ("e",)), g.edge("e"))
    c = Path("v", ("e", "e"), "v")
    assert a is not b and a == b == c and hash(a) == hash(b) == hash(c)
    assert {a: 1}[b] == 1 and {b: 2}[c] == 2
    assert a != g.path("v", ("e",)) and g.vertex_path("v") != g.vertex_path("w")


def test_descendants_line():
    g = load_graph("line")
    assert g.descendants("a") == {"a", "b", "c"}
    assert g.descendants("c") == {"c"}


def test_descendants_toeplitz():
    g = load_graph("toeplitz")
    assert g.descendants("v") == {"v", "w"}
    assert g.descendants("w") == {"w"}


def test_descendants_unknown_vertex():
    g = load_graph("line")
    with pytest.raises(ValueError, match="unknown vertex"):
        g.descendants("zzz")


def test_descendants_matches_relaxation_oracle():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        for v in g.vertices:
            assert g.descendants(v) == descendants_by_relaxation(g, v)


def test_descendants_reflexive_transitive():
    rng = random.Random(8)
    for _ in range(25):
        g = random_graph(rng)
        for v in g.vertices:
            dv = g.descendants(v)
            assert v in dv
            for w in dv:
                assert g.descendants(w) <= dv


def test_is_hereditary():
    g = load_graph("toeplitz")
    assert g.is_hereditary({"w"})
    assert not g.is_hereditary({"v"})
    assert g.is_hereditary(set(g.vertices))
    with pytest.raises(ValueError, match="nonempty"):
        g.is_hereditary(set())


def test_frame_examples():
    assert load_graph("toeplitz").frame() == [frozenset({"w"})]
    assert load_graph("loop").frame() == [frozenset({"v"})]
    assert load_graph("y").frame() == [frozenset({"b"}), frozenset({"c"})]
    assert load_graph("twocycle").frame() == [frozenset({"a", "b"})]


def test_frame_matches_bruteforce_on_corpus():
    for name, g in corpus_graphs().items():
        assert g.frame() == minimal_hereditary_bruteforce(g), name


def test_frame_matches_bruteforce_random():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, max_vertices=7)
        assert g.frame() == minimal_hereditary_bruteforce(g)


def test_frame_members_hereditary_disjoint_and_absorbing():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, max_vertices=7)
        frame = g.frame()
        union = frozenset().union(*frame)
        for i, W in enumerate(frame):
            assert g.is_hereditary(W)
            for W2 in frame[i + 1:]:
                assert not (W & W2)
        for v in g.vertices:
            assert g.descendants(v) & union


def test_hereditary_complement_examples():
    g3 = load_graph("g3")
    assert g3.hereditary_complement({"b"}) == {"c"}
    t = load_graph("toeplitz")
    assert t.hereditary_complement({"w"}) == frozenset()
    assert t.hereditary_complement(t.vertices) == frozenset()
    with pytest.raises(ValueError, match="not hereditary"):
        t.hereditary_complement({"v"})


def test_hereditary_complement_properties():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, max_vertices=6)
        hered = hereditary_sets_bruteforce(g)
        for W in hered:
            Wp = g.hereditary_complement(W)
            assert not (W & Wp)
            if Wp:
                assert g.is_hereditary(Wp)
            Wpp = g.hereditary_complement(Wp)
            assert W <= Wpp
            # largest hereditary set whose vertices all reach W
            candidates = [
                U for U in hered if all(g.descendants(u) & W for u in U)
            ]
            expected = frozenset().union(*candidates) if candidates else frozenset()
            assert Wpp == expected


def test_paths():
    g = load_graph("toeplitz")
    p = g.path("v", ("e", "e", "f"))
    assert p.start == "v" and p.end == "w" and len(p) == 3
    with pytest.raises(ValueError, match="does not start"):
        g.path("w", ("e",))
    assert g.vertex_path("w").edges == ()


def test_json_round_trip():
    for name in CORPUS:
        g = load_graph(name)
        assert Graph.from_json(g.to_json()) == g


def test_json_rejects_unknown_keys():
    data = load_graph("loop").to_json()
    data["extra"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        Graph.from_json(data)
    data = load_graph("loop").to_json()
    data["edges"][0]["weight"] = 2
    with pytest.raises(ValueError, match="unknown keys"):
        Graph.from_json(data)


def test_json_rejects_bad_names():
    with pytest.raises(ValueError, match="bad vertex name"):
        Graph.from_json({"vertices": ["1v"], "edges": []})
    with pytest.raises(ValueError, match="bad edge name"):
        Graph.from_json(
            {"vertices": ["v"], "edges": [{"name": "e-1", "src": "v", "dst": "v"}]}
        )
    for src, dst in ((["v"], "v"), ("v", {"v": "v"})):
        with pytest.raises(ValueError, match="needs vertex names"):
            Graph.from_json(
                {"vertices": ["v"], "edges": [{"name": "e", "src": src, "dst": dst}]}
            )
    # the rule holds for graphs built in Python too: render must round-trip
    with pytest.raises(ValueError, match="bad vertex name"):
        Graph(["v w", "x"], [("e", "x", "x")])
    with pytest.raises(ValueError, match="bad vertex name"):
        Graph([""], [])
    with pytest.raises(ValueError, match="bad edge name"):
        Graph(["v", "x"], [("e*", "v", "x")])
    with pytest.raises(ValueError, match="needs vertex names"):
        Graph(["v"], [("e", ["v"], "v")])


def test_graph_rejects_duplicates_and_collisions():
    with pytest.raises(ValueError, match="duplicate vertex"):
        Graph(["v", "v"], [])
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])
    with pytest.raises(ValueError, match="both a vertex and an edge"):
        Graph(["v", "e"], [("e", "v", "v")])
    with pytest.raises(ValueError, match="undeclared"):
        Graph(["v"], [("e", "v", "u")])
