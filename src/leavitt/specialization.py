"""Specializations: one designated "special" out-edge per non-sink vertex.

A specialization drives everything downstream: the rewrite basis, the
order statistic of the filtration, and the decomposition machinery.  The
special edges form a functional subgraph (one out-edge per non-sink), so
orbit questions reduce to following a single walk.

Two properties of a specialization matter structurally:

* frame-finiteness: no special cycle avoids the union of the minimal
  hereditary sets.  Equivalently, the special walk from any vertex enters
  that union or a sink within |V| steps.
* regularity: frame-finite, and the special edges restricted to each
  minimal hereditary set connect it as an undirected graph.

The JSON file format is ``{"gamma": {"v": "e", ...}}`` mapping each
non-sink vertex name to the name of one of its out-edges.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .graph import Graph, Path


@dataclass(frozen=True)
class SpecializationReport:
    """Structural verdicts for one specialization."""

    frame_finite: bool
    regular: bool
    witness_cycle: Path | None
    connectivity: tuple[tuple[frozenset, bool], ...]


class Specialization:
    def __init__(self, graph: Graph, mapping: dict[str, str]):
        non_sinks = {v for v in graph.vertices if not graph.is_sink(v)}
        if set(mapping) != non_sinks:
            missing = sorted(non_sinks - set(mapping))
            extra = sorted(set(mapping) - non_sinks)
            if missing:
                raise ValueError(f"no special edge chosen at {missing[0]!r}")
            raise ValueError(f"special edge assigned to sink or unknown vertex {extra[0]!r}")
        for v, name in mapping.items():
            e = graph.edge(name)
            if e.src != v:
                raise ValueError(f"edge {name!r} does not leave vertex {v!r}")
        self.graph = graph
        self.mapping = dict(sorted(mapping.items()))
        self.special_edges = frozenset(self.mapping.values())
        self._report: SpecializationReport | None = None

    def __eq__(self, other):
        return (
            isinstance(other, Specialization)
            and self.graph == other.graph
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.graph, tuple(self.mapping.items())))

    def __repr__(self):
        inner = ", ".join(f"{v}->{e}" for v, e in self.mapping.items())
        return f"Specialization({inner})"

    def is_special(self, edge_name: str) -> bool:
        return edge_name in self.special_edges

    def special_suffix(self, p: Path) -> int:
        """Length of the maximal all-special suffix of p (0 for vertices)."""
        n = 0
        for name in reversed(p.edges):
            if name not in self.special_edges:
                break
            n += 1
        return n

    # -- the special walk --------------------------------------------------

    def walk(self, v: str) -> Iterator[Path]:
        """The prefixes of the special walk from v: v, then one special edge
        at a time.  Stops after a prefix that ends at a sink; otherwise runs
        forever."""
        p = self.graph.vertex_path(v)
        yield p
        while not self.graph.is_sink(p.end):
            p = self.graph.extend(p, self.graph.edge(self.mapping[p.end]))
            yield p

    def orbit_path(self, v: str, n: int) -> Path:
        """The special walk of length up to n from v; it parks at sinks."""
        *_, p = islice(self.walk(v), max(n, 0) + 1)
        return p

    def orbit_vertices(self, v: str) -> frozenset[str]:
        """All vertices visited by the special walk from v; a walk on |V|
        vertices repeats within |V| steps."""
        return frozenset(p.end for p in islice(self.walk(v), len(self.graph.vertices)))

    def _terminal(self, v: str) -> frozenset[str]:
        """The sink or special cycle where the walk from v ends; the walk is
        on it after |V| - 1 steps."""
        return self.orbit_vertices(self.orbit_path(v, len(self.graph.vertices) - 1).end)

    # -- structural analysis ------------------------------------------------

    def _witness_cycle_outside(self, frame_union: frozenset[str]) -> Path | None:
        # Sinks are frame members, so only a special cycle can miss the union.
        for v in self.graph.vertices:
            cycle = self._terminal(v)
            if not cycle & frame_union:
                entry = next(p.end for p in self.walk(v) if p.end in cycle)
                return self.orbit_path(entry, len(cycle))
        return None

    def report(self) -> SpecializationReport:
        if self._report is None:
            frame = self.graph.frame()
            union = frozenset().union(*frame)
            witness = self._witness_cycle_outside(union)
            # A hereditary W keeps its members' special edges inside W, and
            # no vertex has two special edges, so no special path between
            # two members of W can pass outside W (the first outside vertex
            # on it would need two special edges).  The special edges
            # inside W therefore connect W iff exactly one undirected
            # component meets W.
            comps = self.undirected_components()
            conn = tuple((W, len([S for S in comps if S & W]) == 1) for W in frame)
            finite = witness is None
            regular = finite and all(ok for _, ok in conn)
            self._report = SpecializationReport(finite, regular, witness, conn)
        return self._report

    def undirected_components(self) -> tuple[frozenset[str], ...]:
        """Connected components once the special edges lose their direction.

        No vertex has two special out-edges, so each component holds exactly
        one sink or special cycle, and the components are their basins.
        """
        basins: dict[frozenset[str], set[str]] = {}
        for v in self.graph.vertices:
            basins.setdefault(self._terminal(v), set()).add(v)
        return tuple(sorted(map(frozenset, basins.values()), key=min))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"gamma": dict(self.mapping)}

    @classmethod
    def from_json(cls, graph: Graph, data) -> "Specialization":
        if not isinstance(data, dict):
            raise ValueError("specialization file must hold a JSON object")
        extra = set(data) - {"gamma"}
        if extra:
            raise ValueError(f"unknown keys in specialization file: {sorted(extra)}")
        if "gamma" not in data or not isinstance(data["gamma"], dict):
            raise ValueError("specialization file needs a 'gamma' object")
        return cls(graph, {str(v): str(e) for v, e in data["gamma"].items()})

    @classmethod
    def load(cls, graph: Graph, path) -> "Specialization":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(graph, json.load(fh))


def _in_tree(graph: Graph, roots, within) -> dict[str, str]:
    """Special edges along shortest paths into ``roots`` inside ``within``.

    A breadth-first search over in-edges, visiting only vertices of
    ``within``, gives every vertex that reaches ``roots`` its distance; each
    reached vertex outside ``roots`` takes its least-named edge one step
    closer.
    """
    dist = {r: 0 for r in roots}
    queue = list(dist)
    while queue:
        u = queue.pop(0)
        for e in graph.in_edges(u):
            if e.src in within and e.src not in dist:
                dist[e.src] = dist[u] + 1
                queue.append(e.src)
    return {
        v: next(e.name for e in graph.out_edges(v) if dist.get(e.dst) == d - 1)
        for v, d in dist.items()
        if d
    }


def construct_regular(graph: Graph) -> Specialization:
    """Build a regular specialization; all ties break by least edge name.

    Inside each non-sink minimal hereditary set the special edges form a
    spanning in-tree toward the least-named vertex (so the undirected
    special graph connects the set); the root takes its least out-edge.
    Outside, every special edge strictly shortens a shortest path into the
    union of the minimal hereditary sets, so no special cycle avoids it.
    """
    frame = graph.frame()
    union: frozenset[str] = frozenset().union(*frame)
    mapping = _in_tree(graph, union, frozenset(graph.vertices))
    for W in frame:
        root = min(W)
        if not graph.is_sink(root):  # a minimal hereditary set with a sink is that sink
            mapping.update(_in_tree(graph, {root}, W))
            mapping[root] = graph.out_edges(root)[0].name
    return Specialization(graph, mapping)
