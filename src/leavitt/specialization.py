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
from dataclasses import dataclass

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

    def orbit_path(self, v: str, n: int) -> Path:
        """The special walk of length up to n from v; it parks at sinks."""
        p = self.graph.vertex_path(v)
        for _ in range(n):
            if self.graph.is_sink(p.end):
                break
            p = self.graph.extend(p, self.graph.edge(self.mapping[p.end]))
        return p

    def orbit_vertices(self, v: str) -> frozenset[str]:
        """All vertices visited by the special walk from v."""
        self.graph.check_vertex(v)
        seen = [v]
        at = v
        while not self.graph.is_sink(at):
            at = self.graph.edge(self.mapping[at]).dst
            if at in seen:
                break
            seen.append(at)
        return frozenset(seen)

    # -- structural analysis ------------------------------------------------

    def _witness_cycle_outside(self, frame_union: frozenset[str]) -> Path | None:
        for start in self.graph.vertices:
            trail = [start]
            at = start
            while True:
                if at in frame_union or self.graph.is_sink(at):
                    break
                nxt = self.graph.edge(self.mapping[at]).dst
                if nxt in trail:
                    i = trail.index(nxt)
                    cycle = trail[i:]
                    names = [self.mapping[u] for u in cycle]
                    return self.graph.path(nxt, names)
                trail.append(nxt)
                at = nxt
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
        """Connected components once the special edges lose their direction."""
        adj: dict[str, set[str]] = {v: set() for v in self.graph.vertices}
        for name in self.special_edges:
            e = self.graph.edge(name)
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        comps = []
        assigned: set[str] = set()
        for v in self.graph.vertices:
            if v in assigned:
                continue
            comp = {v}
            assigned.add(v)
            stack = [v]
            while stack:
                u = stack.pop()
                for x in adj[u]:
                    if x not in assigned:
                        assigned.add(x)
                        comp.add(x)
                        stack.append(x)
            comps.append(frozenset(comp))
        return tuple(sorted(comps, key=min))

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
