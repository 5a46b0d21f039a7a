"""Finite directed multigraphs and their hereditary-set combinatorics.

Vertices and edges carry unique string names; an edge knows its source and
range vertex.  Graph values are immutable after construction and every
operation is a pure function, so they are safe to share freely.

The JSON file format is::

    {"vertices": ["v", "w"],
     "edges": [{"name": "e", "src": "v", "dst": "v"},
               {"name": "f", "src": "v", "dst": "w"}]}

Unknown keys are rejected.  Every graph, read from a file or built in
Python, must name its vertices and edges by ``[A-Za-z][A-Za-z0-9_]*``, and
vertex and edge names may not collide (expression parsing resolves both in
one namespace).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Path:
    """A composable edge sequence; a bare vertex is the zero-length path."""

    start: str
    edges: tuple[str, ...]
    end: str

    def __len__(self):
        return len(self.edges)

    def __str__(self):
        if not self.edges:
            return self.start
        return " ".join(self.edges)


def format_vertex_set(W) -> str:
    return "{" + " ".join(sorted(W)) + "}"


class Graph:
    """A finite directed multigraph with named vertices and edges."""

    def __init__(self, vertices, edges):
        verts = list(vertices)
        for v in verts:
            if not isinstance(v, str) or not NAME_RE.match(v):
                raise ValueError(f"bad vertex name {v!r}")
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex name")
        edge_list = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if not isinstance(e.name, str) or not NAME_RE.match(e.name):
                raise ValueError(f"bad edge name {e.name!r}")
            if not isinstance(e.src, str) or not isinstance(e.dst, str):
                raise ValueError(f"edge {e.name!r} needs vertex names as its src and dst")
            edge_list.append(e)
        names = [e.name for e in edge_list]
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge name")
        vert_set = set(verts)
        if vert_set & set(names):
            clash = sorted(vert_set & set(names))[0]
            raise ValueError(f"name {clash!r} used for both a vertex and an edge")
        for e in edge_list:
            if e.src not in vert_set or e.dst not in vert_set:
                raise ValueError(f"edge {e.name!r} uses an undeclared vertex")
        self._vertices = tuple(sorted(verts))
        self._edges = tuple(sorted(edge_list, key=lambda e: e.name))
        self._edge_by_name = {e.name: e for e in self._edges}
        out: dict[str, list[Edge]] = {v: [] for v in self._vertices}
        inc: dict[str, list[Edge]] = {v: [] for v in self._vertices}
        for e in self._edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}
        self._descendants = {}
        for v in self._vertices:
            seen = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for e in self._out[u]:
                    if e.dst not in seen:
                        seen.add(e.dst)
                        stack.append(e.dst)
            self._descendants[v] = frozenset(seen)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self):
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    # -- basic accessors -------------------------------------------------

    def check_vertex(self, v: str) -> str:
        if v not in self._out:
            raise ValueError(f"unknown vertex {v!r}")
        return v

    def edge(self, name: str) -> Edge:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise ValueError(f"unknown edge {name!r}") from None

    def has_edge(self, name: str) -> bool:
        return name in self._edge_by_name

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return self._in[v]

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def sinks(self) -> frozenset[str]:
        return frozenset(v for v in self._vertices if not self._out[v])

    # -- paths -----------------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        self.check_vertex(v)
        return Path(v, (), v)

    def path(self, start: str, edge_names=()) -> Path:
        """Build a path from a start vertex and a composable edge sequence."""
        self.check_vertex(start)
        at = start
        names = []
        for name in edge_names:
            e = self.edge(name)
            if e.src != at:
                raise ValueError(f"edge {name!r} does not start at {at!r}")
            names.append(name)
            at = e.dst
        return Path(start, tuple(names), at)

    def extend(self, p: Path, e: Edge) -> Path:
        if e.src != p.end:
            raise ValueError(f"edge {e.name!r} does not continue the path")
        return Path(p.start, p.edges + (e.name,), e.dst)

    def concat(self, p: Path, q: Path) -> Path:
        if p.end != q.start:
            raise ValueError("paths are not composable")
        if not q.edges:
            return p
        return Path(p.start, p.edges + q.edges, q.end)

    def paths_from(self, v: str, max_len: int) -> list[Path]:
        """All paths starting at v of length at most max_len, shortest first."""
        result = [self.vertex_path(v)]
        frontier = [result[0]]
        for _ in range(max_len):
            nxt = []
            for p in frontier:
                for e in self._out[p.end]:
                    nxt.append(self.extend(p, e))
            result.extend(nxt)
            frontier = nxt
        return result

    # -- reachability and hereditary sets ---------------------------------

    def descendants(self, v: str) -> frozenset[str]:
        """All vertices reachable from v, including v itself."""
        self.check_vertex(v)
        return self._descendants[v]

    def _check_vertex_subset(self, W) -> frozenset[str]:
        W = frozenset(W)
        for v in W:
            self.check_vertex(v)
        return W

    def distances_to(self, roots, within=None) -> dict[str, int]:
        """The length of a shortest path into ``roots`` from every vertex that
        has one, by a breadth-first search over in-edges.  With ``within``
        given, only vertices of ``within`` join the search."""
        dist = {r: 0 for r in roots}
        queue = list(dist)
        for u in queue:
            for e in self._in[u]:
                if e.src not in dist and (within is None or e.src in within):
                    dist[e.src] = dist[u] + 1
                    queue.append(e.src)
        return dist

    def is_hereditary(self, W) -> bool:
        """True iff the nonempty set W is closed under taking descendants."""
        W = self._check_vertex_subset(W)
        if not W:
            raise ValueError("hereditary sets are nonempty by definition")
        return all(self._descendants[w] <= W for w in W)

    def frame(self) -> list[frozenset[str]]:
        """All minimal hereditary vertex sets, ordered by least member.

        These are exactly the descendant sets D with D(u) == D for every u
        in D: such a D is hereditary, and any hereditary subset holds some
        u together with D(u) == D.  Conversely every member w of a minimal
        hereditary set W has the hereditary D(w) inside W, so D(w) == W.
        """
        members = {
            D for D in self._descendants.values()
            if all(self._descendants[u] == D for u in D)
        }
        return sorted(members, key=min)

    def hereditary_complement(self, W) -> frozenset[str]:
        """The vertices with no descendant in W (itself hereditary).

        W must be hereditary; the empty set is allowed and yields the full
        vertex set (no vertex has a descendant in the empty set).
        """
        W = self._check_vertex_subset(W)
        if W and not self.is_hereditary(W):
            raise ValueError("the given set is not hereditary")
        return frozenset(
            v for v in self._vertices if not (self._descendants[v] & W)
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [
                {"name": e.name, "src": e.src, "dst": e.dst} for e in self._edges
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Graph":
        if not isinstance(data, dict):
            raise ValueError("graph file must hold a JSON object")
        extra = set(data) - {"vertices", "edges"}
        if extra:
            raise ValueError(f"unknown keys in graph file: {sorted(extra)}")
        if "vertices" not in data or "edges" not in data:
            raise ValueError("graph file needs 'vertices' and 'edges'")
        verts = data["vertices"]
        if not isinstance(verts, list):
            raise ValueError("'vertices' must be a list")
        edges = []
        if not isinstance(data["edges"], list):
            raise ValueError("'edges' must be a list")
        for item in data["edges"]:
            if not isinstance(item, dict):
                raise ValueError("each edge must be an object")
            extra = set(item) - {"name", "src", "dst"}
            if extra:
                raise ValueError(f"unknown keys in edge: {sorted(extra)}")
            try:
                edges.append(Edge(item["name"], item["src"], item["dst"]))
            except KeyError as k:
                raise ValueError(f"edge missing key {k}") from None
        return cls(verts, edges)

    @classmethod
    def load(cls, path) -> "Graph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
