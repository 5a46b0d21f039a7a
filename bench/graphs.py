"""Deterministic synthetic graph families, in the leavitt graph JSON format.

Each generator returns the JSON document that ``Graph.load`` reads, so the
benchmark writes it to a file and the program parses it like user input.
"""

from __future__ import annotations

import json
import os


def rose(n: int) -> dict:
    """One vertex r with n petals (loops) p0 .. p{n-1}."""
    return {
        "vertices": ["r"],
        "edges": [{"name": f"p{i}", "src": "r", "dst": "r"} for i in range(n)],
    }


def complete(n: int) -> dict:
    """Vertices v0 .. v{n-1} with one edge e{i}_{j} for every ordered pair,
    loops included: n vertices and n*n edges."""
    vs = [f"v{i}" for i in range(n)]
    return {
        "vertices": vs,
        "edges": [
            {"name": f"e{i}_{j}", "src": vs[i], "dst": vs[j]}
            for i in range(n)
            for j in range(n)
        ],
    }


def chain_to_rose(n: int) -> dict:
    """The chain c0 -> ... -> c{n-1} -> r feeding a two-petal rose.

    Each c_i has a self-loop l_i and an edge f_i to the next vertex; r has
    petals p0 and p1.  That makes n + 1 vertices and 2n + 2 edges.
    """
    vs = [f"c{i}" for i in range(n)] + ["r"]
    edges = []
    for i in range(n):
        edges.append({"name": f"l{i}", "src": vs[i], "dst": vs[i]})
        edges.append({"name": f"f{i}", "src": vs[i], "dst": vs[i + 1]})
    edges += [{"name": f"p{i}", "src": "r", "dst": "r"} for i in range(2)]
    return {"vertices": vs, "edges": edges}


FAMILIES = {"rose": rose, "complete": complete, "chain_to_rose": chain_to_rose}


def write_graph(family: str, n: int, directory: str) -> str:
    """Write family(n) as graph JSON under ``directory``; return the path."""
    path = os.path.join(directory, f"{family}{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(FAMILIES[family](n), fh, indent=1)
        fh.write("\n")
    return path
