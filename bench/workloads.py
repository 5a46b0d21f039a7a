"""The benchmark's workloads: their inputs, their queries and the output gate.

A workload is a list of queries that one closed-loop client runs in order;
one pass runs each query once.  A query is one call into the program that
the client waits for: a ``leavitt verify`` run through ``cli.run`` or one
library request.  Each query returns its output text and the object the
correctness gate inspects.  Queries call through module attributes
(``cli.run``, ``expr.parse``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import graphs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DATA = os.path.join(ROOT, "data")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

CORPUS = ("loop", "toeplitz", "rose2", "twocycle", "line", "y", "g3")
FIELDS = {"q": "q", "fp": "fp:32003"}
DEFAULT_SEED = 0

# workload -> the (family, n, K) graphs it verifies with ``--suite all``.
SUITE_CASES = {
    "arrival-chain": [("chain_to_rose", 3, 2)],
    "vertex-series": [("rose", 4, 12), ("complete", 4, 6)],
    "tiny": [("chain_to_rose", 1, 2)],
}
# workload -> random expressions per (graph, field, nf/mul/ord) in the stream.
SCRIPT_CELLS = {"scripting": 20, "tiny": 1}
IDEMPOTENT_PRECISIONS = range(2, 11)

# The workloads a user runs; "tiny" is the small case of the self-test.
WORKLOADS = ("arrival-chain", "vertex-series", "scripting")


@dataclass
class Query:
    label: str
    field: str  # "q" or "fp"
    run: Callable[[], tuple]  # -> (output text, object the gate inspects)


class Workload:
    """The queries of one workload, built from a seed inside ``workdir``."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in SUITE_CASES and name not in SCRIPT_CELLS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.queries: list[Query] = []
        for family, n, K in SUITE_CASES.get(name, ()):
            path = graphs.write_graph(family, n, workdir)
            self.queries.append(_verify_query(f"{family}{n}@{K}", path, K))
        if name in SCRIPT_CELLS:
            self.queries += _script_queries(random.Random(seed), SCRIPT_CELLS[name], workdir)
        self._first: list | None = None  # the first pass's output texts

    def check(self, outputs: list[tuple]) -> list[str]:
        """Return one message per query whose output is wrong.

        ``outputs`` holds, per query, (text, object) or None when it raised.
        Later passes must repeat the first pass's text exactly.
        """
        errors = []
        if self._first is None:
            self._first = [None if out is None else out[0] for out in outputs]
            errors = self._check_first(outputs)
        else:
            for q, out, first in zip(self.queries, outputs, self._first):
                if out is not None and out[0] != first:
                    errors.append(f"{q.label}: output differs from the first pass")
        return errors + [f"{q.label}: raised" for q, out in zip(self.queries, outputs)
                         if out is None]

    def _check_first(self, outputs) -> list[str]:
        errors = []
        scripted = []
        for q, out in zip(self.queries, outputs):
            if out is None:
                continue
            if q.label.startswith("verify "):
                errors += _check_verdicts(q.label, out, self.reference["verdicts"])
            else:
                scripted.append((q, out))
        if not scripted:
            return errors
        key = f"{self.name}@{self.seed}"
        digests = self.reference["scripting"]
        if key in digests:
            if _digest(out[0] for _, out in scripted) != digests[key]:
                errors.append(f"{key}: rendered outputs differ from the stored digest")
        else:
            from leavitt import expr

            for q, (text, x) in scripted:
                if expr.parse(x.algebra, expr.render(x)) != x:
                    errors.append(f"{q.label}: parse(render(x)) != x")
        return errors


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# -- verify queries -----------------------------------------------------------


def _verify_query(case: str, path: str, K: int) -> Query:
    from leavitt import cli

    argv = ["verify", "--graph", path, "--auto-regular", "--prec", str(K),
            "--suite", "all", "--json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return buf.getvalue(), code

    return Query(f"verify {case}", "q", run)


def verdict_set(report_text: str) -> list[list]:
    """Distinct (name, status, requested, witness) of a ``--json`` report."""
    checks = json.loads(report_text)["checks"]
    rows = {(c["name"], c["status"], c["requested_precision"], c["witness"]) for c in checks}
    return sorted(list(r) for r in rows)


def _level(text):
    return float("inf") if text == "inf" else Fraction(text)


def _check_verdicts(label, out, reference) -> list[str]:
    text, code = out
    if code != 0:
        return [f"{label}: exit code {code}"]
    case = label.split(" ", 1)[1]
    errors = []
    if verdict_set(text) != reference[case]:
        errors.append(f"{label}: verdicts differ from the reference")
    for c in json.loads(text)["checks"]:
        requested = c["requested_precision"]
        if c["status"] == "pass" and requested is not None and (
                c["achieved_precision"] is None
                or _level(c["achieved_precision"]) < _level(requested)):
            errors.append(f"{label}: {c['name']} passed below the requested precision")
    return errors


# -- scripting queries --------------------------------------------------------


def _algebras(workdir: str):
    """(graph name, field key, algebra) for every scripted graph and field."""
    from leavitt import Graph, LeavittAlgebra, construct_regular, parse_field

    paths = [(name, os.path.join(DATA, f"{name}.json")) for name in CORPUS]
    paths += [("rose3", graphs.write_graph("rose", 3, workdir)),
              ("chain_to_rose2", graphs.write_graph("chain_to_rose", 2, workdir))]
    out = []
    for name, path in paths:
        special = construct_regular(Graph.load(path))
        for key, spec in FIELDS.items():
            out.append((name, key, LeavittAlgebra(special, parse_field(spec))))
    return out


def _walk(rng, g, start: str, steps: int, forward: bool) -> list[str]:
    """Edge names of a random walk of at most ``steps`` edges; a backward
    walk is returned in path order, so it ends at ``start``."""
    names, at = [], start
    for _ in range(steps):
        edges = g.out_edges(at) if forward else g.in_edges(at)
        if not edges:
            break
        e = rng.choice(edges)
        names.append(e.name)
        at = e.dst if forward else e.src
    return names if forward else names[::-1]


def random_expression(rng, g, terms: int = 6, max_len: int = 5) -> str:
    """A sum of ``terms`` scaled monomials p q* with paths of length <= max_len."""
    pieces = []
    for i in range(terms):
        start = rng.choice(g.vertices)
        p = _walk(rng, g, start, rng.randint(0, max_len), True)
        end = g.edge(p[-1]).dst if p else start
        q = _walk(rng, g, end, rng.randint(0, max_len), False)
        factors = p + [f"{name}*" for name in reversed(q)] or [end]
        num = rng.randint(1, 9)
        coef = f"{num}/{rng.randint(2, 7)}" if rng.random() < 0.3 else str(num)
        negative = rng.random() < 0.5
        sign = "-" if negative else "+" if i else ""
        pieces.append(f"{sign} {coef} {' '.join(factors)}".strip())
    return " ".join(pieces)


def _hereditary_sets(g) -> list[frozenset]:
    sets = set(g.frame()) | {g.descendants(v) for v in g.vertices}
    return sorted(sets, key=lambda W: (len(W), sorted(W)))


def _expression_query(rng, kind: str, alg, field: str, label: str) -> Query:
    from leavitt import expr, filtration

    g = alg.graph
    if kind == "mul":
        lhs, rhs = random_expression(rng, g), random_expression(rng, g)

        def run():
            x = expr.parse(alg, lhs) * expr.parse(alg, rhs)
            return expr.render(x), x
    else:
        text = random_expression(rng, g)

        def run():
            x = expr.parse(alg, text)
            if kind == "ord":
                return filtration.format_order(filtration.min_order(x)), x
            return expr.render(x), x
    return Query(label, field, run)


def _idempotent_query(kind: str, alg, target, K: int, field: str, label: str) -> Query:
    from leavitt import completion

    def run():
        if kind == "ev":
            t = completion.vertex_idempotent(alg, target, K)
        else:
            t = completion.arrival_idempotent(alg, target, K)
        return t.render(), t.body

    return Query(label, field, run)


def _script_queries(rng, per_cell: int, workdir: str) -> list[Query]:
    """The request stream over every scripted graph and field.

    Each (graph, field) gets ``per_cell`` random expressions for each of
    nf, mul and ord, an ev request for every vertex and an idempotent
    request for every hereditary set of the graph, each at every K in
    ``IDEMPOTENT_PRECISIONS``.  The seed picks the expressions and the
    order of the stream, so the mix of kinds is the same for every seed.
    """
    queries = []
    for name, key, alg in _algebras(workdir):
        g = alg.graph
        for kind in ("nf", "mul", "ord"):
            queries += [_expression_query(rng, kind, alg, key, f"{kind} {name} {key} #{i}")
                        for i in range(per_cell)]
        for K in IDEMPOTENT_PRECISIONS:
            queries += [_idempotent_query("ev", alg, v, K, key, f"ev {name} {key} {v}@{K}")
                        for v in g.vertices]
            queries += [_idempotent_query("idempotent", alg, W, K, key,
                                          f"idempotent {name} {key} {','.join(sorted(W))}@{K}")
                        for W in _hereditary_sets(g)]
    rng.shuffle(queries)
    return queries


def run_pass(queries) -> tuple[list, list[float]]:
    """Run each query once; return the outputs (None where a query raised)
    and the latency of each query in seconds."""
    outputs, latencies = [], []
    for q in queries:
        t0 = time.perf_counter()
        try:
            out = q.run()
        except MemoryError:
            raise
        except Exception:  # noqa: BLE001 - a raising query is a failed query
            out = None
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies


def make_reference(workdir: str) -> dict:
    """Compute the stored reference from the program as it is now."""
    verdicts, scripting = {}, {}
    for name in ("arrival-chain", "vertex-series", "tiny"):
        for family, n, K in SUITE_CASES[name]:
            q = _verify_query(f"{family}{n}@{K}", graphs.write_graph(family, n, workdir), K)
            text, code = q.run()
            if code != 0:
                raise RuntimeError(f"{q.label} exited with {code}")
            verdicts[q.label.split(" ", 1)[1]] = verdict_set(text)
    for name, per_cell in SCRIPT_CELLS.items():
        queries = _script_queries(random.Random(DEFAULT_SEED), per_cell, workdir)
        scripting[f"{name}@{DEFAULT_SEED}"] = _digest(q.run()[0] for q in queries)
    return {"verdicts": verdicts, "scripting": scripting}
