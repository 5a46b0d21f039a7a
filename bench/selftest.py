"""Self-test of the benchmark: generators, tracer wrappers and metric names.

    python3 bench/selftest.py

Runs in about a minute: two of the checks trace a full pass of the
arrival-chain and vertex-series workloads.  Prints one line per check and
exits non-zero when one fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import graphs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import leavitt  # noqa: E402
import leavitt.cli  # noqa: E402
from leavitt import Graph, LeavittAlgebra, construct_regular  # noqa: E402

# Bindings made by ``from ... import`` that the tracer must reach.
IMPORTED_BINDINGS = (
    (leavitt.structure, "trunc_mul"),
    (leavitt.structure, "arrival_idempotent"),
    (leavitt.cli, "run_suite"),
    (leavitt.completion, "order_of"),
    (leavitt.completion, "product_precision"),
    (leavitt.cli, "construct_regular"),
    (leavitt, "parse"),
)


def _traced_pass(name: str, workdir: str):
    w = workloads.Workload(name, workloads.DEFAULT_SEED, workdir)
    outputs, latencies = workloads.run_pass(w.queries)
    errors = w.check(outputs)
    assert not errors, errors
    by_field = {}
    for q, x in zip(w.queries, latencies):
        by_field.setdefault(q.field, []).append(x)
    field_p50 = {f: 1000 * run.percentile(xs, 50) for f, xs in by_field.items()}
    assert tracing.wrapped_bindings() == [], "an untraced pass left wrappers behind"
    with tracing.Tracer() as tracer:
        for owner, key in IMPORTED_BINDINGS:
            assert hasattr(getattr(owner, key), tracing.MARK), f"{key} is not wrapped"
        outputs, latencies = workloads.run_pass(w.queries)
    assert tracing.wrapped_bindings() == [], tracing.wrapped_bindings()
    assert not w.check(outputs)
    return tracer, tracing.layer_metrics(tracer, sum(latencies), field_p50)


def test_generators(workdir):
    for family, n, vertices, edges in (("chain_to_rose", 3, 4, 8), ("rose", 4, 1, 4),
                                       ("complete", 4, 4, 16)):
        g = Graph.load(graphs.write_graph(family, n, workdir))
        assert (len(g.vertices), len(g.edges)) == (vertices, edges), (family, g)
    g = Graph.load(graphs.write_graph("chain_to_rose", 3, workdir))
    assert g.frame() == [frozenset({"r"})]
    assert {e.name for e in g.out_edges("c0")} == {"l0", "f0"}


def test_arrival_terms_kept(workdir):
    g = Graph.load(graphs.write_graph("chain_to_rose", 3, workdir))
    alg = LeavittAlgebra(construct_regular(g))
    with tracing.Tracer() as tracer:
        for Kw in (7, 14, 28):
            leavitt.completion.arrival_idempotent(alg, {"r"}, Kw)
    kept = [(Kw, n, body) for _, Kw, n, body in tracer.arrivals]
    assert kept == [(7, 274, 4), (14, 1736, 4), (28, 13076, 4)], kept


def test_every_layer_metric_nonzero(workdir):
    _, metrics = _traced_pass("tiny", workdir)
    zero = [name for name, value in metrics.items() if not value]
    assert not zero, f"zero on the tiny case: {zero}"


def test_counts_repeat_across_runs(workdir):
    first, second = (run.trace("tiny", workloads.DEFAULT_SEED) for _ in range(2))
    for r in (first, second):
        assert r["failed"] == 0, r["messages"]
    counts = {k for k, (_, unit) in first["metrics"].items() if unit == "count"}
    differ = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
    assert counts and not differ, differ


def test_arrival_share(workdir):
    _, metrics = _traced_pass("arrival-chain", workdir)
    share = metrics["completion.arrival_idempotent.share"]
    assert share >= 0.9, share
    _, metrics = _traced_pass("vertex-series", workdir)
    share = metrics["completion.arrival_idempotent.share"]
    assert share <= 0.01, share


def test_limits_are_recorded(workdir):
    saved = run.RUN_LIMIT_S, run.AS_LIMIT_BYTES
    try:
        run.RUN_LIMIT_S = 4.0
        timed_out = run.measure("arrival-chain", 0, 30)
        run.RUN_LIMIT_S, run.AS_LIMIT_BYTES = saved[0], 400 << 20
        out_of_memory = run.measure("arrival-chain", 0, 30)
    finally:
        run.RUN_LIMIT_S, run.AS_LIMIT_BYTES = saved
    for r, status in ((timed_out, "timeout"), (out_of_memory, "oom")):
        assert r["failed"] >= 1 and any(status in m for m in r["messages"]), r["messages"]
        assert set(r["metrics"]) == set(run.END_TO_END)
        assert all(value > 0 for value, _ in r["metrics"].values()), r["metrics"]


def test_benchmark_json_names(workdir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.LAYER_UNITS.items()]


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".selftest-") as workdir:
            try:
                fn(workdir)
                print(f"ok    {name}")
            except Exception:  # noqa: BLE001 - report every failing check
                failed += 1
                print(f"FAIL  {name}")
                traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
