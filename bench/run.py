"""Benchmark of the leavitt workbench: one command, every metric, checked outputs.

    python3 bench/run.py --workload arrival-chain --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload runs in fresh child processes, one at a time, under a
wall-time limit and an address-space limit.  With ``--trace 0`` the run
starts several set-up-only children, then one child that repeats passes
over the workload's queries for ``--seconds`` seconds, and prints the
end-to-end metrics.  With ``--trace 1`` one child runs an untraced pass and
then a traced pass, and the run prints the per-layer metrics and the
tracing overhead.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_CHILDREN = 9  # set-up-only children per run, besides the measuring one
READY_LIMIT_S = 30.0  # wall-time limit of a child's set-up
RUN_LIMIT_S = 170.0  # wall-time limit of one workload's whole run
AS_LIMIT_BYTES = 2 << 30  # address-space limit of every child
OOM_EXIT = 3  # worker.py's exit code after a MemoryError

END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def run_child(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker to its end or to ``deadline``.

    Returns its status (ok, timeout, oom or error), its set-up time from
    start until its "ready" line, its JSON lines and its peak RSS in MB.
    """
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    ready_by = min(deadline, t0 + READY_LIMIT_S)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, bufsize=0,
                            preexec_fn=_limit_memory)
    fd = proc.stdout.fileno()
    data = b""
    ready_s = None
    killed = False
    try:
        while True:
            limit = deadline if ready_s is not None else ready_by
            remaining = limit - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            data += chunk
            if ready_s is None and b"ready\n" in data:
                ready_s = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    lines = []
    for line in data.decode(errors="replace").splitlines()[1:]:
        try:
            lines.append(json.loads(line))
        except ValueError:  # a line cut short when the child was killed
            pass
    done = [line for line in lines if line.get("done")]
    if killed:
        status = "timeout"
    elif code == OOM_EXIT:
        status = "oom"
    elif code == 0 and (mode == "setup" or done):
        status = "ok"
    else:
        status = "error"
    if done:
        rss = done[0]["peak_rss_mb"]
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"status": status, "code": code, "ready_s": ready_s,
            "elapsed_s": time.perf_counter() - t0, "lines": lines, "peak_rss_mb": rss}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _failures(child: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of a child's passes; a child that did
    not end cleanly adds one failed operation, the one it was running."""
    passes = [line for line in child["lines"] if "pass_s" in line]
    for line in child["lines"]:
        passes += [line[key] for key in ("untraced", "traced") if key in line]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    messages = [m for p in passes for m in p["errors"]]
    if child["status"] != "ok":
        attempted += 1
        failed += 1
        messages.append(f"child ended with {child['status']} (exit code {child['code']})")
    return attempted, failed, messages


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, with tracing off."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = [run_child(workload, seed, "setup", 0, deadline) for _ in range(SETUP_CHILDREN)]
    child = run_child(workload, seed, "measure", seconds, deadline)
    attempted, failed, messages = _failures(child)
    for s in setups:
        attempted += 1
        if s["status"] != "ok":
            failed += 1
            messages.append(f"set-up child ended with {s['status']}")
    ready = [c["ready_s"] for c in setups + [child] if c["ready_s"] is not None]
    completed = [line for line in child["lines"] if "pass_s" in line]
    # When no pass finished, report the time until the failure.
    passes = completed or [{"pass_s": child["elapsed_s"], "latencies_s": [child["elapsed_s"]]}]
    # Times are means over the run's passes of a per-pass figure.  The host's
    # speed drifts between phases lasting seconds; in ten-seed trials the mean
    # over a run's passes spread less between runs than their median did.
    pass_s = statistics.mean(p["pass_s"] for p in passes)

    def query_ms(q):
        return 1000 * statistics.mean(percentile(p["latencies_s"], q) for p in passes)

    metrics = {
        "setup_s": statistics.median(ready) if ready else child["elapsed_s"],
        "verify_s": pass_s,
        "query_p50_ms": query_ms(50),
        "query_p99_ms": query_ms(99),
        "queries_per_s": len(passes[0]["latencies_s"]) / pass_s,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "messages": messages,
            "samples": {"setups": len(ready), "passes": len(completed),
                        "queries": sum(len(p["latencies_s"]) for p in completed)},
            "pass_s": [p["pass_s"] for p in completed], "setup_s": ready,
            "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()}}


def trace(workload: str, seed: int) -> dict:
    """The per-layer metrics of one traced pass, and the tracing overhead."""
    child = run_child(workload, seed, "trace", 0, time.perf_counter() + RUN_LIMIT_S)
    attempted, failed, messages = _failures(child)
    result = next((line for line in child["lines"] if "layers" in line), None)
    if result is None:
        layers = tracing.layer_metrics(tracing.Tracer(), 1.0, {})
        untraced_s = traced_s = child["elapsed_s"]
    else:
        layers = result["layers"]
        plain = result["untraced"]
        by_field: dict[str, list] = {}
        for field, x in zip(plain["fields"], plain["latencies_s"]):
            by_field.setdefault(field, []).append(x)
        for field, xs in by_field.items():
            layers[f"fields.{field}.query_p50_ms"] = 1000 * percentile(xs, 50)
        untraced_s, traced_s = plain["pass_s"], result["traced"]["pass_s"]
        if result["wrapped_after"]:
            failed += 1
            messages.append("tracer left wrappers behind: " + ", ".join(result["wrapped_after"]))
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "messages": messages,
            "overhead": {"untraced_verify_s": untraced_s, "traced_verify_s": traced_s},
            "metrics": {k: (v, tracing.LAYER_UNITS[k][0]) for k, v in layers.items()}}


def _print_report(r: dict):
    frac = r["failed"] / r["attempted"]
    print(f"workload {r['workload']}: attempted {r['attempted']}, failed {r['failed']}, "
          f"failed_frac {frac:g}")
    for m in r["messages"][:10]:
        print(f"  FAILED {m}")
    if "samples" in r:
        s = r["samples"]
        print(f"  samples: {s['setups']} set-ups, {s['passes']} passes, "
              f"{s['queries']} queries")
        print("  set-up seconds: " + " ".join(f"{x:.4f}" for x in r["setup_s"]))
        print("  pass seconds:   " + " ".join(f"{x:.4f}" for x in r["pass_s"]))
    for name, (value, unit) in r["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if "overhead" in r:
        o = r["overhead"]
        print(f"  tracing overhead: traced verify_s {o['traced_verify_s']:.4f} s - untraced "
              f"verify_s {o['untraced_verify_s']:.4f} s = "
              f"{o['traced_verify_s'] - o['untraced_verify_s']:.4f} s (not gated)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the leavitt workbench.")
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "leavitt", "__init__.py")):
        print(f"error: no leavitt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [trace(name, args.seed) if args.trace else measure(name, args.seed, args.seconds)
               for name in names]
    for r in reports:
        _print_report(r)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + name: {"value": v, "unit": u}
               for r in reports for name, (v, u) in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
