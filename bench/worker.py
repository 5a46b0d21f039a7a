"""One workload child process: set up, say "ready", then measure.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes: ``setup`` stops after set-up; ``measure`` runs passes until S
seconds have gone and prints one JSON line per pass; ``trace`` runs one
untraced pass and then one traced pass and prints their figures;
``reference`` rewrites ``bench/reference.json`` from the program as it is.  The
child imports ``leavitt`` from the checkout's ``src`` and nothing else,
writes its graph files under ``bench/.work/<pid>`` and removes them on
exit.  It exits with 3 when it runs out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OOM_EXIT = 3


def _import_program():
    sys.path.insert(0, SRC)
    import leavitt

    if os.path.dirname(os.path.dirname(os.path.abspath(leavitt.__file__))) != SRC:
        raise ImportError(f"leavitt was imported from {leavitt.__file__}, not {SRC}")


def _emit(payload: dict):
    print(json.dumps(payload), flush=True)


def _pass_record(w, outputs, latencies, pass_s) -> dict:
    errors = w.check(outputs)
    return {
        "pass_s": pass_s,
        "latencies_s": latencies,
        "fields": [q.field for q in w.queries],
        "attempted": len(outputs),
        "failed": len(errors),
        "errors": errors[:5],
    }


def _timed_pass(w, run_pass):
    t0 = time.perf_counter()
    outputs, latencies = run_pass(w.queries)
    return outputs, latencies, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "reference"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.mode == "reference":
            with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(workloads.make_reference(workdir), fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        w = workloads.Workload(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.mode == "measure":
            start = time.perf_counter()
            while True:
                outputs, latencies, pass_s = _timed_pass(w, workloads.run_pass)
                _emit(_pass_record(w, outputs, latencies, pass_s))
                if time.perf_counter() - start >= args.seconds:
                    break
        elif args.mode == "trace":
            import tracing

            outputs, latencies, plain_s = _timed_pass(w, workloads.run_pass)
            untraced = _pass_record(w, outputs, latencies, plain_s)
            with tracing.Tracer() as tracer:
                outputs, _, traced_s = _timed_pass(w, workloads.run_pass)
            traced = _pass_record(w, outputs, [], traced_s)
            _emit({
                "untraced": untraced,
                "traced": traced,
                "wrapped_after": tracing.wrapped_bindings(),
                "layers": tracing.layer_metrics(tracer, traced_s, {}),
            })
        if args.mode != "setup":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _emit({"done": True, "peak_rss_mb": rss_kb / 1024})
    except MemoryError:
        os.write(2, b"worker: out of memory\n")
        return OOM_EXIT
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
