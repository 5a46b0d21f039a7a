"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``leavitt`` modules while it is
installed.  A name bound with ``from .x import f`` lives in several module
namespaces, so every namespace whose attribute is the original function
gets the wrapper; patching only the defining module would miss the calls
made through the other bindings.  Methods are wrapped on their class.

Span wrappers keep a stack of open spans.  A span's self time is its
duration minus the durations of the spans opened inside it, and counters
are charged to the innermost open span.  Counter wrappers (``Graph.extend``,
``order_of``, ...) only count, so the hottest calls pay the least.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

ARRIVAL = "completion.arrival_idempotent"
VERTEX = "completion.vertex_idempotent"
ELEMENT = "algebra.element"

# span name -> the functions it times, as (module, attribute) pairs.
SPANS = {
    "cli.run": [("leavitt.cli", "run")],
    "specialization.construct_regular": [("leavitt.specialization", "construct_regular")],
    ELEMENT: [("leavitt.algebra", "LeavittAlgebra.element")],
    "algebra.mul": [("leavitt.algebra", "Element.__mul__")],
    ARRIVAL: [("leavitt.completion", "arrival_idempotent")],
    VERTEX: [("leavitt.completion", "vertex_idempotent")],
    "completion.trunc_mul": [("leavitt.completion", "trunc_mul")],
    "completion.truncate": [
        ("leavitt.completion", "truncate"),
        ("leavitt.completion", "trunc_add"),
    ],
    "completion.equal_mod": [("leavitt.completion", "equal_mod")],
    "structure.central_idempotent": [("leavitt.structure", "check_central_idempotent")],
    "structure.partition": [("leavitt.structure", "check_partition")],
    "structure.collapse": [("leavitt.structure", "check_collapse")],
    "structure.vertex_laws": [("leavitt.structure", "check_vertex_idempotent_laws")],
    "structure.transfer": [("leavitt.structure", "check_ideal_transfer")],
    "structure.recovery": [("leavitt.structure", "vertex_recovery")],
    "structure.decompose": [("leavitt.structure", "decompose")],
    "structure.run_suite": [("leavitt.structure", "run_suite")],
    "expr.parse": [("leavitt.expr", "parse")],
    "expr.render": [("leavitt.expr", "render")],
}

# Checks whose working precisions count as escalation rounds.
CHECKS = (
    "structure.central_idempotent",
    "structure.partition",
    "structure.collapse",
    "structure.vertex_laws",
    "structure.transfer",
    "structure.recovery",
    "structure.decompose",
)

# counter name -> the function it counts calls of.
COUNTERS = {
    "graph.extend": ("leavitt.graph", "Graph.extend"),
    "filtration.order_of": ("leavitt.filtration", "order_of"),
    "filtration.product_precision": ("leavitt.filtration", "product_precision"),
}

# Nonzero results of monomial_product are the useful pairs of a product.
HITS = ("leavitt.algebra", "monomial_product")

MARK = "_bench_trace"


def _leavitt_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "leavitt" or name.startswith("leavitt.")]


def _bindings(module_name: str, attr: str):
    """Every (namespace, name) that holds the function ``module.attr``."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[meth], [(cls, meth)]
    original = getattr(module, attr)
    found = [(m, key) for m in _leavitt_modules()
             for key, value in vars(m).items() if value is original]
    return original, found


def wrapped_bindings() -> list[str]:
    """Names of every leavitt binding that currently holds a tracer wrapper."""
    out = []
    for m in _leavitt_modules():
        for key, value in vars(m).items():
            if hasattr(value, MARK):
                out.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("leavitt"):
                out += [f"{m.__name__}.{key}.{k}" for k, v in vars(value).items()
                        if hasattr(v, MARK)]
    return sorted(set(out))


class Tracer:
    """Span and counter collector; use as a context manager to patch."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds, extra]
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()  # (counter, innermost span) -> calls
        self.hits: Counter = Counter()  # innermost span -> nonzero products
        self.sizes: Counter = Counter()  # (span, quantity) -> sum
        self.kws: set = set()  # working precisions seen by checks
        self.rounds = 0  # distinct working precisions per check span
        self.checks = 0  # check spans that computed an idempotent
        self.arrivals: list[tuple] = []  # (W, Kw, terms kept, body terms)
        self._saved: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        # Import every traced module first, so no later import copies a wrapper.
        for module_name, _ in [t for ts in SPANS.values() for t in ts] + list(COUNTERS.values()):
            importlib.import_module(module_name)
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                self._patch(module_name, attr, lambda fn, name=name: self._span(name, fn))
        for name, (module_name, attr) in COUNTERS.items():
            self._patch(module_name, attr, lambda fn, name=name: self._counter(name, fn))
        self._patch(*HITS, self._hit_counter)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
        return False

    def _patch(self, module_name, attr, make):
        original, bindings = _bindings(module_name, attr)
        wrapper = make(original)
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = original
        for owner, key in bindings:
            self._saved.append((owner, key, original))
            setattr(owner, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, calls, self_s, total_s = self.stack, self.calls, self.self_s, self.total_s
        before, after = self._hooks(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self_s[name] += dt - frame[1]
                total_s[name] += dt
                calls[name] += 1
            if after is not None:
                after(args, result, frame)
            return result

        return wrapper

    def _counter(self, name, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name, stack[-1][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hit_counter(self, fn):
        stack, hits = self.stack, self.hits

        def wrapper(m1, m2):
            result = fn(m1, m2)
            if result is not None:
                hits[stack[-1][0] if stack else None] += 1
            return result

        return wrapper

    def _hooks(self, name):
        sizes = self.sizes
        if name == ELEMENT:
            stack = self.stack

            def before(args):
                alg, terms = args
                if not isinstance(terms, dict):
                    terms = list(terms)
                sizes[name, "terms_in"] += len(terms)
                if stack and stack[-1][0] == ARRIVAL:
                    stack[-1][2] += len(terms)
                return alg, terms

            def after(args, result, frame):
                sizes[name, "terms_out"] += len(result.terms)

            return before, after
        if name == "algebra.mul":
            def after(args, result, frame):
                a, b = args
                if hasattr(b, "terms"):
                    sizes[name, "pairs"] += len(a.terms) * len(b.terms)

            return None, after
        if name in (ARRIVAL, VERTEX):
            def before(args):
                self._note_precision(args[2])
                return args

            if name == VERTEX:
                return before, None

            def after(args, result, frame):
                kept, body = frame[2], len(result.body.terms)
                sizes[name, "terms_kept"] += kept
                sizes[name, "body_terms"] += body
                self.arrivals.append((tuple(sorted(args[1])), args[2], kept, body))

            return before, after
        if name == "completion.trunc_mul":
            def after(args, result, frame):
                sizes[name, "terms_out"] += len(result.body.terms)

            return None, after
        if name in CHECKS:
            # The third slot of a check span collects its working precisions.
            def after(args, result, frame):
                if frame[2]:
                    self.checks += 1
                    self.rounds += len(frame[2])

            return None, after
        if name == "structure.run_suite":
            def after(args, result, frame):
                sizes[name, "verdicts"] += len(result)

            return None, after
        return None, None

    def _note_precision(self, Kw):
        for frame in reversed(self.stack):
            if frame[0] in CHECKS:
                if not frame[2]:
                    frame[2] = set()
                frame[2].add(Kw)
                self.kws.add(Kw)
                return


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, pass_s: float, field_p50_ms: dict) -> dict:
    """The per-layer metrics of one traced pass.

    ``pass_s`` is the traced pass's wall time and ``field_p50_ms`` maps a
    field name (``q``, ``fp``) to its untraced median query latency.
    """
    def counted(counter, span=None):
        return sum(n for (name, where), n in t.counts.items()
                   if name == counter and (span is None or where == span))

    terms_in, terms_out = t.sizes[ELEMENT, "terms_in"], t.sizes[ELEMENT, "terms_out"]
    pairs = t.sizes["algebra.mul", "pairs"]
    kept = t.sizes[ARRIVAL, "terms_kept"]
    out = {
        "cli.run.self_s": t.self_s["cli.run"],
        "specialization.construct_regular.self_s": t.self_s["specialization.construct_regular"],
        "graph.extend.calls": counted("graph.extend"),
        "filtration.order_of.calls": counted("filtration.order_of"),
        "filtration.product_precision.calls": counted("filtration.product_precision"),
        "algebra.element.calls": t.calls[ELEMENT],
        "algebra.element.self_s": t.self_s[ELEMENT],
        "algebra.element.terms_in": terms_in,
        "algebra.element.terms_out": terms_out,
        "algebra.element.collapse_ratio": _ratio(terms_out, terms_in),
        "algebra.mul.calls": t.calls["algebra.mul"],
        "algebra.mul.self_s": t.self_s["algebra.mul"],
        "algebra.mul.pairs": pairs,
        "algebra.mul.hit_ratio": _ratio(t.hits["algebra.mul"], pairs),
        f"{ARRIVAL}.calls": t.calls[ARRIVAL],
        f"{ARRIVAL}.self_s": t.self_s[ARRIVAL],
        f"{ARRIVAL}.terms_kept": kept,
        f"{ARRIVAL}.body_terms": t.sizes[ARRIVAL, "body_terms"],
        f"{ARRIVAL}.keep_ratio": _ratio(kept, counted("graph.extend", ARRIVAL)),
        f"{ARRIVAL}.share": _ratio(t.total_s[ARRIVAL], pass_s),
        f"{VERTEX}.calls": t.calls[VERTEX],
        f"{VERTEX}.self_s": t.self_s[VERTEX],
        "completion.trunc_mul.calls": t.calls["completion.trunc_mul"],
        "completion.trunc_mul.self_s": t.self_s["completion.trunc_mul"],
        "completion.trunc_mul.terms_out": t.sizes["completion.trunc_mul", "terms_out"],
        "completion.truncate.self_s": t.self_s["completion.truncate"],
        "completion.equal_mod.self_s": t.self_s["completion.equal_mod"],
    }
    for name in CHECKS:
        out[f"{name}.self_s"] = t.self_s[name]
    out["structure.escalation.rounds"] = t.rounds
    out["structure.escalation.max_prec"] = float(max(t.kws, default=0))
    out["structure.escalation.useful_ratio"] = _ratio(t.checks, t.rounds)
    out["structure.verdicts"] = t.sizes["structure.run_suite", "verdicts"]
    out["expr.parse.calls"] = t.calls["expr.parse"]
    out["expr.parse.self_s"] = t.self_s["expr.parse"]
    out["expr.render.self_s"] = t.self_s["expr.render"]
    for field in ("q", "fp"):
        out[f"fields.{field}.query_p50_ms"] = field_p50_ms.get(field, 0.0)
    return out


def _unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("self_s"):
        return "s", "lower"
    if name.endswith("_ms"):
        return "ms", "lower"
    if name.endswith("_ratio"):
        return "ratio", "higher"  # a share of useful outcomes
    if name.endswith(".share"):
        return "ratio", "lower"
    if name.endswith(".max_prec"):
        return "level", "lower"
    return "count", "lower"


# name -> (unit, better); BENCHMARK.json lists the same names in this order.
LAYER_UNITS = {name: _unit(name) for name in layer_metrics(Tracer(), 1.0, {})}
