"""Command-line front end.

Exit codes: 0 on success or all checks passing, 1 when a non-refused check
fails, 2 on usage or input errors, a working-precision escalation that does
not converge, or exhausted memory.  ``run`` lets ``MemoryError`` through so
that a caller in the same process can tell it apart; ``main`` turns it into
exit code 2.  All output is deterministic: identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import expr
from .algebra import LeavittAlgebra
from .completion import arrival_idempotent, vertex_idempotent
from .fields import parse_field
from .filtration import format_order, min_order
from .graph import Graph, format_vertex_set
from .specialization import Specialization, construct_regular
from .structure import (
    FAIL,
    PASS,
    SUITES,
    Verdict,
    _cycle_witness,
    check_central_idempotent,
    decompose,
    run_suite,
)

_SUITE_HELP = (
    "all; lemma10: arrival idempotents are central; lemma14: nested arrival "
    "idempotents agree; lemma15: partition of unity; lemma19: vertex "
    "idempotent laws; lemma21: transfer and separation; lemma24: vertex "
    "recovery series"
)


def _parse_prec(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad precision {text!r} (want an integer or a/b)") from None
    if value < 0:
        raise ValueError("precision must be nonnegative")
    return value


def _add_common(sub, prec=False):
    sub.add_argument("--graph", required=True, help="graph JSON file")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", help="specialization JSON file")
    group.add_argument(
        "--auto-regular", action="store_true",
        help="construct the canonical regular specialization",
    )
    sub.add_argument("--field", default="q", help="coefficient field: q or fp:<p>")
    if prec:
        sub.add_argument("--prec", required=True, help="precision level (integer or a/b)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Symbolic workbench for Leavitt path algebras of finite graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("frame", help="print the minimal hereditary vertex sets")
    p.add_argument("graph", help="graph JSON file")

    p = subs.add_parser("specialize", help="construct a regular specialization")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("-o", "--out", help="write the specialization JSON here instead of stdout")

    p = subs.add_parser("check-spec", help="report frame-finiteness and regularity")
    _add_common(p)
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("nf", help="normal form of an expression")
    _add_common(p)
    p.add_argument("expr", help="element expression")

    p = subs.add_parser("mul", help="product of two expressions, in normal form")
    _add_common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = subs.add_parser("ord", help="least filtration order over an element's support")
    _add_common(p)
    p.add_argument("expr")

    p = subs.add_parser("idempotent", help="arrival idempotent of a hereditary set")
    _add_common(p, prec=True)
    p.add_argument("--set", required=True, dest="vertex_set",
                   help="comma-separated vertex names")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("ev", help="vertex idempotent of the special walk")
    _add_common(p, prec=True)
    p.add_argument("--vertex", required=True)

    p = subs.add_parser("decompose", help="frame/component decomposition report")
    _add_common(p, prec=True)
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("verify", help="run a verification suite")
    _add_common(p, prec=True)
    p.add_argument("--suite", default="all", choices=SUITES, help=_SUITE_HELP)
    p.add_argument("--json", action="store_true")

    return parser


def _load_algebra(args) -> LeavittAlgebra:
    graph = Graph.load(args.graph)
    if getattr(args, "auto_regular", False):
        special = construct_regular(graph)
    else:
        special = Specialization.load(graph, args.gamma)
    return LeavittAlgebra(special, parse_field(args.field))


def _emit_json(alg: LeavittAlgebra, payload: dict, K=None):
    """Print a ``--json`` report with the field and any requested precision."""
    payload["field"] = alg.field.name
    if K is not None:
        payload["requested_precision"] = format_order(K)
    print(json.dumps(payload, indent=2, sort_keys=True))


def _checks_exit(verdicts) -> int:
    return 1 if any(v.failed for v in verdicts) else 0


def _cmd_frame(args) -> int:
    graph = Graph.load(args.graph)
    for W in graph.frame():
        print(format_vertex_set(W))
    return 0


def _cmd_specialize(args) -> int:
    graph = Graph.load(args.graph)
    text = json.dumps(construct_regular(graph).to_json(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_check_spec(args) -> int:
    alg = _load_algebra(args)
    report = alg.special.report()
    witness = None if report.frame_finite else _cycle_witness(report)
    checks = [Verdict("frame-finite", PASS if report.frame_finite else FAIL, witness=witness)]
    for W, ok in report.connectivity:
        name = f"special-connectivity[{format_vertex_set(W)}]"
        checks.append(Verdict(name, PASS if ok else FAIL))
    if args.json:
        _emit_json(
            alg,
            {
                "frame": [sorted(W) for W in alg.graph.frame()],
                "components": [sorted(S) for S in alg.special.undirected_components()],
                "frame_finite": report.frame_finite,
                "regular": report.regular,
                "witness_cycle": None if report.frame_finite else str(report.witness_cycle),
                "checks": [v.as_json() for v in checks],
            }
        )
    else:
        print("frame:", " ".join(format_vertex_set(W) for W in alg.graph.frame()))
        print("components:", " ".join(format_vertex_set(S) for S in alg.special.undirected_components()))
        print("frame-finite:", "yes" if report.frame_finite else "no")
        if not report.frame_finite:
            print(_cycle_witness(report, "witness-cycle:"))
        for W, ok in report.connectivity:
            print(f"connectivity{format_vertex_set(W)}:", "connected" if ok else "disconnected")
        print("regular:", "yes" if report.regular else "no")
    return 0 if report.regular else 1


def _cmd_nf(args) -> int:
    alg = _load_algebra(args)
    print(expr.render(expr.parse(alg, args.expr)))
    return 0


def _cmd_mul(args) -> int:
    alg = _load_algebra(args)
    print(expr.render(expr.parse(alg, args.lhs) * expr.parse(alg, args.rhs)))
    return 0


def _cmd_ord(args) -> int:
    alg = _load_algebra(args)
    print(format_order(min_order(expr.parse(alg, args.expr))))
    return 0


def _cmd_idempotent(args) -> int:
    alg = _load_algebra(args)
    K = _parse_prec(args.prec)
    W = frozenset(name.strip() for name in args.vertex_set.split(",") if name.strip())
    element = arrival_idempotent(alg, W, K)
    verdict = check_central_idempotent(alg, W, K)
    if args.json:
        _emit_json(
            alg,
            {
                "idempotents": {format_vertex_set(W): element.render()},
                "checks": [verdict.as_json()],
            },
            K,
        )
    else:
        print(f"e({format_vertex_set(W)}) = {element.render()}")
        print(verdict.text_line())
    return _checks_exit([verdict])


def _cmd_ev(args) -> int:
    alg = _load_algebra(args)
    K = _parse_prec(args.prec)
    element = vertex_idempotent(alg, args.vertex, K)
    print(f"e_{args.vertex} = {element.render()}")
    return 0


def _cmd_decompose(args) -> int:
    alg = _load_algebra(args)
    K = _parse_prec(args.prec)
    report = decompose(alg, K)
    if args.json:
        _emit_json(alg, report.as_json(), K)
    else:
        print("frame:", " ".join(format_vertex_set(W) for W in report.frame))
        print("components:", " ".join(format_vertex_set(S) for S in report.components))
        for S in report.components:
            if S in report.assignment:
                print(f"assignment: {format_vertex_set(S)} -> "
                      f"{format_vertex_set(report.assignment[S])}")
        for W in report.frame:
            print(f"e({format_vertex_set(W)}) = {report.idempotents[W].render()}")
        for v in sorted(report.checks, key=lambda v: v.name):
            print(v.text_line())
    return _checks_exit(report.checks)


def _cmd_verify(args) -> int:
    alg = _load_algebra(args)
    K = _parse_prec(args.prec)
    verdicts = run_suite(alg, args.suite, K)
    if args.json:
        payload = {"suite": args.suite, "checks": [v.as_json() for v in verdicts]}
        _emit_json(alg, payload, K)
    else:
        for v in verdicts:
            print(v.text_line())
        failed = sum(1 for v in verdicts if v.failed)
        print(f"checks: {len(verdicts)}, failed: {failed}")
    return _checks_exit(verdicts)


_COMMANDS = {
    "frame": _cmd_frame,
    "specialize": _cmd_specialize,
    "check-spec": _cmd_check_spec,
    "nf": _cmd_nf,
    "mul": _cmd_mul,
    "ord": _cmd_ord,
    "idempotent": _cmd_idempotent,
    "ev": _cmd_ev,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = run(sys.argv[1:])
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
