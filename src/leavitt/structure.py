"""Theorem-level verifiers over the truncated completion.

Every check produces a ``Verdict`` with a three-valued outcome: ``pass``,
``fail``, or ``refused`` when a precondition is unmet (``sampled-pass``
marks a passing check whose statement was only sampled).  A check never
silently degrades: the working precision of the inputs is escalated until
the product-precision bookkeeping certifies the requested level, and the
verdict records the precision actually achieved.  Congruences follow the
one-unit slack discipline of ``equal_mod``: a pass at level K certifies
that every residual basis term has order at least K - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LeavittAlgebra, Monomial
from .completion import (
    TruncatedElement,
    arrival_idempotent,
    conjugate,
    equal_mod,
    exact,
    trunc_add,
    trunc_mul,
    truncate,
    vertex_idempotent,
)
from .filtration import INF, Order, as_order, format_order, min_order
from .graph import format_vertex_set

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"
SAMPLED_PASS = "sampled-pass"

SAMPLE_LEN = 4  # total length of the monomials component-separation samples

SUITES = ("all", "lemma10", "lemma14", "lemma15", "lemma19", "lemma21", "lemma24")


@dataclass
class Verdict:
    name: str
    status: str
    requested: Order | None = None
    achieved: Order | None = None
    witness: str | None = None
    note: str | None = None

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "requested_precision": None if self.requested is None else format_order(self.requested),
            "achieved_precision": None if self.achieved is None else format_order(self.achieved),
            "witness": self.witness,
            "note": self.note,
        }

    def text_line(self) -> str:
        bits = [f"{self.name}: {self.status}"]
        details = []
        if self.requested is not None:
            details.append(f"requested {format_order(self.requested)}")
        if self.achieved is not None:
            details.append(f"achieved {format_order(self.achieved)}")
        if details:
            bits.append("(" + ", ".join(details) + ")")
        if self.witness:
            bits.append(f"-- {self.witness}")
        if self.note:
            bits.append(f"-- {self.note}")
        return " ".join(bits)


def _require_finite(K) -> Fraction:
    K = as_order(K)
    if K == INF:
        raise ValueError("checks need a finite precision level")
    return K


def _achieved_of(pairs) -> Order:
    levels = [min(lhs.prec, rhs.prec) for lhs, rhs, _ in pairs]
    return min(levels) if levels else INF


def _escalated(requested: Fraction, pairs_at):
    """The (lhs, rhs, label) pairs ``pairs_at(Kw)`` at the first of the
    doubling working precisions Kw whose pairs certify the requested level."""
    Kw = 2 * requested + 3
    for _ in range(24):
        pairs = pairs_at(Kw)
        if _achieved_of(pairs) >= requested:
            return pairs
        Kw *= 2
    raise RuntimeError("working-precision escalation failed to converge")


def _judge(name: str, K: Fraction, pairs, sampled=False, note=None) -> Verdict:
    achieved = _achieved_of(pairs)
    for lhs, rhs, label in pairs:
        if not equal_mod(lhs, rhs, K):
            residual = min_order(lhs.body - rhs.body)
            return Verdict(
                name,
                FAIL,
                K,
                achieved,
                witness=f"{label}: residual has order {format_order(residual)} "
                f"< {format_order(K - 1)}",
                note=note,
            )
    return Verdict(name, SAMPLED_PASS if sampled else PASS, K, achieved, note=note)


def _certify(name: str, K: Fraction, pairs_at, sampled=False, note=None) -> Verdict:
    """Judge the pairs ``pairs_at(Kw)`` at the first Kw that certifies K."""
    return _judge(name, K, _escalated(K, pairs_at), sampled, note)


def _refuse_not_hereditary(alg: LeavittAlgebra, name: str, K, W, label=None) -> Verdict | None:
    """Refuse unless W is hereditary; ``label`` names W among a check's sets."""
    try:
        hereditary = alg.graph.is_hereditary(W)
    except ValueError as exc:
        note = str(exc) if label is None else f"{label} set: {exc}"
    else:
        if hereditary:
            return None
        note = f"{format_vertex_set(W)} is not hereditary"
        if label is not None:
            note = f"{label} set {note}"
    return Verdict(name, REFUSED, K, None, note=note)


def _cycle_witness(report, prefix: str = "special cycle") -> str:
    """How a report that is not frame-finite names its special cycle."""
    cycle = report.witness_cycle
    return f"{prefix} {cycle} at {cycle.start}"


NOT_FRAME_FINITE_NOTE = (
    "a special cycle avoids the minimal hereditary sets, so arrival sums "
    "need not converge to the identity (the Toeplitz graph with its loop "
    "chosen special is the standard counterexample)"
)


def _refuse_frame_finite(alg: LeavittAlgebra, name: str, K) -> Verdict | None:
    report = alg.special.report()
    if report.frame_finite:
        return None
    return Verdict(
        name,
        REFUSED,
        K,
        None,
        witness=_cycle_witness(report),
        note=NOT_FRAME_FINITE_NOTE,
    )


# -- central idempotents ------------------------------------------------------


def check_central_idempotent(alg: LeavittAlgebra, W, K) -> Verdict:
    """e(W) is idempotent and commutes with every generator."""
    K = _require_finite(K)
    W = frozenset(W)
    name = f"central-idempotent[{format_vertex_set(W)}]"
    refusal = _refuse_not_hereditary(alg, name, K, W)
    if refusal is not None:
        return refusal

    def pairs_at(Kw):
        eW = arrival_idempotent(alg, W, Kw)
        pairs = [(trunc_mul(eW, eW), eW, "e(W)^2 = e(W)")]
        for v in alg.graph.vertices:
            x = exact(alg.vertex(v))
            pairs.append((trunc_mul(x, eW), trunc_mul(eW, x), f"{v} commutes with e(W)"))
        for e in alg.graph.edges:
            x = exact(alg.edge(e.name))
            pairs.append((trunc_mul(x, eW), trunc_mul(eW, x), f"{e.name} commutes with e(W)"))
            x = exact(alg.ghost(e.name))
            pairs.append((trunc_mul(x, eW), trunc_mul(eW, x), f"{e.name}* commutes with e(W)"))
        return pairs

    return _certify(name, K, pairs_at)


def check_partition(alg: LeavittAlgebra, W, K) -> Verdict:
    """e(W) and e(W-perp) are orthogonal and sum to the identity."""
    K = _require_finite(K)
    W = frozenset(W)
    name = f"partition[{format_vertex_set(W)}]"
    refusal = _refuse_not_hereditary(alg, name, K, W) or _refuse_frame_finite(alg, name, K)
    if refusal is not None:
        return refusal
    Wp = alg.graph.hereditary_complement(W)

    def pairs_at(Kw):
        eW = arrival_idempotent(alg, W, Kw)
        eWp = arrival_idempotent(alg, Wp, Kw) if Wp else exact(alg.zero())
        zero = exact(alg.zero())
        return [
            (trunc_mul(eW, eWp), zero, "e(W) e(W^perp) = 0"),
            (trunc_mul(eWp, eW), zero, "e(W^perp) e(W) = 0"),
            (trunc_add(eW, eWp), exact(alg.one()), "e(W) + e(W^perp) = 1"),
        ]

    return _certify(name, K, pairs_at)


def check_collapse(alg: LeavittAlgebra, W1, W2, K) -> Verdict:
    """e(W1) = e(W2) for nested hereditary sets with common approach.

    Needs W1 <= W2, both hereditary, every vertex of W2 with a descendant
    in W1, and a frame-finite specialization.  Invoked with
    W2 = (W1^perp)^perp this also covers the double-complement identity.
    """
    K = _require_finite(K)
    W1, W2 = frozenset(W1), frozenset(W2)
    name = f"collapse[{format_vertex_set(W1)} -> {format_vertex_set(W2)}]"
    g = alg.graph
    for label, W in (("inner", W1), ("outer", W2)):
        refusal = _refuse_not_hereditary(alg, name, K, W, label)
        if refusal is not None:
            return refusal
    if not W1 <= W2:
        return Verdict(name, REFUSED, K, None, note="inner set is not contained in the outer set")
    stranded = sorted(w for w in W2 if not (g.descendants(w) & W1))
    if stranded:
        return Verdict(
            name, REFUSED, K, None,
            note=f"vertex {stranded[0]!r} of the outer set has no descendant in the inner set",
        )
    refusal = _refuse_frame_finite(alg, name, K)
    if refusal is not None:
        return refusal

    def pairs_at(Kw):
        return [
            (
                arrival_idempotent(alg, W1, Kw),
                arrival_idempotent(alg, W2, Kw),
                "e(W1) = e(W2)",
            )
        ]

    return _certify(name, K, pairs_at)


# -- vertex idempotents -------------------------------------------------------


def _vertex_idempotents_at(alg: LeavittAlgebra, Kw) -> dict[str, TruncatedElement]:
    return {v: vertex_idempotent(alg, v, Kw) for v in alg.graph.vertices}


def check_vertex_idempotent_laws(alg: LeavittAlgebra, K) -> list[Verdict]:
    """The defining laws of the limit idempotents e_v.

    Covers: e_v is a nonzero idempotent, distinct e_v are orthogonal,
    non-special edges out of v are annihilated, and the special edge
    shifts e_v one step along the walk.
    """
    K = _require_finite(K)
    g = alg.graph
    special = alg.special
    zero = exact(alg.zero())

    def idem_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        return [(trunc_mul(ev[v], ev[v]), ev[v], f"e_{v}^2 = e_{v}") for v in g.vertices]

    pairs = _escalated(K, idem_pairs)
    verdict = _judge("vertex-idempotent", K, pairs)
    if verdict.status == PASS:
        for v, (_, ev, _) in zip(g.vertices, pairs):
            coeff = ev.body.coefficient(Monomial(g.vertex_path(v), g.vertex_path(v)))
            if coeff != alg.field.one:
                verdict = Verdict(
                    "vertex-idempotent", FAIL, K, verdict.achieved,
                    witness=f"e_{v} does not carry the vertex with coefficient 1",
                )
                break

    def orth_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        return [
            (trunc_mul(ev[v], ev[w]), zero, f"e_{v} e_{w} = 0")
            for v in g.vertices
            for w in g.vertices
            if v != w
        ]

    def nonspecial_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        pairs = []
        for v in g.vertices:
            for e in g.out_edges(v):
                if not special.is_special(e.name):
                    pairs.append(
                        (trunc_mul(ev[v], exact(alg.edge(e.name))), zero, f"e_{v} {e.name} = 0")
                    )
        return pairs

    def shift_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        pairs = []
        for v, name in special.mapping.items():
            e = exact(alg.edge(name))
            w = g.edge(name).dst
            pairs.append((trunc_mul(ev[v], e), trunc_mul(e, ev[w]), f"e_{v} {name} = {name} e_{w}"))
        return pairs

    return [
        verdict,
        _certify("vertex-orthogonal", K, orth_pairs),
        _certify("nonspecial-annihilates", K, nonspecial_pairs),
        _certify("special-shifts", K, shift_pairs),
    ]


def _basic_monomials_between(alg: LeavittAlgebra, v: str, w: str, max_total: int):
    out = []
    for p in alg.graph.paths_from(v, max_total):
        for q in alg.graph.paths_from(w, max_total - len(p)):
            if p.end != q.end:
                continue
            m = Monomial(p, q)
            if alg.is_basic(m):
                out.append(m)
    return sorted(out, key=Monomial.sort_key)


def check_ideal_transfer(alg: LeavittAlgebra, K) -> list[Verdict]:
    """Transfer along special edges and separation across components.

    Separation quantifies over all of the completion, so it is sampled on
    basic monomials up to ``SAMPLE_LEN`` and labeled accordingly.
    """
    K = _require_finite(K)
    g = alg.graph
    special = alg.special
    comps = special.undirected_components()
    comp_of = {v: i for i, S in enumerate(comps) for v in S}

    def transfer_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        pairs = []
        for v, name in special.mapping.items():
            w = g.edge(name).dst
            conj = trunc_mul(trunc_mul(exact(alg.ghost(name)), ev[v]), exact(alg.edge(name)))
            pairs.append((ev[w], conj, f"e_{w} = {name}* e_{v} {name}"))
        return pairs

    def separation_pairs(Kw):
        ev = _vertex_idempotents_at(alg, Kw)
        zero = exact(alg.zero())
        pairs = []
        for v in g.vertices:
            for w in g.vertices:
                if comp_of[v] == comp_of[w]:
                    continue
                for m in _basic_monomials_between(alg, v, w, SAMPLE_LEN):
                    x = trunc_mul(trunc_mul(ev[v], exact(alg.element({m: 1}))), ev[w])
                    pairs.append((x, zero, f"e_{v} ({m}) e_{w} = 0"))
        return pairs

    note = f"sampled over basic monomials of total length <= {SAMPLE_LEN}"
    return [
        _certify("special-transfer", K, transfer_pairs),
        _certify("component-separation", K, separation_pairs, sampled=True, note=note),
    ]


# -- vertex recovery ----------------------------------------------------------


def vertex_recovery(alg: LeavittAlgebra, w: str, K) -> Verdict:
    """Recover a frame vertex from the truncated recovery series.

    Sums the iterates C^i(e) of the recovery operator ``conjugate`` over
    the vertex idempotents e of w's minimal hereditary set.  As e = (1 -
    C)(1), the sum up to n telescopes to 1 - C^{n+1}(1).  The i-th iterate
    only carries terms of order >= 2i, so stopping after ceil(K/2) steps
    leaves a remainder certified beyond K.
    """
    K = _require_finite(K)
    g = alg.graph
    g.check_vertex(w)
    name = f"vertex-recovery[{w}]"
    member = next((W for W in g.frame() if w in W), None)
    if member is None:
        return Verdict(name, REFUSED, K, None, note=f"{w!r} lies in no minimal hereditary set")
    if len(member) == 1 and g.is_sink(w):
        return Verdict(
            name, REFUSED, K, None,
            note=f"{w!r} is a lone sink: e_{w} = {w} holds outright, no series needed",
        )
    refusal = _refuse_frame_finite(alg, name, K)
    if refusal is not None:
        return refusal

    steps = math.ceil(K / 2)
    Kw = max(K + 2, Fraction(2 * (steps + 1)))
    vec = {u: vertex_idempotent(alg, u, Kw) for u in sorted(member)}
    total = vec[w]
    for _ in range(steps):
        vec = {u: conjugate(alg, vec.__getitem__, u, Kw) for u in sorted(member)}
        total = trunc_add(total, vec[w])
    final = truncate(total.body, min(total.prec, Fraction(2 * (steps + 1))))
    pairs = [(final, exact(alg.vertex(w)), f"recovery series sums to {w}")]
    return _judge(name, K, pairs)


# -- decomposition ------------------------------------------------------------


@dataclass
class DecompositionReport:
    frame: list[frozenset]
    components: list[frozenset]
    assignment: dict[frozenset, frozenset]
    idempotents: dict[frozenset, TruncatedElement]
    checks: list[Verdict]

    @property
    def failed(self) -> bool:
        return any(v.failed for v in self.checks)

    def as_json(self) -> dict:
        return {
            "frame": [sorted(W) for W in self.frame],
            "components": [sorted(S) for S in self.components],
            "assignment": {
                format_vertex_set(S): format_vertex_set(W) for S, W in self.assignment.items()
            },
            "idempotents": {
                format_vertex_set(W): t.render() for W, t in self.idempotents.items()
            },
            "checks": [v.as_json() for v in sorted(self.checks, key=lambda v: v.name)],
        }


def decompose(alg: LeavittAlgebra, K) -> DecompositionReport:
    """Match components to frame members and verify the summand algebra.

    Requires a frame-finite specialization.  Emits one truncated arrival
    idempotent per frame member, checks that they are orthogonal and sum
    to the identity, that every component meets exactly one frame member,
    and, for regular specializations, that component and frame counts
    agree.
    """
    K = _require_finite(K)
    report = alg.special.report()
    if not report.frame_finite:
        raise ValueError(
            f"the specialization is not frame-finite ({_cycle_witness(report)}); "
            "no decomposition is attempted"
        )
    g = alg.graph
    frame = g.frame()
    comps = list(alg.special.undirected_components())
    checks: list[Verdict] = []

    assignment: dict[frozenset, frozenset] = {}
    bad = None
    for S in comps:
        hits = [W for W in frame if S & W]
        if len(hits) == 1:
            assignment[S] = hits[0]
        elif bad is None:
            bad = f"component {format_vertex_set(S)} meets {len(hits)} frame members"
    checks.append(Verdict("component-frame-match", FAIL if bad else PASS, witness=bad))

    es: dict[frozenset, TruncatedElement] = {}  # from the attempt that certifies

    def pairs_at(Kw):
        es.update((W, arrival_idempotent(alg, W, Kw)) for W in frame)
        total = exact(alg.zero())
        for W in frame:
            total = trunc_add(total, es[W])
        pairs = [(total, exact(alg.one()), "sum of e(W_i) = 1")]
        zero = exact(alg.zero())
        for i, Wi in enumerate(frame):
            for Wj in frame[i + 1:]:
                for A, B in ((Wi, Wj), (Wj, Wi)):
                    pairs.append(
                        (trunc_mul(es[A], es[B]), zero,
                         f"e({format_vertex_set(A)}) e({format_vertex_set(B)}) = 0")
                    )
        return pairs

    pairs = _escalated(K, pairs_at)
    checks.append(_judge("partition-of-unity", K, pairs[:1]))
    checks.append(_judge("orthogonality", K, pairs[1:]))

    if report.regular:
        ok = len(comps) == len(frame)
        witness = f"components m = {len(comps)}, frame members k = {len(frame)}"
        checks.append(Verdict("regular-component-count", PASS if ok else FAIL, witness=witness))

    shown = {
        W: (t if t.is_exact else truncate(t.body, min(K, t.prec))) for W, t in es.items()
    }
    return DecompositionReport(frame, comps, assignment, shown, checks)


# -- suites -------------------------------------------------------------------


def run_suite(alg: LeavittAlgebra, suite: str, K, order=None) -> list[Verdict]:
    """Run a named verification suite; verdicts come back sorted by name.

    ``order``, if given, reorders the scheduled checks in place (such as
    ``list.reverse``); results are order independent, and tests prove it.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    K = _require_finite(K)
    g = alg.graph
    frame = g.frame()
    V = frozenset(g.vertices)
    targets = frame if V in frame else frame + [V]  # V once, even when a frame member
    thunks = []

    def want(s):
        return suite in ("all", s)

    if want("lemma10"):
        for W in targets:
            thunks.append(lambda W=W: [check_central_idempotent(alg, W, K)])
    if want("lemma14"):
        for W in frame:
            W2 = g.hereditary_complement(g.hereditary_complement(W))
            thunks.append(lambda W=W, W2=W2: [check_collapse(alg, W, W2, K)])
    if want("lemma15"):
        for W in targets:
            thunks.append(lambda W=W: [check_partition(alg, W, K)])
    if want("lemma19"):
        thunks.append(lambda: check_vertex_idempotent_laws(alg, K))
    if want("lemma21"):
        thunks.append(lambda: check_ideal_transfer(alg, K))
    if want("lemma24"):
        for W in frame:
            for w in sorted(W):
                thunks.append(lambda w=w: [vertex_recovery(alg, w, K)])
    if suite == "all":
        def assembly():
            refusal = _refuse_frame_finite(alg, "decomposition", K)
            if refusal is not None:
                return [refusal]
            return decompose(alg, K).checks

        thunks.append(assembly)

    if order is not None:
        order(thunks)
    verdicts: list[Verdict] = []
    for thunk in thunks:
        verdicts.extend(thunk())
    return sorted(verdicts, key=lambda v: v.name)
