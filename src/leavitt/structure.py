"""Theorem-level verifiers over the truncated completion.

Every check produces a ``Verdict`` with a three-valued outcome: ``pass``,
``fail``, or ``refused`` when a precondition is unmet (``sampled-pass``
marks a passing check whose statement was only sampled).  A check never
silently degrades: the working precision of the inputs is escalated until
the product-precision bookkeeping certifies the requested level, and the
verdict records the precision actually achieved.  A round at working
precision Kw builds only the operands that depend on Kw: edges and sampled
monomials are made once per check call, and the laws of one lemma 19 or
lemma 21 check share one map of e_v per Kw.  Congruences
follow the one-unit slack discipline of ``equal_mod``: a pass at level K
certifies that every residual basis term has order at least K - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce

from .algebra import LeavittAlgebra, Monomial
from .completion import (
    TruncatedElement,
    _minus_slack,
    arrival_idempotent,
    conjugate,
    equal_mod,
    exact,
    trunc_add,
    trunc_mul,
    truncate,
    unwrap,
    vertex_idempotent,
)
from .filtration import INF, Order, as_order, format_order, least_level, min_order
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
    if K is INF:
        raise ValueError("checks need a finite precision level")
    return K


def _achieved_of(pairs) -> Order:
    return reduce(least_level, (t.prec for lhs, rhs, _ in pairs for t in (lhs, rhs)), INF)


def _escalated(requested: Fraction, pairs_at):
    """The (lhs, rhs, label) pairs ``pairs_at(Kw)`` at the first of the
    doubling working precisions Kw whose pairs certify the requested level."""
    Kw = 2 * requested + 3
    for _ in range(24):
        pairs = pairs_at(Kw)
        achieved = _achieved_of(pairs)
        if achieved is INF or achieved >= requested:
            return pairs
        Kw *= 2
    raise RuntimeError("working-precision escalation failed to converge")


def _judge(name: str, K: Fraction, pairs, sampled=False, note=None) -> Verdict:
    achieved = _achieved_of(pairs)
    for lhs, rhs, label in pairs:
        if not equal_mod(lhs, rhs, K):
            # equal_mod saw a term below K - 1, so the least order of the
            # difference read below that level is the least order of all of it
            level = _minus_slack(K)
            residual = min_order(lhs.below(level) - rhs.below(level))
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
    """e(W) is idempotent and commutes with every generator.

    Only e(W)^2 and the edges are checked.  A vertex v commutes exactly
    with every diagonal D, as v D and D v are both the sum of c_x x x* over
    the x that start at v; and trunc_mul gives v e(W) the precision of
    e(W)^2, as both operands are diagonal.  A sum of projections has
    D* = D, so e* D - D e* = -(e D - D e)*.  The involution keeps n, s and
    d, so it keeps every order and product precision: the ghost pair of e
    holds exactly when the pair of e does, at the same precision.
    """
    K = _require_finite(K)
    W = frozenset(W)
    name = f"central-idempotent[{format_vertex_set(W)}]"
    refusal = _refuse_not_hereditary(alg, name, K, W)
    if refusal is not None:
        return refusal
    edges = [(e.name, exact(alg.edge(e.name))) for e in alg.graph.edges]

    def pairs_at(Kw):
        eW = arrival_idempotent(alg, W, Kw)
        return [(trunc_mul(eW, eW), eW, "e(W)^2 = e(W)")] + [
            (trunc_mul(x, eW), trunc_mul(eW, x), f"{label} commutes with e(W)")
            for label, x in edges
        ]

    return _certify(name, K, pairs_at)


def check_partition(alg: LeavittAlgebra, W, K) -> Verdict:
    """e(W) and e(W-perp) are orthogonal and sum to the identity.

    Both are diagonal, and diagonal products commute at a precision
    symmetric in the operands, so e(W) e(W-perp) = 0 stands for both orders.
    """
    K = _require_finite(K)
    W = frozenset(W)
    name = f"partition[{format_vertex_set(W)}]"
    refusal = _refuse_not_hereditary(alg, name, K, W) or _refuse_frame_finite(alg, name, K)
    if refusal is not None:
        return refusal
    Wp = alg.graph.hereditary_complement(W)
    zero = exact(alg.zero())
    one = exact(alg.one())

    def pairs_at(Kw):
        eW = arrival_idempotent(alg, W, Kw)
        eWp = arrival_idempotent(alg, Wp, Kw) if Wp else zero
        return [
            (trunc_mul(eW, eWp), zero, "e(W) e(W^perp) = 0"),
            (trunc_add(eW, eWp), one, "e(W) + e(W^perp) = 1"),
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


def _law_pairs(ev_at, law, Kw):
    """The (lhs, rhs, label) pairs of a law of the e_v at Kw.

    A law lists (lhs, rhs, label), each side a word of factors: a vertex v
    stands for e_v in the map ``ev_at(Kw)``, and any other factor is a
    truncated element that does not depend on Kw, made once per check call.
    Each side is the product of its word, left to right.  The laws of one
    call share ``ev_at``, a cache that builds one map per Kw.
    """
    ev = ev_at(Kw)

    def side(word):
        return reduce(trunc_mul, [ev[x] if isinstance(x, str) else x for x in word])

    return [(side(lhs), side(rhs), label) for lhs, rhs, label in law]


def check_vertex_idempotent_laws(alg: LeavittAlgebra, K) -> list[Verdict]:
    """The defining laws of the limit idempotents e_v.

    Covers: e_v is a nonzero idempotent, distinct e_v are orthogonal,
    non-special edges out of v are annihilated, and the special edge
    shifts e_v one step along the walk.  The e_v are diagonal, and diagonal
    products commute at a precision symmetric in the operands, so
    orthogonality checks e_v e_w for v < w only.
    """
    K = _require_finite(K)
    g = alg.graph
    V = g.vertices
    special = alg.special
    zero = exact(alg.zero())
    edge = {e.name: exact(alg.edge(e.name)) for e in g.edges}
    ev_at = cache(lambda Kw: {v: vertex_idempotent(alg, v, Kw) for v in g.vertices})

    idempotent = [((v, v), (v,), f"e_{v}^2 = e_{v}") for v in V]
    pairs = _escalated(K, partial(_law_pairs, ev_at, idempotent))
    verdict = _judge("vertex-idempotent", K, pairs)
    if verdict.status == PASS:
        for v, (_, ev, _) in zip(V, pairs):
            # the vertex v has order 0, so the read below 1 holds its term
            coeff = ev.below(1).coefficient(Monomial(g.vertex_path(v), g.vertex_path(v)))
            if coeff != alg.field.one:
                verdict = Verdict(
                    "vertex-idempotent", FAIL, K, verdict.achieved,
                    witness=f"e_{v} does not carry the vertex with coefficient 1",
                )
                break

    special_edges = [(v, g.edge(name)) for v, name in special.mapping.items()]
    laws = {
        "vertex-orthogonal": [((v, w), (zero,), f"e_{v} e_{w} = 0")
                              for v in V for w in V if v < w],
        "nonspecial-annihilates": [((v, edge[e.name]), (zero,), f"e_{v} {e.name} = 0")
                                   for v in V for e in g.out_edges(v)
                                   if not special.is_special(e.name)],
        "special-shifts": [((v, edge[e.name]), (edge[e.name], e.dst),
                            f"e_{v} {e.name} = {e.name} e_{e.dst}") for v, e in special_edges],
    }
    return [verdict] + [_certify(name, K, partial(_law_pairs, ev_at, law))
                        for name, law in laws.items()]


def _basic_monomials_between(alg: LeavittAlgebra, v: str, w: str, max_total: int):
    out = []
    for p in alg.graph.paths_from(v, max_total):
        for q in alg.graph.paths_from(w, max_total - len(p.edges)):
            if p.end != q.end:
                continue
            m = Monomial(p, q)
            if alg.is_basic(m):
                out.append(m)
    return sorted(out, key=Monomial.sort_key)


def check_ideal_transfer(alg: LeavittAlgebra, K) -> list[Verdict]:
    """Transfer along special edges and separation across components.

    Separation quantifies over all of the completion, so it is sampled on
    basic monomials up to ``SAMPLE_LEN`` and labeled accordingly.  It
    keeps both orders of each pair of vertices: (e_v m e_w)* = e_w m* e_v,
    but trunc_mul fixes precision left to right, so the two products'
    precisions differ when just one of e_v and e_w is exact, and dropping
    either order could change the achieved level.
    """
    K = _require_finite(K)
    g = alg.graph
    special = alg.special
    comps = special.undirected_components()
    comp_of = {v: i for i, S in enumerate(comps) for v in S}
    zero = exact(alg.zero())
    ev_at = cache(lambda Kw: {v: vertex_idempotent(alg, v, Kw) for v in g.vertices})
    transfer = [(v, name, g.edge(name).dst) for v, name in special.mapping.items()]

    def transfer_at(Kw):  # e* e_v e by prefix shift, forming no product
        ev = ev_at(Kw)
        return [(ev[w], unwrap(ev[v], name), f"e_{w} = {name}* e_{v} {name}")
                for v, name, w in transfer]

    separation = [
        ((v, exact(alg.element({m: 1})), w), (zero,), f"e_{v} ({m}) e_{w} = 0")
        for v in g.vertices
        for w in g.vertices
        if comp_of[v] != comp_of[w]
        for m in _basic_monomials_between(alg, v, w, SAMPLE_LEN)
    ]
    note = f"sampled over basic monomials of total length <= {SAMPLE_LEN}"
    return [
        _certify("special-transfer", K, transfer_at),
        _certify("component-separation", K, partial(_law_pairs, ev_at, separation),
                 sampled=True, note=note),
    ]


# -- vertex recovery ----------------------------------------------------------


def vertex_recovery(alg: LeavittAlgebra, W, K) -> list[Verdict]:
    """Recover each vertex of the frame member W from one truncated series.

    Lemma 24 sums the iterates C^i(e) of the recovery operator ``conjugate``
    over the vector e of W's vertex idempotents, indexed by W (hereditary).
    As e = (1 - C)(1), the sum up to n is 1 - C^{n+1}(1), where C^{n+1}(1)
    has order >= 2(n + 1).  So steps = ceil(K/2) iterations leave out only
    order >= Kw = 2(steps + 1) >= K + 2, and each entry carries precision
    Kw and certifies K.  Since the series telescopes in any evaluation
    order, the verdict is a consistency check of that construction of e and
    of ``conjugate``'s truncation.  Returns one verdict per vertex of W, in
    vertex order.

    C is linear, so the sum is evaluated by Horner's rule: h_0 = e and
    h_j = e + C(h_{j-1}) to order 2(j + 1).  Every term of e, and so of
    each h_j, is a projection p p*, the domain of ``conjugate``, whose
    contract gives each wrap a term of order at least 2 more; so C(h_{j-1})
    to order 2(j + 1) needs h_{j-1} only to order 2j, passed as exact.
    """
    K = _require_finite(K)
    g = alg.graph
    W = frozenset(W)
    if W not in g.frame():
        raise ValueError(f"{format_vertex_set(W)} is not a minimal hereditary set")
    vertices = sorted(W)
    names = [f"vertex-recovery[{w}]" for w in vertices]
    w, *rest = vertices
    if not rest and g.is_sink(w):
        note = f"{w!r} is a lone sink: e_{w} = {w} holds outright, no series needed"
        return [Verdict(names[0], REFUSED, K, None, note=note)]
    refusals = [_refuse_frame_finite(alg, name, K) for name in names]
    if refusals[0] is not None:
        return refusals

    steps = math.ceil(K / 2)
    e = {u: vertex_idempotent(alg, u, 2 * (steps + 1)) for u in vertices}
    h = e
    for j in range(1, steps + 1):
        low = {u: truncate(h[u].body, 2 * j).body for u in vertices}
        h = {u: trunc_add(e[u], conjugate(alg, low, u, 2 * (j + 1)))
             for u in vertices}
    return [
        _judge(name, K, [(h[w], exact(alg.vertex(w)), f"recovery series sums to {w}")])
        for name, w in zip(names, vertices)
    ]


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
    agree.  The e(W) are diagonal, and diagonal products commute at a
    precision symmetric in the operands, so orthogonality checks
    e(W_i) e(W_j) for i < j only.
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
    zero = exact(alg.zero())
    one = exact(alg.one())

    def pairs_at(Kw):
        es.update((W, arrival_idempotent(alg, W, Kw)) for W in frame)
        total = reduce(trunc_add, (es[W] for W in frame), zero)
        pairs = [(total, one, "sum of e(W_i) = 1")]
        for i, Wi in enumerate(frame):
            pairs += [(trunc_mul(es[Wi], es[Wj]), zero,
                       f"e({format_vertex_set(Wi)}) e({format_vertex_set(Wj)}) = 0")
                      for Wj in frame[i + 1:]]
        return pairs

    pairs = _escalated(K, pairs_at)
    checks.append(_judge("partition-of-unity", K, pairs[:1]))
    checks.append(_judge("orthogonality", K, pairs[1:]))

    if report.regular:
        ok = len(comps) == len(frame)
        witness = f"components m = {len(comps)}, frame members k = {len(frame)}"
        checks.append(Verdict("regular-component-count", PASS if ok else FAIL, witness=witness))

    shown = {
        W: (t if t.is_exact else TruncatedElement(alg, min(K, t.prec), t.below))
        for W, t in es.items()
    }
    return DecompositionReport(frame, comps, assignment, shown, checks)


# -- suites -------------------------------------------------------------------


def run_suite(alg: LeavittAlgebra, suite: str, K) -> list[Verdict]:
    """Run a named verification suite; verdicts come back sorted by name."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    K = _require_finite(K)
    g = alg.graph
    frame = g.frame()
    V = frozenset(g.vertices)
    targets = frame if V in frame else frame + [V]  # V once, even when a frame member
    verdicts: list[Verdict] = []
    if suite in ("all", "lemma10"):
        verdicts += [check_central_idempotent(alg, W, K) for W in targets]
    if suite in ("all", "lemma14"):
        for W in frame:
            W2 = g.hereditary_complement(g.hereditary_complement(W))
            verdicts.append(check_collapse(alg, W, W2, K))
    if suite in ("all", "lemma15"):
        verdicts += [check_partition(alg, W, K) for W in targets]
    if suite in ("all", "lemma19"):
        verdicts += check_vertex_idempotent_laws(alg, K)
    if suite in ("all", "lemma21"):
        verdicts += check_ideal_transfer(alg, K)
    if suite in ("all", "lemma24"):
        for W in frame:
            verdicts += vertex_recovery(alg, W, K)
    if suite == "all":
        refusal = _refuse_frame_finite(alg, "decomposition", K)
        verdicts += [refusal] if refusal is not None else decompose(alg, K).checks
    return sorted(verdicts, key=lambda v: v.name)
