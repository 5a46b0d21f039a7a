import random

import pytest

from leavitt import (
    LeavittAlgebra,
    Specialization,
    check_central_idempotent,
    check_collapse,
    check_ideal_transfer,
    check_partition,
    check_vertex_idempotent_laws,
    construct_regular,
    decompose,
    run_suite,
    vertex_idempotent,
    vertex_recovery,
)
from leavitt.structure import _conjugation_step

from conftest import (
    CORPUS,
    conjugation_step_by_normal_form,
    load_graph,
    random_graph,
    random_specialization,
)


def corpus_algebra(name):
    g = load_graph(name)
    return LeavittAlgebra(construct_regular(g))


def test_central_idempotent_examples(alg_a, alg_b):
    gl = corpus_algebra("loop")
    v = check_central_idempotent(gl, {"v"}, 4)
    assert v.status == "pass"
    assert check_central_idempotent(alg_b, {"w"}, 4).status == "pass"
    # centrality does not need frame-finiteness
    assert check_central_idempotent(alg_a, {"w"}, 4).status == "pass"
    refused = check_central_idempotent(alg_b, {"v"}, 4)
    assert refused.status == "refused"


def test_partition_examples(alg_a, alg_b):
    g3 = corpus_algebra("g3")
    assert check_partition(g3, {"b"}, 4).status == "pass"
    assert check_partition(g3, set(g3.graph.vertices), 4).status == "pass"
    refused = check_partition(alg_a, {"w"}, 4)
    assert refused.status == "refused"
    assert "special cycle" in refused.witness
    assert check_partition(alg_b, {"w"}, 4).status == "pass"


def test_collapse_examples(alg_b):
    assert check_collapse(alg_b, {"w"}, {"v", "w"}, 4).status == "pass"
    assert check_collapse(alg_b, {"w"}, {"w"}, 4).status == "pass"
    g3 = corpus_algebra("g3")
    W = frozenset({"b"})
    W2 = g3.graph.hereditary_complement(g3.graph.hereditary_complement(W))
    assert W2 == {"a", "b"}
    assert check_collapse(g3, W, W2, 4).status == "pass"


def test_collapse_refusals(alg_a, alg_b):
    assert check_collapse(alg_a, {"w"}, {"v", "w"}, 4).status == "refused"
    v = check_collapse(alg_b, {"v", "w"}, {"w"}, 4)
    assert v.status == "refused" and "not contained" in v.note
    g3 = corpus_algebra("g3")
    v = check_collapse(g3, {"b"}, {"b", "c"}, 4)
    assert v.status == "refused" and "no descendant" in v.note


def test_vertex_idempotent_laws_corpus():
    for name in CORPUS:
        alg = corpus_algebra(name)
        for v in check_vertex_idempotent_laws(alg, 4):
            assert v.status == "pass", (name, v)
        for v in check_ideal_transfer(alg, 4):
            assert v.status in ("pass", "sampled-pass"), (name, v)


def test_vertex_idempotent_laws_loop_special(alg_a):
    for v in check_vertex_idempotent_laws(alg_a, 6):
        assert v.status == "pass", v
    for v in check_ideal_transfer(alg_a, 6):
        assert v.status in ("pass", "sampled-pass"), v


def test_vertex_recovery_examples():
    two = corpus_algebra("twocycle")
    assert vertex_recovery(two, "a", 4).status == "pass"
    rose = corpus_algebra("rose2")
    assert vertex_recovery(rose, "v", 4).status == "pass"
    y = corpus_algebra("y")
    refused = vertex_recovery(y, "b", 4)
    assert refused.status == "refused" and "lone sink" in refused.note
    refused = vertex_recovery(y, "a", 4)
    assert refused.status == "refused" and "no minimal hereditary" in refused.note


def test_conjugation_step_needs_no_normal_form():
    # wrapping basic monomials in walk(k) f with f non-special keeps them
    # basic, so the recovery operator's terms equal their normal form; the
    # vectors iterate the operator from the vertex idempotents, as
    # vertex_recovery does, on the corpus and on seeded random graphs
    rng = random.Random(31)
    algebras = [corpus_algebra(name) for name in CORPUS]
    for _ in range(60):
        g = random_graph(rng, max_vertices=6)
        algebras += [LeavittAlgebra(random_specialization(rng, g)),
                     LeavittAlgebra(construct_regular(g))]
    steps = 0
    for alg in algebras:
        for W in alg.graph.frame():
            Kw = 7
            vec = {u: vertex_idempotent(alg, u, Kw) for u in sorted(W)}
            for _ in range(3):
                got = _conjugation_step(alg, W, vec, Kw)
                want = conjugation_step_by_normal_form(alg, W, vec, Kw)
                assert {w: (t.body, t.prec) for w, t in got.items()} == {
                    w: (t.body, t.prec) for w, t in want.items()}
                assert all(alg.is_basic(m) for t in got.values() for m in t.body.terms)
                steps += any(t.body.terms for t in got.values())
                vec = got
    assert steps > 100, steps


def test_vertex_recovery_requires_frame_finite(alg_a):
    # {w} is a sink member on the two-vertex graph, so force the loop case
    rose = load_graph("rose2")
    s = Specialization(rose, {"v": "e"})
    alg = LeavittAlgebra(s)
    assert vertex_recovery(alg, "v", 4).status == "pass"


def test_decompose_y():
    alg = corpus_algebra("y")
    rep = decompose(alg, 4)
    assert [sorted(W) for W in rep.frame] == [["b"], ["c"]]
    assert [sorted(S) for S in rep.components] == [["a", "b"], ["c"]]
    assert rep.assignment[frozenset({"a", "b"})] == frozenset({"b"})
    assert rep.assignment[frozenset({"c"})] == frozenset({"c"})
    assert not rep.failed
    names = {v.name: v.status for v in rep.checks}
    assert names["component-frame-match"] == "pass"
    assert names["partition-of-unity"] == "pass"
    assert names["orthogonality"] == "pass"
    assert names["regular-component-count"] == "pass"


def test_decompose_loop_and_toeplitz(alg_b):
    rep = decompose(corpus_algebra("loop"), 4)
    assert len(rep.frame) == 1 and len(rep.components) == 1
    rep = decompose(alg_b, 4)
    assert len(rep.frame) == 1 and len(rep.components) == 1
    assert not rep.failed


def test_decompose_rejects_non_frame_finite(alg_a):
    with pytest.raises(ValueError, match="not frame-finite"):
        decompose(alg_a, 4)


def test_components_walk_into_assigned_frame_member():
    # with a regular specialization, component and frame counts agree and
    # the special walk from every component vertex lands in the assigned
    # frame member
    for name in CORPUS:
        alg = corpus_algebra(name)
        rep = decompose(alg, 3)
        assert len(rep.components) == len(rep.frame), name
        for S, W in rep.assignment.items():
            for v in S:
                assert alg.special.orbit_vertices(v) & W, (name, v)


def test_monotone_in_precision(alg_b):
    # a check passing at K passes at every lower level
    for K in (2, 3, 4):
        assert check_partition(alg_b, {"w"}, K).status == "pass"
    r6 = check_central_idempotent(alg_b, {"w"}, 6)
    r3 = check_central_idempotent(alg_b, {"w"}, 3)
    assert r6.status == "pass" and r3.status == "pass"
    assert r6.achieved >= 6 and r3.achieved >= 3


def test_residual_growth(alg_a):
    # doubling the requested level doubles the certified residual order
    for K in (3, 4):
        lo = check_central_idempotent(alg_a, {"w"}, K)
        hi = check_central_idempotent(alg_a, {"w"}, 2 * K)
        assert lo.status == hi.status == "pass"
        assert (2 * K - 1) >= 2 * (K - 1)


def test_run_suite_order_independent(alg_b):
    base = run_suite(alg_b, "all", 3)
    assert len(base) == 16
    shuffled = run_suite(alg_b, "all", 3, order=random.Random(99).shuffle)
    assert [v.as_json() for v in base] == [v.as_json() for v in shuffled]


def test_run_suite_names_unique(alg_a, alg_b):
    # loop, rose2 and twocycle have V itself as a frame member
    algebras = [corpus_algebra(name) for name in CORPUS] + [alg_a, alg_b]
    for alg in algebras:
        verdicts = run_suite(alg, "all", 3)
        names = [v.name for v in verdicts]
        assert len(names) == len(set(names)), alg
        assert names == sorted(names)
        assert run_suite(alg, "all", 3, order=list.reverse) == verdicts


def test_run_suite_refusals_not_failures(alg_a):
    verdicts = run_suite(alg_a, "all", 3)
    assert any(v.status == "refused" for v in verdicts)
    assert not any(v.failed and v.status != "refused" for v in verdicts)


def test_unknown_suite(alg_b):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(alg_b, "lemma99", 3)
