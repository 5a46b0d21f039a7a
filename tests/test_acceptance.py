"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact arithmetic; there are no floating tolerances.
Congruence checks follow the one-unit slack discipline: a pass at level K
certifies every residual basis term at order K - 1 or better.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from leavitt import (
    LeavittAlgebra,
    Monomial,
    Specialization,
    arrival_idempotent,
    check_partition,
    cli,
    construct_regular,
    decompose,
    equal_mod,
    exact,
    min_order,
    order_of,
    product_precision,
    run_suite,
    vertex_recovery,
)

from conftest import (
    CORPUS,
    load_graph,
    minimal_hereditary_bruteforce,
    normal_by_worklist,
    random_element,
    random_graph,
    random_monomial,
    suite_all_in_order,
)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def regular_algebra(name):
    g = load_graph(name)
    return LeavittAlgebra(construct_regular(g))


def test_criterion_01_discrete_topology_on_loop():
    # every basis monomial of total length <= 40 has order < 1, so the
    # filtration stage at any level >= 1 misses the basis entirely
    g = load_graph("loop")
    alg = regular_algebra("loop")
    checked = 0
    for i in range(41):
        for j in range(41 - i):
            m = Monomial(g.path("v", ("c",) * i), g.path("v", ("c",) * j))
            if alg.is_basic(m):
                assert order_of(alg.special, m) < 1, (i, j)
                checked += 1
    assert checked > 40
    _report(1, f"all {checked} basis monomials up to total length 40 have order < 1")


def test_criterion_02_toeplitz_matrix_units(alg_a):
    g = alg_a.graph

    def unit_element(i, j):
        p = g.path("v", ("e",) * i + ("f",))
        q = g.path("v", ("e",) * j + ("f",))
        return alg_a.element({Monomial(p, q): 1})

    def unit_product(a, b):
        # independent calculus: E_ab E_cd = delta_bc E_ad on index pairs
        (i, j), (k, l) = a, b
        return (i, l) if j == k else None

    units = {(i, j): unit_element(i, j) for i in range(7) for j in range(7)}
    count = 0
    for a in units:
        for b in units:
            expected = unit_product(a, b)
            got = units[a] * units[b]
            if expected is None:
                assert got.is_zero, (a, b)
            else:
                assert got == units[expected], (a, b)
            count += 1
    _report(2, f"{count} monomial products match the matrix-unit calculus exactly")


def test_criterion_03_rewriting_soundness(alg_a, alg_b):
    rng = random.Random(203)
    reductions = 0
    for _ in range(1000):
        alg = alg_a if rng.random() < 0.5 else alg_b
        g = alg.graph
        raw = {}
        for _ in range(rng.randint(1, 3)):
            m = random_monomial(rng, alg, max_len=3)
            suffix = []
            at = m.left.end
            for _ in range(rng.randint(1, 3)):
                name = alg.special.mapping.get(at)
                if name is None:
                    break
                suffix.append(name)
                at = g.edge(name).dst
            left = g.concat(m.left, g.path(m.left.end, suffix))
            right = g.concat(m.right, g.path(m.right.end, suffix))
            raw[Monomial(left, right)] = Fraction(rng.randint(-3, 3))
        assert alg._normal(raw.items()) == normal_by_worklist(
            alg, dict(raw), chooser=lambda n: rng.randrange(n)
        )
        reductions += 1
    one = alg_a.one()
    for _ in range(200):
        a = random_element(rng, alg_a)
        b = random_element(rng, alg_a)
        c = random_element(rng, alg_a)
        assert (a * b) * c == a * (b * c)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a
        assert a * one == a and one * a == a
    _report(3, f"{reductions} randomized reductions agree; ring and involution "
               "axioms hold exactly on 200 random triples")


def _random_pair_of_order(rng, alg, k):
    g = alg.graph
    while True:
        lp = rng.randint(5, 12)
        p = g.vertex_path(rng.choice(g.vertices))
        for _ in range(lp):
            out = g.out_edges(p.end)
            if not out:
                break
            p = g.extend(p, rng.choice(out))
        q = g.vertex_path(p.start)
        for _ in range(max(0, len(p) + rng.randint(-1, 1))):
            out = g.out_edges(q.end)
            if not out:
                break
            q = g.extend(q, rng.choice(out))
        if p.end != q.end:
            continue
        m = Monomial(p, q)
        if order_of(alg.special, m) >= k:
            return m


def test_criterion_04_filtration_bounds():
    rng = random.Random(204)
    rose = regular_algebra("rose2")
    for k in (3, 5, 9):
        for _ in range(200):
            m1 = _random_pair_of_order(rng, rose, k)
            m2 = _random_pair_of_order(rng, rose, k)
            prod = rose.element({m1: 1}) * rose.element({m2: 1})
            for term in prod.terms:
                assert order_of(rose.special, term) >= Fraction(k - 1, 2) - 1
    # closed-form revalidation against the sampling oracle, corpus-wide
    for name in CORPUS:
        alg = regular_algebra(name)
        g, special = alg.graph, alg.special
        monomials = [
            Monomial(p, q)
            for v in g.vertices
            for p in g.paths_from(v, 2)
            for q in g.paths_from(v, 2)
            if p.end == q.end
        ]
        tails = []
        for _ in range(4000):
            t = random_monomial(rng, alg, max_len=8)
            if order_of(special, t) >= 5:
                tails.append(t)
            if len(tails) >= 25:
                break
        for t in tails:
            te = alg.element({t: 1})
            for m in monomials:
                me = alg.element({m: 1})
                promised = product_precision(special, 5, m) - 1
                for prod in (te * me, me * te):
                    for term in prod.terms:
                        assert order_of(special, term) >= promised, (name, m, t)
    _report(4, "sampled tail products respect the level bounds; the "
               "product-precision closed form revalidates on the corpus")


def test_criterion_05_frame_oracle():
    for name in CORPUS:
        g = load_graph(name)
        assert g.frame() == minimal_hereditary_bruteforce(g), name
    rng = random.Random(205)
    for _ in range(100):
        g = random_graph(rng, max_vertices=7)
        assert g.frame() == minimal_hereditary_bruteforce(g)
    _report(5, "frame agrees with brute-force hereditary enumeration on the "
               "corpus and 100 random graphs")


def test_criterion_06_idempotent_suite(alg_a, alg_b):
    K = 6
    suites = ("lemma10", "lemma14", "lemma15", "lemma19", "lemma21")
    total = 0
    for name in CORPUS:
        alg = regular_algebra(name)
        for suite in suites:
            for v in run_suite(alg, suite, K):
                assert v.status in ("pass", "sampled-pass"), (name, suite, v)
                assert v.achieved >= K, (name, suite, v)
                total += 1
    # frame-approach choice on the two-vertex graph
    for suite in suites:
        for v in run_suite(alg_b, suite, K):
            assert v.status in ("pass", "sampled-pass"), (suite, v)
            assert v.achieved >= K
            total += 1
    # the loop-special choice still passes the suites that need no
    # frame-finiteness
    for suite in ("lemma10", "lemma19", "lemma21"):
        for v in run_suite(alg_a, suite, K):
            assert v.status in ("pass", "sampled-pass"), (suite, v)
            assert v.achieved >= K
            total += 1
    _report(6, f"{total} checks pass at level {K} with certified residual "
               f"order >= {K - 1}")


def test_criterion_07_frame_finiteness_necessity(alg_a):
    refused = check_partition(alg_a, {"w"}, 4)
    assert refused.status == "refused"
    assert "special cycle" in refused.witness
    ew = arrival_idempotent(alg_a, {"w"}, 2)
    one = exact(alg_a.one())
    assert not equal_mod(ew, one, 2)
    residual = min_order(ew.body - one.body)
    assert residual < 1
    _report(7, "loop-special partition is refused and the direct congruence "
               f"e({{w}}) = 1 fails at level 2 (residual order {residual})")


def test_criterion_08_vertex_recovery():
    results = []
    for name, W in (("twocycle", {"a", "b"}), ("rose2", {"v"})):
        alg = regular_algebra(name)
        for K in (4, 8):
            for w, v in zip(sorted(W), vertex_recovery(alg, W, K)):
                assert v.status == "pass", (name, w, K, v)
                assert v.achieved >= K
                results.append((name, w, K))
        # certified residual order is K - 1; doubling K at least doubles it
        assert (8 - 1) >= 2 * (4 - 1)
    _report(8, f"recovery series passes at levels 4 and 8 for {results}")


def test_criterion_09_assembly():
    K = 4
    for name in CORPUS:
        alg = regular_algebra(name)
        rep = decompose(alg, K)
        assert len(rep.components) == len(rep.frame), name
        assert len(rep.assignment) == len(rep.components), name
        statuses = {v.name: v.status for v in rep.checks}
        assert statuses["partition-of-unity"] == "pass", name
        assert statuses["orthogonality"] == "pass", name
        assert statuses["component-frame-match"] == "pass", name
        assert statuses["regular-component-count"] == "pass", name
    rep = decompose(regular_algebra("y"), K)
    assert rep.assignment[frozenset({"a", "b"})] == frozenset({"b"})
    assert rep.assignment[frozenset({"c"})] == frozenset({"c"})
    _report(9, "every corpus decomposition matches its frame, including the "
               "hand-derived Y-graph assignment")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def test_criterion_10_cli_determinism(monkeypatch):
    import pathlib

    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    commands = [
        ["frame", "data/y.json"],
        ["verify", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
         "--prec", "4", "--suite", "all", "--json"],
        ["decompose", "--graph", "data/y.json", "--auto-regular", "--prec", "4",
         "--json"],
    ]
    for argv in commands:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        assert (code1, out1.encode()) == (code2, out2.encode())
    # report assembly is independent of check execution order
    alg = LeavittAlgebra(
        Specialization.load(load_graph("toeplitz"), "data/gammaB.json")
    )
    base = [v.as_json() for v in run_suite(alg, "all", 3)]
    rng = random.Random(210)
    for _ in range(3):
        shuffled = [v.as_json() for v in suite_all_in_order(alg, 3, rng.shuffle)]
        assert json.dumps(shuffled, sort_keys=True) == json.dumps(base, sort_keys=True)
    _report(10, "CLI output is byte-identical across runs and check orderings")
