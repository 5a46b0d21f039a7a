import random
from fractions import Fraction

import pytest

from leavitt import (
    INF,
    LeavittAlgebra,
    Monomial,
    QQ,
    PrimeField,
    construct_regular,
    min_order,
    order_of,
    params_of,
    parse,
    product_precision,
)
from leavitt.filtration import order_key

from conftest import load_graph, random_graph, random_monomial, random_specialization


def test_order_examples(alg_a, gamma_a):
    g = alg_a.graph
    v = Monomial(g.vertex_path("v"), g.vertex_path("v"))
    assert order_of(gamma_a, v) == 0
    for k in range(5):
        p = g.path("v", ("e",) * k + ("f",))
        assert order_of(gamma_a, Monomial(p, p)) == 2 * k + 2


def test_order_loop():
    g = load_graph("loop")
    s = construct_regular(g)
    m = Monomial(g.path("v", ("c", "c")), g.vertex_path("v"))
    assert order_of(s, m) == Fraction(2, 5)


def test_params(gamma_b, toeplitz):
    g = toeplitz
    m = Monomial(g.path("v", ("e", "f")), g.path("v", ("f",)))
    n, s, d = params_of(gamma_b, m)
    assert (n, s, d) == (3, 2, 1)


def test_order_invariant_under_involution(alg_b, gamma_b):
    rng = random.Random(4)
    for _ in range(200):
        m = random_monomial(rng, alg_b, max_len=5)
        assert order_of(gamma_b, m) == order_of(gamma_b, m.star())


def test_min_order(alg_a):
    assert min_order(alg_a.zero()) == INF
    assert min_order(parse(alg_a, "v - f f*")) == 0
    assert min_order(parse(alg_a, "e f f* e*")) == 4


def test_product_precision_examples(gamma_a, toeplitz):
    g = toeplitz
    v = Monomial(g.vertex_path("v"), g.vertex_path("v"))
    assert product_precision(gamma_a, 7, v) == 3
    assert product_precision(gamma_a, 0, v) == 0
    assert product_precision(gamma_a, INF, v) == INF
    # a pure path of non-special edges of length d has n0 = d0 = d, s0 = 0
    rose = load_graph("rose2")
    s = construct_regular(rose)  # e special, f not
    for d in (1, 2, 3):
        m = Monomial(rose.path("v", ("f",) * d), rose.vertex_path("v"))
        _, special_sum, _ = params_of(s, m)
        assert special_sum == 0
        assert product_precision(s, 5, m) == min(
            Fraction(2), Fraction(5, 2 * (d + 1))
        )


def _sample_high_order(rng, alg, k, tries=4000):
    out = []
    for _ in range(tries):
        m = random_monomial(rng, alg, max_len=8)
        if order_of(alg.special, m) >= k:
            out.append(m)
        if len(out) >= 40:
            break
    return out


def _corpus_algebras():
    out = []
    for name in ("toeplitz", "rose2", "twocycle", "line", "y", "loop", "g3"):
        g = load_graph(name)
        out.append((name, LeavittAlgebra(construct_regular(g))))
    return out


def test_product_precision_sampling_oracle():
    # anti-regression gate for the closed form: multiply sampled tails of
    # order >= k by every short corpus monomial and confirm each normal-form
    # product term clears the promised order minus the rewriting slack
    rng = random.Random(71)
    for name, alg in _corpus_algebras():
        g, special = alg.graph, alg.special
        monomials = []
        for v in g.vertices:
            for p in g.paths_from(v, 2):
                for q in g.paths_from(v, 2):
                    if p.end == q.end:
                        monomials.append(Monomial(p, q))
        for k in (2, 5, 9):
            tails = _sample_high_order(rng, alg, k)
            for t in tails:
                te = alg.element({t: 1})
                for m in monomials:
                    me = alg.element({m: 1})
                    promised = product_precision(special, k, m) - 1
                    for prod in (te * me, me * te):
                        for term in prod.terms:
                            assert order_of(special, term) >= promised, (
                                name, k, str(t), str(m), str(term),
                            )


def test_tail_times_tail_bound():
    # products of two tails of order >= k keep order (k-1)/2 - 1
    rng = random.Random(72)
    for name, alg in _corpus_algebras():
        if name not in ("toeplitz", "rose2", "twocycle"):
            continue
        for k in (3, 5, 9):
            tails = _sample_high_order(rng, alg, k)
            rng.shuffle(tails)
            pairs = list(zip(tails[::2], tails[1::2]))
            for t1, t2 in pairs:
                prod = alg.element({t1: 1}) * alg.element({t2: 1})
                for term in prod.terms:
                    assert order_of(alg.special, term) >= Fraction(k - 1, 2) - 1


def test_discrete_topology_on_loop():
    # on the loop graph every basis monomial has order < 1, so no stage at
    # level >= 1 meets the basis
    g = load_graph("loop")
    alg = LeavittAlgebra(construct_regular(g))
    special = alg.special
    vp = g.vertex_path("v")
    for i in range(21):
        for j in range(21):
            m = Monomial(g.path("v", ("c",) * i), g.path("v", ("c",) * j))
            if alg.is_basic(m):
                assert order_of(special, m) < 1


def test_order_rejects_floats():
    from leavitt.filtration import as_order

    with pytest.raises(TypeError):
        as_order(0.5)
    assert as_order(3) == Fraction(3)
    assert as_order(INF) == INF


def _random_algebras(rng, count):
    """Seeded random graphs, each under a random specialization and under
    ``construct_regular``, every third one over F_7."""
    out = []
    for i in range(count):
        g = random_graph(rng, max_vertices=6)
        field = PrimeField(7) if i % 3 == 2 else QQ
        out += [LeavittAlgebra(special, field)
                for special in (random_specialization(rng, g), construct_regular(g))]
    return out


def test_order_key_matches_order_of():
    rng = random.Random(73)
    for alg in _random_algebras(rng, 40):
        for _ in range(40):
            m = random_monomial(rng, alg, max_len=5)
            n, weight = order_key(alg.special, m)
            assert Fraction(n, weight) == order_of(alg.special, m), (alg.special, str(m))


def test_normal_form_lowers_order_by_less_than_one():
    # rewriting a monomial onto the storage basis can lower the order, but
    # by less than one level: every term of the normal form of m has order
    # > ord(m) - 1.  This is the slack that a product can spend when it
    # skips raw terms by their order before normalising them
    rng = random.Random(74)
    drops = []
    for alg in _random_algebras(rng, 100):
        for _ in range(60):
            m = random_monomial(rng, alg, max_len=5)
            k = order_of(alg.special, m)
            terms = alg.element({m: 1}).terms
            assert all(order_of(alg.special, t) > k - 1 for t in terms), (alg.special, str(m))
            drops += [k - order_of(alg.special, t) for t in terms]
    # the sample does rewrite monomials to a lower order, by up to 10/11
    assert max(drops) > Fraction(1, 2), max(drops)
