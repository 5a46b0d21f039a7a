import random
from fractions import Fraction

import pytest

from leavitt import (
    LeavittAlgebra,
    Monomial,
    PrimeField,
    construct_regular,
    monomial_product,
    parse,
    render,
)

from leavitt.fields import _is_prime

from conftest import is_prime_by_trial_division, load_graph, random_element, random_monomial


def mono(g, p_edges, q_edges, p_start=None, q_start=None):
    p = g.path(p_start or g.edge(p_edges[0]).src, p_edges) if p_edges else g.vertex_path(p_start)
    q = g.path(q_start or g.edge(q_edges[0]).src, q_edges) if q_edges else g.vertex_path(q_start)
    return Monomial(p, q)


def test_monomial_requires_common_range(toeplitz):
    g = toeplitz
    with pytest.raises(ValueError, match="common range"):
        Monomial(g.path("v", ("e",)), g.path("v", ("f",)))


def test_monomial_product_examples(toeplitz):
    g = toeplitz
    ff = mono(g, ("f",), ("f",))
    assert monomial_product(ff, ff) == ff
    m1 = mono(g, ("f",), ("e", "f"))
    m2 = mono(g, ("e",), (), q_start="v")
    assert monomial_product(m1, m2) == ff
    ee = mono(g, ("e",), ("e",))
    assert monomial_product(ff, ee) is None


def test_normal_form_examples(alg_a):
    assert render(parse(alg_a, "e e*")) == "v - f f*"
    assert render(parse(alg_a, "f f*")) == "f f*"
    assert render(parse(alg_a, "e e (e e)*")) == "v - f f* - e f f* e*"


def test_normal_form_supported_on_basis(alg_a, alg_b):
    rng = random.Random(3)
    for alg in (alg_a, alg_b):
        for _ in range(100):
            a = random_element(rng, alg, terms=4, max_len=4)
            for m in a.terms:
                assert alg.is_basic(m)


def test_normal_form_reduction_order_independent(alg_a, alg_b):
    # push random all-special suffixes onto both paths to force rewrites,
    # then reduce under two different selection orders
    rng = random.Random(41)
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
        default = alg._normal(dict(raw))
        shuffled = alg._normal(dict(raw), chooser=lambda n: rng.randrange(n))
        assert default == shuffled


def test_ring_axioms_random(alg_a):
    rng = random.Random(57)
    one = alg_a.one()
    for _ in range(200):
        a = random_element(rng, alg_a)
        b = random_element(rng, alg_a)
        c = random_element(rng, alg_a)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    for _ in range(20):
        a = random_element(rng, alg_a)
        assert a * one == a
        assert one * a == a


def test_involution_properties(alg_b):
    rng = random.Random(58)
    for _ in range(200):
        a = random_element(rng, alg_b)
        b = random_element(rng, alg_b)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()
    v = alg_b.vertex("v")
    assert v.star() == v


def test_defining_relations():
    # on every corpus graph: vertex orthogonality, edge endpoints,
    # ghost-edge products, and the vertex relation at non-sinks
    for name in ("toeplitz", "y", "line", "rose2", "twocycle", "g3", "loop"):
        g = load_graph(name)
        alg = LeavittAlgebra(construct_regular(g))
        for v in g.vertices:
            for w in g.vertices:
                expect = alg.vertex(v) if v == w else alg.zero()
                assert alg.vertex(v) * alg.vertex(w) == expect
        for e in g.edges:
            x = alg.edge(e.name)
            assert alg.vertex(e.src) * x == x
            assert x * alg.vertex(e.dst) == x
            assert alg.vertex(e.dst) * x.star() == x.star()
            assert x.star() * alg.vertex(e.src) == x.star()
            for f in g.edges:
                got = alg.ghost(e.name) * alg.edge(f.name)
                expect = alg.vertex(e.dst) if e is f else alg.zero()
                assert got == expect
        for v in g.vertices:
            if g.is_sink(v):
                continue
            total = alg.zero()
            for e in g.out_edges(v):
                total = total + alg.edge(e.name) * alg.ghost(e.name)
            assert total == alg.vertex(v)


def test_degree_split(alg_a):
    a = parse(alg_a, "v + e + f*")
    parts = a.degree_split()
    assert sorted(parts) == [-1, 0, 1]
    assert parts[0] == parse(alg_a, "v")
    assert parts[1] == parse(alg_a, "e")
    assert parts[-1] == parse(alg_a, "f*")
    total = alg_a.zero()
    for part in parts.values():
        total = total + part
    assert total == a


def test_degree_additivity(alg_b):
    rng = random.Random(60)
    for _ in range(100):
        a = random_element(rng, alg_b)
        b = random_element(rng, alg_b)
        pa, pb = a.degree_split(), b.degree_split()
        for da, xa in pa.items():
            for db, xb in pb.items():
                prod = xa * xb
                for d, part in prod.degree_split().items():
                    assert d == da + db


def test_toeplitz_matrix_unit_oracle(alg_a):
    # under the loop-special choice, (e^i f)(e^j f)* multiplies exactly like
    # the matrix unit E_{i+1,j+1}; check all 49 x 49 products against a
    # directly coded matrix-unit calculus
    g = alg_a.graph

    def unit(i, j):
        p = g.path("v", ("e",) * i + ("f",))
        q = g.path("v", ("e",) * j + ("f",))
        return alg_a.element({Monomial(p, q): 1})

    def matrix_mul(a, b):
        # a, b, result: dict (row, col) -> coeff
        out = {}
        for (i, j), x in a.items():
            for (k, l), y in b.items():
                if j != k:
                    continue
                key = (i, l)
                out[key] = out.get(key, 0) + x * y
                if not out[key]:
                    del out[key]
        return out

    units = {(i, j): unit(i, j) for i in range(7) for j in range(7)}
    for (i, j), a in units.items():
        for (k, l), b in units.items():
            expected_matrix = matrix_mul({(i + 1, j + 1): 1}, {(k + 1, l + 1): 1})
            got = a * b
            if not expected_matrix:
                assert got.is_zero, (i, j, k, l)
            else:
                assert got == units[(i, l)], (i, j, k, l)


def test_prime_field_arithmetic():
    g = load_graph("toeplitz")
    alg = LeavittAlgebra(construct_regular(g), PrimeField(5))
    a = parse(alg, "2 v + 4 v")
    assert render(a) == "v"
    assert render(parse(alg, "1/2 v")) == "3 v"
    assert render(parse(alg, "5 v")) == "0"
    b = parse(alg, "e e*")
    assert b * b == b


def test_primality_matches_trial_division():
    assert all(_is_prime(n) == is_prime_by_trial_division(n) for n in range(10**5))
    assert _is_prime(2**61 - 1)
    assert not _is_prime(2**61 + 1)
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert PrimeField(2**64 - 59).p == 2**64 - 59  # the largest prime below the bound
    for p in (2**64, 2**64 + 13, 2**127 - 1):
        with pytest.raises(ValueError, match=r"p < 2\*\*64"):
            PrimeField(p)


def test_mixed_algebra_rejected(alg_a, alg_b):
    with pytest.raises(ValueError, match="different algebras"):
        parse(alg_a, "v") * parse(alg_b, "v")


def test_scalar_multiplication(alg_a):
    a = parse(alg_a, "e + 2 v")
    assert render(Fraction(1, 2) * a) == "v + 1/2 e"
    assert (0 * a).is_zero
