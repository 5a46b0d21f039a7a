import copy
import pickle
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

from leavitt import algebra
from leavitt.algebra import add_terms
from leavitt.fields import ModInt, _is_prime

from conftest import (is_prime_by_trial_division, load_graph, monomial_product_by_extends,
                      normal_by_worklist, product_by_premerge, random_element, random_graph,
                      random_monomial, random_specialization)


def mono(g, p_edges, q_edges, p_start=None, q_start=None):
    p = g.path(p_start or g.edge(p_edges[0]).src, p_edges) if p_edges else g.vertex_path(p_start)
    q = g.path(q_start or g.edge(q_edges[0]).src, q_edges) if q_edges else g.vertex_path(q_start)
    return Monomial(p, q)


def test_monomial_requires_common_range(toeplitz):
    g = toeplitz
    with pytest.raises(ValueError, match="common range"):
        Monomial(g.path("v", ("e",)), g.path("v", ("f",)))


def test_monomial_keeps_its_dataclass_surface(toeplitz):
    # a (left, right) tuple underneath; its text, checks and copies are
    # those of the frozen dataclass it replaced
    g = toeplitz
    m = mono(g, ("e", "f"), ("f",))
    assert repr(m) == ("Monomial(left=Path(start='v', edges=('e', 'f'), end='w'), "
                       "right=Path(start='v', edges=('f',), end='w'))")
    assert (m.left, m.right) == (g.path("v", ("e", "f")), g.path("v", ("f",)))
    assert str(m) == "e f f*" and m.degree == 1 and m.total_length == 3
    assert m.sort_key() == (1, 3, ("e", "f"), "v", ("f",), "v")
    assert m.star() == mono(g, ("f",), ("e", "f"))
    for twin in (copy.copy(m), copy.deepcopy(m),
                 *(pickle.loads(pickle.dumps(m, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert twin == m and type(twin) is Monomial and hash(twin) == hash(m)
    with pytest.raises(ValueError, match="common range"):
        Monomial(g.path("v", ("f",)), g.vertex_path("v"))


def test_monomials_built_apart_are_one_dict_key(toeplitz):
    g = toeplitz
    a = mono(g, ("e",), ("e", "e"))
    b = Monomial(g.path("v", ("e",)), g.extend(g.path("v", ("e",)), g.edge("e")))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != mono(g, ("e",), ("e",)) and a != a.star()


def test_modint_keeps_its_dataclass_surface():
    x = ModInt(10, 7)
    assert x.value == 3 and x.modulus == 7
    assert repr(x) == "ModInt(value=3, modulus=7)" and str(x) == "3"
    assert not ModInt(7, 7) and ModInt(-1, 7).value == 6 and ModInt(8, 7)
    assert ModInt(3, 7) == x and hash(ModInt(3, 7)) == hash(x) and {x: 1}[ModInt(17, 7)] == 1
    assert x * ModInt(5, 7) == ModInt(1, 7) and x / x == ModInt(1, 7)
    assert x + ModInt(4, 7) == ModInt(0, 7) and x - ModInt(4, 7) == ModInt(6, 7)
    assert -x == ModInt(4, 7)
    for twin in (copy.copy(x), copy.deepcopy(x),
                 *(pickle.loads(pickle.dumps(x, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert twin == x and type(twin) is ModInt
    # a residue is not a sequence to repeat or to mix with other numbers
    for other in (3, Fraction(1, 2)):
        with pytest.raises(TypeError):
            other * x
    with pytest.raises(ValueError, match="mixed prime-field"):
        x * ModInt(1, 5)


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
    # then compare the rewrite chains with the worklist oracle under a
    # random selection order.  The same monomials also go in as a pair
    # stream over QQ or F_7 that repeats them, holds zero coefficients and
    # cancelling pairs: its normal form is the oracle's on the merged dict.
    rng = random.Random(41)
    mix = random.Random(43)
    f7 = {alg: LeavittAlgebra(alg.special, PrimeField(7)) for alg in (alg_a, alg_b)}
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
        chained = alg._normal(raw.items())
        shuffled = normal_by_worklist(alg, dict(raw), chooser=lambda n: rng.randrange(n))
        assert chained == shuffled
        over = mix.choice([alg, f7[alg]])
        coerce = over.field.coerce
        pairs = []
        for m, c in raw.items():
            part = mix.randint(-9, 9)
            pairs += [(m, coerce(part)), (m, coerce(int(c) - part)), (m, coerce(0))]
            pairs += [(m, coerce(part)), (m, coerce(-part))]
        mix.shuffle(pairs)
        merged = add_terms({}, pairs)
        assert over._normal(iter(pairs)) == normal_by_worklist(over, merged)


def test_rewrite_is_one_chain_per_monomial(alg_a, monkeypatch):
    # (e e, e e) rewrites along one chain: e e -> e -> v, each step testing
    # one monomial; the replacements e f and f are basic and never retested
    g = alg_a.graph
    ee = g.path("v", ("e", "e"))
    raw = {Monomial(ee, ee): 1}
    calls = []
    reducible = LeavittAlgebra._reducible_edge

    def counting(self, m):
        calls.append(m)
        return reducible(self, m)

    monkeypatch.setattr(LeavittAlgebra, "_reducible_edge", counting)
    got = alg_a._normal(raw.items())
    assert len(calls) == 3
    assert got == normal_by_worklist(alg_a, dict(raw))
    assert render(alg_a.element(got)) == "v - f f* - e f f* e*"


def test_product_streams_into_one_merge(alg_a, alg_b, monkeypatch):
    # a b streams its structural products, repeats included, into the
    # normal form's one add_terms; merging them into a dict first is the
    # oracle, over QQ and F_7
    rng = random.Random(47)
    algs = [alg_a, alg_b] + [LeavittAlgebra(alg.special, PrimeField(7)) for alg in (alg_a, alg_b)]
    repeats = 0
    for _ in range(400):
        alg = rng.choice(algs)
        a = random_element(rng, alg, terms=4, max_len=3)
        b = random_element(rng, alg, terms=4, max_len=3)
        hits = [m for m1 in a.terms for m2 in b.terms
                if (m := monomial_product(m1, m2)) is not None]
        repeats += len(set(hits)) < len(hits)
        assert a * b == product_by_premerge(a, b)
    assert repeats > 20
    calls = []

    def counting(terms, pairs):
        calls.append(terms)
        return add_terms(terms, pairs)

    a = parse(alg_a, "e + e e* + 2 f f* - e e e* e*")
    b = a.star()
    monkeypatch.setattr(algebra, "add_terms", counting)
    a * b
    assert len(calls) == 1


def test_monomial_product_matches_the_extends_oracle():
    # random pairs on small graphs, so that starts often agree and the
    # vertex-path, equal-length and other-start cases all occur
    rng = random.Random(71)
    seen = {"other start": 0, "equal length": 0, "vertex path": 0, "nonzero": 0}
    for _ in range(200):
        g = random_graph(rng, 3, 6)
        alg = LeavittAlgebra(random_specialization(rng, g))
        for _ in range(30):
            m1 = random_monomial(rng, alg, 3)
            m2 = random_monomial(rng, alg, 3)
            got = monomial_product(m1, m2)
            assert got == monomial_product_by_extends(m1, m2), (m1, m2)
            q, u = m1.right, m2.left
            seen["other start"] += q.start != u.start
            seen["equal length"] += len(q.edges) == len(u.edges)
            seen["vertex path"] += not q.edges or not u.edges
            seen["nonzero"] += got is not None
    assert min(seen.values()) > 100, seen


def test_namedtuple_replace_runs_the_checks(toeplitz):
    # namedtuple's _replace (and copy.replace) build through _make, which
    # must not skip the reduction and the common-range check
    x = ModInt(3, 7)._replace(value=10)
    assert x == ModInt(3, 7) and x.value == 3
    ef = toeplitz.path("v", ("e", "f"))
    m = Monomial(ef, toeplitz.path("v", ("f",)))
    assert m._replace(right=ef) == Monomial(ef, ef)
    with pytest.raises(ValueError, match="common range"):
        m._replace(right=toeplitz.vertex_path("v"))
    if hasattr(copy, "replace"):
        assert copy.replace(ModInt(3, 7), value=-1) == ModInt(6, 7)
        with pytest.raises(ValueError, match="common range"):
            copy.replace(m, left=toeplitz.path("v", ("e",)))


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


def test_degree_additivity(alg_b):
    rng = random.Random(60)
    for _ in range(100):
        a = random_element(rng, alg_b)
        b = random_element(rng, alg_b)
        for ma in a.terms:
            for mb in b.terms:
                prod = alg_b.element({ma: 1}) * alg_b.element({mb: 1})
                for m in prod.terms:
                    assert m.degree == ma.degree + mb.degree


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
