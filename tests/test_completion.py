import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    INF,
    Graph,
    LeavittAlgebra,
    Monomial,
    QQ,
    PrimeField,
    Specialization,
    arrival_idempotent,
    construct_regular,
    equal_mod,
    exact,
    min_order,
    parse,
    product_precision,
    trunc_add,
    trunc_mul,
    truncate,
    vertex_idempotent,
)

from leavitt import algebra, completion
from leavitt.algebra import Element
from leavitt.completion import TruncatedElement, _below, _special_depth, conjugate
from leavitt.filtration import as_order, order_key, order_of
from leavitt.structure import _judge

from conftest import (
    CORPUS,
    INPUTS,
    arrival_enumeration_by_bfs,
    arrival_idempotent_by_bfs,
    arrival_idempotent_by_pruned_search,
    arrival_idempotent_eager,
    family_graph,
    hereditary_sets_bruteforce,
    judge_by_full_bodies,
    load_graph,
    minus_slack_by_fractions,
    product_precision_by_fractions,
    random_element,
    random_graph,
    random_monomial,
    random_path,
    random_specialization,
    trunc_mul_eager,
    trunc_mul_precision_by_bounds,
    unwrap_by_products,
    vertex_idempotent_by_branches,
)


def test_truncate_examples(alg_a):
    zero = truncate(alg_a.zero(), 5)
    assert zero.body.is_zero and zero.prec == 5
    a = parse(alg_a, "v - f f* - e f f* e*")
    t = truncate(a, 4)
    assert t.body == parse(alg_a, "v - f f*")
    assert truncate(a, INF).body == a
    assert truncate(a, INF).is_exact


def test_truncate_keeps_exactly_the_orders_below_the_level():
    # truncate decides by integers, n * K.den < K.num * (s + d + 1);
    # order_of is the oracle
    rng = random.Random(75)
    for _ in range(40):
        g = random_graph(rng, max_vertices=6)
        for special in (random_specialization(rng, g), construct_regular(g)):
            alg = LeavittAlgebra(special)
            a = random_element(rng, alg, terms=6, max_len=4)
            for K in (0, Fraction(1, 2), 1, Fraction(7, 3), Fraction(5, 2), 5):
                want = {m: c for m, c in a.terms.items() if order_of(special, m) < K}
                t = truncate(a, K)
                assert (t.body.terms, t.prec) == (want, K), (special, K)


def test_trunc_add_mul_precision(alg_a):
    a = truncate(parse(alg_a, "v"), 9)
    b = exact(parse(alg_a, "w"))
    assert trunc_add(a, b).prec == 9
    assert trunc_mul(exact(parse(alg_a, "e")), exact(parse(alg_a, "e*"))).is_exact
    # prec 9 times an exact vertex: product_precision(9, vertex) = 4, slack 1
    assert trunc_mul(a, b).prec == 3
    c = truncate(parse(alg_a, "v"), 3)
    assert trunc_mul(c, c).prec == 0


def test_trunc_mul_matches_formula(alg_b):
    rng = random.Random(19)
    special = alg_b.special
    for _ in range(50):
        pa = Fraction(rng.randint(2, 12))
        pb = Fraction(rng.randint(2, 12))
        a = truncate(parse(alg_b, "v + f f*"), pa)
        b = truncate(parse(alg_b, "w + e e*"), pb)
        prod = trunc_mul(a, b)
        bounds = [product_precision(special, pa, m) for m in b.body.terms]
        bounds += [product_precision(special, pb, m) for m in a.body.terms]
        bounds.append(Fraction(min(pa, pb) - 1, 2))
        assert prod.prec == max(min(bounds) - 1, 0)


def _level(rng):
    """A precision level a/b with b in {1, 2, 3, 6}, often 0 or below 1,
    sometimes inf."""
    return rng.choice((0, INF, Fraction(rng.randint(1, 5), 6),
                       Fraction(rng.randint(0, 36), rng.choice((1, 2, 3, 6)))))


def _precision_operands(rng, alg):
    """(kind, maker) pairs of fresh operands at random levels: exact, cut,
    diagonal (e_v and e(W), deferred) and a deferred product that is not
    diagonal."""
    g = alg.graph
    a, c = random_element(rng, alg, terms=5, max_len=3), random_element(rng, alg, terms=2)
    v, W = rng.choice(g.vertices), rng.choice(g.frame() + [frozenset(g.vertices)])
    k = _level(rng)
    finite = 0 if k is INF else k
    return [("exact", lambda: exact(a)),
            ("cut", lambda: truncate(a, k)),
            ("diagonal", lambda: vertex_idempotent(alg, v, finite)),
            ("diagonal", lambda: arrival_idempotent(alg, W, finite)),
            ("deferred", lambda: trunc_mul(exact(c), truncate(a, k)))]


def test_precision_matches_the_fraction_bounds():
    # product_precision, _minus_slack and trunc_mul's precision, computed
    # on integer numerator/denominator pairs, equal their Fraction forms
    # in tests/conftest.py and stay Fraction or INF, over levels a/b with
    # b in {1, 2, 3, 6}, 0, levels below 1 and inf; trunc_mul in both
    # operand orders, on seeded random graphs under construct_regular and
    # a random specialization, over QQ and (every third graph) F_7
    rng = random.Random(31)
    seen = Counter()
    for i in range(30):
        g = random_graph(rng, 5, 9)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 0 else QQ)
            for _ in range(20):
                k, m = _level(rng), random_monomial(rng, alg, 4)
                got = product_precision(special, k, m)
                assert got == product_precision_by_fractions(special, k, m), (special, k, m)
                assert got is INF if k is INF else type(got) is Fraction
                got = completion._minus_slack(as_order(k))
                assert got == minus_slack_by_fractions(as_order(k)), k
                assert got is INF if k is INF else type(got) is Fraction
            operands = _precision_operands(rng, alg) + _precision_operands(rng, alg)
            for _ in range(10):
                (p, x), (q, y) = rng.choice(operands), rng.choice(operands)
                for f, h in ((x, y), (y, x)):
                    got, want = trunc_mul(f(), h()).prec, trunc_mul_precision_by_bounds(f(), h())
                    assert got == want, (special, f().prec, h().prec)
                    assert got is INF or type(got) is Fraction
                    assert got == trunc_mul_eager(f(), h()).prec
                level = x().prec
                seen[p, q] += 1
                seen["level", level if level is INF else level.denominator] += 1
    kinds = ("exact", "cut", "diagonal", "deferred")
    assert all(seen[p, q] > 10 for p in kinds for q in kinds), seen
    assert all(seen["level", b] > 10 for b in (1, 2, 3, 6, INF)), seen


def test_ceilings_match_the_fraction_forms():
    # the integer ceilings of _room and _enumeration_cutoff equal
    # math.ceil on Fraction values, the forms they replace
    graphs = [family_graph("chain_to_rose", n) for n in range(1, 5)]
    for K in [Fraction(a, b) for a in range(0, 40) for b in (1, 2, 3, 6)]:
        assert completion._room(K) == math.ceil(K / 2), K
        for g in graphs:
            assert completion._enumeration_cutoff(g, K) == math.ceil(
                K * (2 * len(g.vertices) + 1) / 2), (K, g.vertices)
    assert completion._room(INF) is INF


def _operand(rng, alg):
    """A random truncated operand: exact, cut at a random level, or a
    vertex idempotent, whose body is deferred."""
    level = Fraction(rng.randint(0, 24), rng.randint(1, 2))
    kind = rng.choice(("exact", "cut", "idempotent"))
    if kind == "idempotent":
        return vertex_idempotent(alg, rng.choice(alg.graph.vertices), level)
    a = random_element(rng, alg, terms=5, max_len=3)
    return exact(a) if kind == "exact" else truncate(a, level)


def test_deferred_product_matches_eager():
    # trunc_mul fixes its precision first and forms the product on first
    # read; forming it in full and then truncating gives the same
    # (body, prec), over QQ and F_7
    rng = random.Random(11)
    seen = 0
    for i in range(60):
        g = random_graph(rng, max_vertices=5)
        special = random_specialization(rng, g) if i % 2 else construct_regular(g)
        alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 0 else QQ)
        for _ in range(12):
            a, b = _operand(rng, alg), _operand(rng, alg)
            got, want = trunc_mul(a, b), trunc_mul_eager(a, b)
            assert (got.body, got.prec) == (want.body, want.prec), (special, a, b)
            seen += bool(got.body.terms) and not got.is_exact
    assert seen > 100, seen


def _fresh_makers(rng, alg):
    """(maker, factory) pairs and a list of operand factories: each call
    makes a new truncated element whose deferred body and operands are not
    yet read."""
    g = alg.graph
    a, b, c = (random_element(rng, alg, terms=4, max_len=3) for _ in range(3))
    u, v, w = (rng.choice(g.vertices) for _ in range(3))
    low, high = (Fraction(rng.randint(1, 10), rng.randint(1, 2)) for _ in range(2))
    W = rng.choice(g.frame())
    operands = [
        lambda: exact(a),
        lambda: trunc_mul(exact(a), exact(b)),  # exact, deferred
        lambda: truncate(b, high),
        lambda: vertex_idempotent(alg, u, low),  # exact when u's walk reaches a sink
        lambda: trunc_mul(exact(c), vertex_idempotent(alg, v, high)),
    ]

    def vector():
        return {x: vertex_idempotent(alg, x, high).body for x in g.vertices}

    makers = [
        ("exact", operands[0]),
        ("truncate", operands[2]),
        ("vertex_idempotent", operands[3]),
        ("arrival_idempotent", lambda: arrival_idempotent(alg, W, min(low, 6))),
        ("conjugate", lambda: conjugate(alg, vector(), w, min(low, high))),
    ]
    for f, h in (rng.sample(operands, 2) for _ in range(2)):
        makers.append(("trunc_add", lambda f=f, h=h: trunc_add(f(), h())))
    products = [rng.choices(operands, k=2) for _ in range(4)]
    for f, h in products:
        makers.append(("trunc_mul", lambda f=f, h=h: trunc_mul(f(), h())))
    return makers, products


def test_reading_below_a_level_matches_the_cut_body():
    # x.below(L), read before x's body or its operands' bodies are built,
    # is x's body cut at L, for every maker and every exactness mix of a
    # product's operands; the judge reads below max(K - 1, 0) and gives the
    # verdict that whole bodies give, fail witnesses included; on the
    # corpus and 60 seeded random graphs, over QQ and (every third) F_7
    rng = random.Random(12)
    specials = [construct_regular(load_graph(name)) for name in CORPUS]
    for i in range(60):
        g = random_graph(rng, max_vertices=5)
        specials.append(random_specialization(rng, g) if i % 2 else construct_regular(g))
    cut, mixes, verdicts = Counter(), Counter(), Counter()
    for i, special in enumerate(specials):
        alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 2 else QQ)
        makers, products = _fresh_makers(rng, alg)
        for name, make in makers:
            x = make()
            for L in (0, Fraction(1, 2), 1, Fraction(7, 3), 5, x.prec):
                if L <= x.prec:
                    got = make().below(L)
                    assert got == truncate(x.body, L).body, (special, name, L)
                    cut[name] += len(got.terms) < len(x.body.terms)
        wrong = exact(random_element(rng, alg, terms=3, max_len=4))
        for f, h in products:
            x, y = f(), h()
            eager = trunc_mul_eager(x, y)
            product = trunc_mul(f(), h())
            assert (product.body, product.prec) == (eager.body, eager.prec), special
            mixes[x.is_exact, y.is_exact] += 1
            levels = [K for K in (Fraction(1, 2), 1, Fraction(7, 3), 5, x.prec, y.prec)
                      if K <= min(x.prec, y.prec) and K != INF]
            if not levels:
                continue
            K = rng.choice(levels)
            for rhs in (h, lambda: trunc_add(h(), wrong)):
                got = _judge("check", K, [(f(), rhs(), "pair")])
                assert got == judge_by_full_bodies("check", K, [(f(), rhs(), "pair")]), special
                verdicts[got.status] += 1
    assert min(cut.values()) > 10 and len(cut) == 7, cut
    assert len(mixes) == 4 and min(mixes.values()) > 10, mixes
    assert len(verdicts) == 2 and min(verdicts.values()) > 50, verdicts


def test_product_reads_each_operand_to_its_split_level():
    # read below L, x y reads y only below the split level of x's terms,
    # where a tail of order >= k times a term of weight w = s + d + 1 needs
    # k >= 2w(L + 1) - n + d; long balanced tails times every monomial of
    # total length <= 2 agree with the product formed in full, and a split
    # at 2(L + 1) + 1 alone, without the per-term part, would lose terms
    rng = random.Random(14)
    lost = 0
    for g in (load_graph("rose2"), family_graph("rose", 3), family_graph("complete", 3)):
        alg = LeavittAlgebra(construct_regular(g))
        paths = [random_path(rng, g, rng.choice(g.vertices), 9) for _ in range(600)]
        paths = [p for p in paths if len(p) >= 6][:200]
        tails = [Monomial(p, q) for p in paths[:100] for q in paths[100:] if p.end == q.end]
        tails = [t for t in tails if order_of(alg.special, t) >= 6][:40]
        y = alg.element({t: rng.choice((1, 2)) for t in tails})
        short = [Monomial(p, q) for v in g.vertices for p in g.paths_from(v, 2)
                 for q in g.paths_from(v, 2 - len(p)) if p.end == q.end]
        for m in short:
            x = alg.element({m: 1})
            for L in (2, 4, 6, Fraction(15, 2)):
                for a, b in ((x, y), (y, x)):
                    want = truncate(a * b, L).body
                    for left, right in ((exact(a), truncate(b, 60)), (truncate(a, 60), exact(b))):
                        product = trunc_mul(left, right)
                        if L <= product.prec:
                            assert product.below(L) == want, (g, str(m), L)
                    naive = (x * truncate(y, 2 * L + 3).body if a is x
                             else truncate(y, 2 * L + 3).body * x)
                    lost += truncate(naive, L).body != want
    assert lost > 20, lost


def test_reading_the_body_releases_the_operands(alg_a):
    # reading below the precision keeps the maker and its operands; reading
    # the whole body builds it once and drops them
    a = truncate(parse(alg_a, "v - f f* - e f f* e*"), 9)
    ref = weakref.ref(a)
    product = trunc_mul(exact(parse(alg_a, "v")), a)
    del a
    assert product.below(1) == parse(alg_a, "v") and ref() is not None
    assert product.body == parse(alg_a, "v - f f*") and ref() is None
    assert product.below(1) == parse(alg_a, "v")


def test_precision_is_fixed_before_the_body(alg_a, alg_b, monkeypatch):
    # an exact operand's tail is zero, so the other operand's terms are not
    # read; no product, sum or branch sum is formed until a body is read
    def unread(L):
        raise AssertionError("body read")

    lazy = TruncatedElement(alg_a, Fraction(5), unread)
    built = truncate(alg_a.zero(), 5)
    for text in ("v", "e", "e*", "f f*"):
        x = exact(parse(alg_a, text))
        assert trunc_mul(x, lazy).prec == trunc_mul(x, built).prec, text
        assert trunc_mul(lazy, x).prec == trunc_mul(built, x).prec, text
        assert trunc_add(lazy, x).prec == 5
    reads = []

    def reading(text):
        return lambda L: reads.append(text) or parse(alg_a, text)

    x = TruncatedElement(alg_a, INF, reading("v"))
    y = TruncatedElement(alg_a, Fraction(4), reading("v - f f*"))
    product = trunc_mul(x, y)
    # product_precision(4, v) = 3/2, less one unit of slack
    assert product.prec == Fraction(1, 2) and reads == ["v"]
    assert product.body == parse(alg_a, "v") and reads == ["v", "v - f f*"]
    # the branch sum of a vertex idempotent waits for its body, too
    calls = []
    original = completion.conjugate

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(completion, "conjugate", counting)
    ev = vertex_idempotent(alg_a, "v", 6)
    assert ev.prec == 6 and calls == []
    assert ev.body == parse(alg_a, "v - f f* - e f f* e*") and calls == ["v"]
    # mixing algebras is refused when the product is made
    with pytest.raises(ValueError, match="different algebras"):
        trunc_mul(lazy, TruncatedElement(alg_b, Fraction(5), unread))


def test_equal_mod_basic(alg_a):
    a = exact(parse(alg_a, "v - f f*"))
    assert equal_mod(a, a, 100)
    assert equal_mod(a, a, INF)
    b = truncate(parse(alg_a, "v"), 2)
    with pytest.raises(ValueError, match="exceeds available precision"):
        equal_mod(a, b, 3)


def test_passing_congruence_forms_no_difference(alg_a, alg_b, monkeypatch):
    # a normal form is unique, so a congruence compares the two reads as
    # they are: it forms neither a difference nor a sum
    pairs = [
        (arrival_idempotent(alg_b, {"w"}, 2), exact(alg_b.one()), 2),
        (exact(parse(alg_a, "v - f f*")),
         truncate(parse(alg_a, "v - f f* + e e f f* e* e*"), 3), 3),
    ]

    def forbidden(self, other):
        raise AssertionError("equal_mod formed a sum or a difference")

    monkeypatch.setattr(Element, "__sub__", forbidden)
    monkeypatch.setattr(Element, "__add__", forbidden)
    for a, b, K in pairs:
        assert equal_mod(a, b, K)


def test_equal_mod_toeplitz_counterexample(alg_a, alg_b):
    # with the frame-approaching choice the arrival idempotent of {w} is the
    # identity at level 2; with the loop special it is not
    one_b = exact(alg_b.one())
    assert equal_mod(arrival_idempotent(alg_b, {"w"}, 2), one_b, 2)
    one_a = exact(alg_a.one())
    ew = arrival_idempotent(alg_a, {"w"}, 2)
    assert not equal_mod(ew, one_a, 2)
    assert min_order(ew.body - one_a.body) < 1


def test_arrival_suffix_bound(gamma_b, gamma_a):
    # the special suffix of an arrival path is a special walk ending on
    # entering W, so it never exceeds D, the longest such walk, and D <= |V \ W|;
    # this is what makes the arrival sums converge and the pruning sound
    g = gamma_b.graph
    for gamma in (gamma_a, gamma_b):
        depth = _special_depth(gamma, frozenset({"w"}))
        assert depth <= len(set(g.vertices) - {"w"})
        for p in arrival_enumeration_by_bfs(g, {"w"}, 30)[0]:
            assert gamma.special_suffix(p) <= depth
    assert _special_depth(gamma_a, frozenset({"w"})) == 0  # v's walk loops on e
    assert _special_depth(gamma_b, frozenset({"w"})) == 1


def _bfs_prefixes(g, W, max_len: int, limit: int) -> int:
    """How many travel prefixes the breadth-first oracle builds, counted
    without building them; stops counting past ``limit``."""
    counts = {v: 1 for v in g.vertices if v not in W}
    total = len(counts)
    for _ in range(max_len):
        if total > limit or not counts:
            break
        nxt: dict = {}
        for v, c in counts.items():
            for e in g.out_edges(v):
                if e.dst not in W:
                    nxt[e.dst] = nxt.get(e.dst, 0) + c
        counts = nxt
        total += sum(counts.values())
    return total


ORACLE_LEVELS = (0, Fraction(1, 2), 1, 2, Fraction(7, 3), 3, 5)


def test_arrival_idempotent_matches_bfs_oracle():
    # arrival_idempotent equals the breadth-first enumerate-then-filter,
    # in body and in precision, over random graphs, both kinds of
    # specialization, every hereditary set and levels including 0 and
    # fractions; cases whose oracle would build many prefixes are skipped
    rng = random.Random(2024)
    compared = exact_cases = 0
    for i in range(50):
        g = random_graph(rng, max_vertices=6)
        specs = [random_specialization(rng, g), construct_regular(g)]
        fields = (QQ, PrimeField(7)) if i % 4 == 0 else (QQ,)
        for W in hereditary_sets_bruteforce(g):
            for K in ORACLE_LEVELS:
                cutoff = math.ceil(K * (2 * len(g.vertices) + 1) / 2)
                if _bfs_prefixes(g, W, cutoff, 400) > 400:
                    continue
                for special in specs:
                    for field in fields:
                        alg = LeavittAlgebra(special, field)
                        got = arrival_idempotent(alg, W, K)
                        want = arrival_idempotent_by_bfs(alg, W, K)
                        assert (got.body, got.prec) == (want.body, want.prec), (g, special, W, K)
                        compared += 1
                        exact_cases += got.is_exact
    assert compared > 4000 and 0 < exact_cases < compared, (compared, exact_cases)


def test_arrival_idempotent_inexact_when_loops_cannot_reach_W():
    # v1 and v2 carry loops but no path to the sink v0: the only arrival
    # path is v0 itself, yet paths of every length avoid W, so the value is
    # not certified exact
    g = Graph(["v0", "v1", "v2"], [("a", "v1", "v1"), ("b", "v2", "v2"), ("c", "v1", "v2")])
    alg = LeavittAlgebra(construct_regular(g))
    got = arrival_idempotent(alg, {"v0"}, 1)
    assert got.render() == "v0 + O(V_1)"
    want = arrival_idempotent_by_bfs(alg, {"v0"}, 1)
    assert (got.body, got.prec) == (want.body, want.prec)


def test_arrival_idempotent_matches_pruned_search_oracle():
    # the state recursion equals the pruned depth-first search it replaced,
    # in body and in precision, on random graphs of up to 8 vertices, both
    # kinds of specialization, every hereditary set and every oracle level;
    # cases where the search could build many prefixes are skipped
    rng = random.Random(2026)
    compared = exact_cases = skipped = 0
    for i in range(50):
        g = random_graph(rng, max_vertices=8, max_edges=16)
        specs = [random_specialization(rng, g), construct_regular(g)]
        fields = (QQ, PrimeField(7)) if i % 4 == 0 else (QQ,)
        for W in hereditary_sets_bruteforce(g):
            for K in ORACLE_LEVELS:
                for special in specs:
                    depth = math.ceil(K * (2 * _special_depth(special, W) + 1) / 2)
                    if _bfs_prefixes(g, W, depth, 2000) > 2000:
                        skipped += 1
                        continue
                    for field in fields:
                        alg = LeavittAlgebra(special, field)
                        got = arrival_idempotent(alg, W, K)
                        want = arrival_idempotent_by_pruned_search(alg, W, K)
                        assert (got.body, got.prec) == (want.body, want.prec), (g, special, W, K)
                        compared += 1
                        exact_cases += got.is_exact
    assert compared > 7000 and skipped < 20 and 0 < exact_cases < compared, (compared, skipped)


def test_arrival_terms_kept_on_chain_to_rose(monkeypatch):
    # on the chain c0 -> c1 -> c2 -> r with a loop at each c_i and two
    # petals at r, e({r}) is built in the diagonal, one state at a time: at
    # working precisions 7, 14 and 28 no alg.element call is made, where a
    # normal-form pass per state made 136, 280 and 574 calls with 182, 386
    # and 806 terms in all, and one call on every kept arrival path took
    # 274, 1,736 and 13,076 terms
    vertices = ["c0", "c1", "c2", "r"]
    edges = [("p0", "r", "r"), ("p1", "r", "r")]
    for i in range(3):
        edges += [(f"l{i}", vertices[i], vertices[i]), (f"f{i}", vertices[i], vertices[i + 1])]
    alg = LeavittAlgebra(construct_regular(Graph(vertices, edges)))
    calls = []
    element = LeavittAlgebra.element

    def counting(self, terms):
        terms = list(terms.items() if isinstance(terms, dict) else terms)
        calls[-1].append(len(terms))
        return element(self, terms)

    monkeypatch.setattr(LeavittAlgebra, "element", counting)
    for Kw in (7, 14, 28):
        calls.append([])
        e = arrival_idempotent(alg, {"r"}, Kw)
        assert e.prec == Kw and e.body == parse(alg, "c0 + c1 + c2 + r")
    assert calls == [[], [], []]
    # the state loop needs no recursion as Kw grows
    assert arrival_idempotent(alg, {"r"}, 224).render() == "c0 + c1 + c2 + r + O(V_224)"


def _arrival_algebras(rng, graphs):
    """(algebra, working precisions) over ``graphs`` seeded random graphs,
    under construct_regular and a random specialization, over QQ and (every
    third graph) F_7, at K in {2, 7/2, 9, 14}, and over the two escalating
    inputs, which are not frame-finite, at 26 as well."""
    levels = (2, Fraction(7, 2), 9, 14)
    cases = []
    for i in range(graphs):
        g = random_graph(rng, 7, 13)
        field = PrimeField(7) if i % 3 == 0 else QQ
        cases += [(LeavittAlgebra(special, field), levels)
                  for special in (construct_regular(g), random_specialization(rng, g))]
    for name in ("escalating5", "escalating6"):
        g = Graph.load(INPUTS / f"{name}.json")
        special = Specialization.load(g, INPUTS / f"{name}_gamma.json")
        cases.append((LeavittAlgebra(special), levels + (26,)))
    return cases


def test_arrival_reads_match_the_eager_body():
    # e(W) is built only below the level read, over the live states of its
    # working precision K: a fresh read below L, and every read of a
    # rising, falling or shuffled sequence on one element, is the whole
    # body that arrival_idempotent_eager builds at K cut below L, and the
    # precision is the eager one; for W over the frame and V
    rng = random.Random(28)
    reads = Counter()
    for alg, levels in _arrival_algebras(rng, 60):
        g = alg.graph
        for W in g.frame() + [frozenset(g.vertices)]:
            for K in levels:
                eager = arrival_idempotent_eager(alg, W, K)
                assert arrival_idempotent(alg, W, K).prec == eager.prec, (alg, W, K)
                body = eager.body
                below = [L for L in (0, Fraction(1, 2), 1, 3, Fraction(7, 2), 6, 9, 13, 20, K)
                         if L <= K]
                for L in below:
                    got = arrival_idempotent(alg, W, K).below(L)
                    assert got == _below(body, L), (alg, W, K, L)
                    reads["cut"] += len(got.terms) < len(body.terms)
                for seq in (below, below[::-1], rng.sample(below, len(below))):
                    x = arrival_idempotent(alg, W, K)
                    for L in seq:
                        assert x.below(L) == _below(body, L), (alg, W, K, seq, L)
                    assert x.body == body, (alg, W, K)
                reads["large"] += len(body.terms) > 100
    assert reads["cut"] > 1500 and reads["large"] == 2, reads


def test_arrival_idempotent_builds_no_body_until_read(alg_a, monkeypatch):
    # the forward pass fixes the precision and the live states; the body
    # waits for a read, which builds only below its level
    pairs = []
    original = completion.add_terms

    def counting(terms, new):
        new = list(new)
        pairs.append(len(new))
        return original(terms, new)

    monkeypatch.setattr(completion, "add_terms", counting)
    e = arrival_idempotent(alg_a, {"w"}, 40)
    assert e.prec == 40 and e.diagonal and e._read is None and not pairs
    assert e.below(0) == alg_a.zero() and not pairs
    want = arrival_idempotent_eager(alg_a, {"w"}, 40).body
    assert e.below(5) == _below(want, 5)
    low = sum(pairs)
    assert e.body == want and 0 < 4 * low < sum(pairs) - low, pairs


def test_arrival_idempotent_holds_its_body_uncut(monkeypatch):
    # the recursion keeps only terms of order below K (see its docstring),
    # so an inexact body is held as built: no cut tests each term's order,
    # where cutting it again made one order_key call per term.  The oracle
    # tests above compare the bodies themselves
    calls = []
    key = completion.order_key

    def counting(*args):
        calls.append(1)
        return key(*args)

    monkeypatch.setattr(completion, "order_key", counting)
    rng = random.Random(721)
    held = []
    for _ in range(40):
        g = random_graph(rng, max_vertices=6)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special)
            for W in g.frame():
                for K in ORACLE_LEVELS:
                    t = arrival_idempotent(alg, W, K)
                    if not t.is_exact:
                        held.append((special, t.body, K))
    assert not calls
    assert sum(bool(body.terms) for _, body, _ in held) > 100, len(held)
    for special, body, K in held:
        assert all(order_of(special, m) < K for m in body.terms), (special, K)


def test_arrival_idempotent_on_exponential_arrival_graph():
    # the arrival paths into {v3} grow exponentially in number with Kw, the
    # states only linearly, so Kw=28 stays cheap
    g = Graph(
        [f"v{i}" for i in range(5)],
        [("e0", "v0", "v3"), ("e1", "v0", "v4"), ("e2", "v2", "v3"), ("e3", "v2", "v1"),
         ("e4", "v4", "v0"), ("e5", "v4", "v0")],
    )
    alg = LeavittAlgebra(construct_regular(g))
    got = arrival_idempotent(alg, {"v3"}, 7)
    want = arrival_idempotent_by_pruned_search(alg, {"v3"}, 7)
    assert (got.body, got.prec) == (want.body, want.prec)
    e = arrival_idempotent(alg, {"v3"}, 28)
    assert e.render() == "v0 + v2 + v3 + v4 - e3 e3* + O(V_28)"


@settings(max_examples=80, deadline=2000, derandomize=True, database=None)
@given(st.data())
def test_pruned_search_matches_brute_force(data):
    # every path up to the old cutoff, built by Graph.paths_from and filtered
    # by definition, gives the same e(W) as arrival_idempotent
    n = data.draw(st.integers(1, 4), label="vertices")
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for v in verts:
        for dst in data.draw(st.lists(st.sampled_from(verts), max_size=2), label=f"out {v}"):
            edges.append((f"e{len(edges)}", v, dst))
    g = Graph(verts, edges)
    mapping = {v: data.draw(st.sampled_from([e.name for e in g.out_edges(v)]), label=f"special {v}")
               for v in verts if g.out_edges(v)}
    alg = LeavittAlgebra(Specialization(g, mapping))
    W = data.draw(st.sampled_from(hereditary_sets_bruteforce(g)), label="W")
    K = data.draw(st.fractions(0, 2, max_denominator=3), label="K")

    cutoff = math.ceil(K * (2 * n + 1) / 2)
    travel = [p for v in verts for p in g.paths_from(v, cutoff)
              if not any(g.edge(name).src in W for name in p.edges)]
    arrivals = [p for p in travel if p.end in W]
    avoiding = [p for p in travel if p.end not in W and len(p) == cutoff]
    kept = [p for p in arrivals if order_of(alg.special, Monomial(p, p)) < K]
    body = alg.element({Monomial(p, p): 1 for p in kept})
    want = exact(body) if not avoiding and kept == arrivals else truncate(body, K)
    got = arrival_idempotent(alg, W, K)
    assert (got.body, got.prec) == (want.body, want.prec)


def test_arrival_idempotent_examples(alg_a, alg_b):
    gl = load_graph("loop")
    algl = LeavittAlgebra(construct_regular(gl))
    ev = arrival_idempotent(algl, {"v"}, 5)
    assert ev.is_exact and ev.body == parse(algl, "v")
    # whole vertex set: exactly the identity, exactly
    e_all = arrival_idempotent(alg_b, {"v", "w"}, 3)
    assert e_all.is_exact and e_all.body == alg_b.one()
    # proper set, loop special: kept terms are the orders 2k+2 below K
    ew = arrival_idempotent(alg_a, {"w"}, 6)
    assert ew.prec == 6
    assert ew.body == parse(alg_a, "w + f f* + e f f* e*")
    assert not arrival_idempotent(alg_b, {"w"}, 2).is_exact


def test_arrival_idempotent_requires_hereditary(alg_b):
    with pytest.raises(ValueError, match="not hereditary"):
        arrival_idempotent(alg_b, {"v"}, 3)


def test_arrival_idempotent_degree_zero_self_adjoint(alg_a, alg_b):
    for alg in (alg_a, alg_b):
        ew = arrival_idempotent(alg, {"w"}, 8)
        assert all(m.degree == 0 for m in ew.body.terms)
        assert ew.body.star() == ew.body


def test_vertex_idempotent_examples(alg_a, alg_b):
    ev = vertex_idempotent(alg_b, "v", 4)
    assert ev.is_exact and ev.body == parse(alg_b, "v - e e*")  # equals f f*
    ew = vertex_idempotent(alg_b, "w", 4)
    assert ew.is_exact and ew.body == parse(alg_b, "w")
    eva = vertex_idempotent(alg_a, "v", 6)
    assert eva.prec == 6
    assert eva.body == parse(alg_a, "v - f f* - e f f* e*")


def test_vertex_idempotent_sink_any_graph():
    for name in ("y", "g3", "line"):
        g = load_graph(name)
        alg = LeavittAlgebra(construct_regular(g))
        for v in g.sinks():
            t = vertex_idempotent(alg, v, 3)
            assert t.is_exact and t.body == alg.vertex(v)


def test_vertex_idempotent_carries_vertex(alg_a):
    for K in (1, 4, 10):
        for v in alg_a.graph.vertices:
            t = vertex_idempotent(alg_a, v, K)
            vp = alg_a.graph.vertex_path(v)
            assert t.body.coefficient(Monomial(vp, vp)) == alg_a.field.one


def test_vertex_idempotent_matches_branch_oracle():
    # e_v = v - C(1)_v through the recovery operator equals the branch sum
    # put through the normal-form pass, under random and regular
    # specializations, over QQ and (every fourth graph) F_7
    rng = random.Random(19)
    graphs = [load_graph(name) for name in CORPUS]
    graphs += [random_graph(rng) for _ in range(150)]
    calls = 0
    for i, g in enumerate(graphs):
        fields = (QQ, PrimeField(7)) if i % 4 == 0 else (QQ,)
        for special in (random_specialization(rng, g), construct_regular(g)):
            for field in fields:
                alg = LeavittAlgebra(special, field)
                for v in g.vertices:
                    for K in (0, Fraction(1, 2), 1, 2, Fraction(7, 3), 5, 9):
                        got = vertex_idempotent(alg, v, K)
                        want = vertex_idempotent_by_branches(alg, v, K)
                        assert (got.body, got.prec) == (want.body, want.prec), (g, v, K)
                        calls += 1
    assert calls > 10000, calls


def test_idempotent_terms_are_weight_one_projections():
    # every term of e(W) and of e_v is a projection p p* of weight
    # s + d + 1 = 1, the domain of the recovery operator ``conjugate``; on
    # seeded random graphs under construct_regular and a random
    # specialization, over every hereditary set W
    rng = random.Random(17)
    terms = 0
    for _ in range(75):
        g = random_graph(rng, 6, 11)
        sets = hereditary_sets_bruteforce(g)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special)
            for K in (Fraction(1, 2), 2, 3, Fraction(7, 2), 5):
                bodies = [arrival_idempotent(alg, W, K).body for W in sets]
                bodies += [vertex_idempotent(alg, v, K).body for v in g.vertices]
                for m in (m for body in bodies for m in body.terms):
                    assert m.left == m.right and order_key(special, m)[1] == 1, (special, K, m)
                    terms += 1
    assert terms > 10000, terms


def _diagonal_makers(rng, alg, K):
    """Zero-argument makers of fresh diagonal elements at K: e(W) over the
    frame and V, e_v over the vertices, a vertex, and sums and products of
    those."""
    g = alg.graph
    makers = [lambda W=W: arrival_idempotent(alg, W, K)
              for W in g.frame() + [frozenset(g.vertices)]]
    makers += [lambda v=v: vertex_idempotent(alg, v, K) for v in g.vertices]
    makers.append(lambda v=rng.choice(g.vertices): exact(alg.vertex(v)))
    f, h = rng.choice(makers), rng.choice(makers)
    makers += [lambda: trunc_add(f(), h()), lambda: trunc_mul(f(), h())]
    return makers


def test_diagonal_products_match_the_normal_form_product():
    # on the e(W) and e_v of seeded random graphs, under construct_regular
    # and a random specialization, over QQ and (every third graph) F_7, at
    # several K: the prefix-lookup products D D, D m and m D, for D, D'
    # diagonal and m any normal form, equal Element.__mul__, and trunc_mul
    # with a diagonal operand equals the product formed in full and then
    # truncated, the oracle trunc_mul_eager, in precision and body
    rng = random.Random(21)
    kinds = Counter()
    for i in range(40):
        g = random_graph(rng, 5, 9)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 0 else QQ)
            for K in (2, Fraction(7, 2), 5):
                makers = _diagonal_makers(rng, alg, K)
                general = [lambda a=random_element(rng, alg, terms=4, max_len=3): exact(a),
                           lambda a=random_element(rng, alg, terms=4, max_len=3): truncate(a, K)]
                for _ in range(4):
                    d, e, m = rng.choice(makers), rng.choice(makers), rng.choice(general)
                    D, E, M = d().body, e().body, m().body
                    assert completion._diagonal_times(D, E, True) == D * E, (special, K)
                    assert completion._diagonal_times(D, M, True) == D * M, (special, K)
                    assert completion._diagonal_times(D, M, False) == M * D, (special, K)
                    for f, h in ((d, e), (d, m), (m, d)):
                        x, y = f(), h()
                        assert x.diagonal or f is m, (special, K)
                        got, want = trunc_mul(x, y), trunc_mul_eager(f(), h())
                        assert got.diagonal == (x.diagonal and y.diagonal)
                        assert (got.prec, got.body) == (want.prec, want.body), (special, K)
                        kinds[f is m, h is m, bool(got.body.terms), got.is_exact] += 1
    assert len(kinds) >= 10 and min(kinds.values()) > 5, kinds


def test_diagonal_split_level_matches_the_eager_product():
    # a product of a diagonal x and an inexact y that is not diagonal reads
    # y below L and x only below the diagonal split level of the terms of
    # y read; in both orders it equals trunc_mul_eager in precision and
    # body, and a fresh read below L equals the eager body cut below L; on
    # seeded random graphs under construct_regular and a random
    # specialization, over QQ and (every third graph) F_7, with y long or
    # short, so that either bound of the split level can decide it
    rng = random.Random(29)
    seen = Counter()
    for i in range(50):
        g = random_graph(rng, 5, 9)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 0 else QQ)
            for K in (Fraction(7, 2), 9, 24):
                diagonal = _diagonal_makers(rng, alg, K)
                a, b = (random_element(rng, alg, terms=5, max_len=4) for _ in range(2))
                c = random_element(rng, alg, terms=2, max_len=2)
                level = Fraction(rng.randint(2, 48), rng.randint(1, 2))
                others = [lambda: truncate(a, level), lambda: truncate(c, level),
                          lambda: trunc_mul(exact(b), truncate(a, level))]
                for _ in range(3):
                    d, m = rng.choice(diagonal), rng.choice(others)
                    assert d().diagonal and not m().diagonal and not m().is_exact
                    for f, h in ((d, m), (m, d)):
                        got, want = trunc_mul(f(), h()), trunc_mul_eager(f(), h())
                        assert (got.prec, got.body) == (want.prec, want.body), (special, K)
                        for L in (Fraction(1, 2), 1, 2, Fraction(7, 2), 5, 8, 11):
                            if L <= want.prec:
                                assert trunc_mul(f(), h()).below(L) == _below(want.body, L)
                        seen[f is d, bool(want.body.terms)] += 1
    assert len(seen) == 4 and min(seen.values()) > 100, seen


def _recording(t: TruncatedElement, runs: list) -> TruncatedElement:
    """t with a maker that records each level it runs at; a held body,
    which has no maker, is read through a fresh element."""
    if t._make is None:
        t = TruncatedElement(t.algebra, t.prec, t.below, t.diagonal)
    maker = t._make
    t._make = lambda L: runs.append(L) or maker(L)
    return t


def test_diagonal_product_reads_the_other_operand_below_the_level():
    # a fresh product of a diagonal x (e(W), e_v or one) and any y, read
    # below L in either order, runs y's maker no higher than L (unless its
    # precision read y's whole body, when y is not diagonal and x inexact): a
    # projection never lowers the order of a basic monomial, so y's terms
    # of order >= L give x y none below L, where reading y below 2L + 3
    # took them in; each read equals the eager product cut below L; y is an
    # exact edge, ghost or monomial, a truncation, a product with a
    # truncated operand or another diagonal operand, on seeded random
    # graphs under construct_regular and a random specialization, over QQ
    # and (every third graph) F_7
    rng = random.Random(31)
    seen = Counter()
    for i in range(20):
        g = random_graph(rng, 5, 9)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 0 else QQ)
            K = rng.choice((2, Fraction(7, 2), 6))
            diagonal = [lambda W=W: arrival_idempotent(alg, W, K)
                        for W in g.frame() + [frozenset(g.vertices)]]
            diagonal += [lambda v=v: vertex_idempotent(alg, v, K) for v in g.vertices]
            diagonal.append(lambda: exact(alg.one()))
            a = random_element(rng, alg, terms=5, max_len=4)
            m = alg.element({random_monomial(rng, alg): 1})
            level = Fraction(rng.randint(2, 24), rng.randint(1, 2))
            others = {"monomial": lambda: exact(m),
                      "truncate": lambda: truncate(a, level),
                      "trunc_mul": lambda: trunc_mul(exact(m), truncate(a, level)),
                      "diagonal": rng.choice(diagonal)}
            if g.edges:
                e = rng.choice(g.edges).name
                others["edge"] = lambda: exact(alg.edge(e))
                others["ghost"] = lambda: exact(alg.ghost(e))
            for _ in range(3):
                d = rng.choice(diagonal)
                for kind, h in others.items():
                    for order in (1, -1):
                        want = trunc_mul_eager(*[d(), h()][::order])
                        for L in (0, Fraction(1, 2), 1, 2, Fraction(7, 2), 5, 8, want.prec):
                            if L is INF or L > want.prec:
                                continue
                            runs = []
                            y = _recording(h(), runs)
                            product = trunc_mul(*[d(), y][::order])
                            runs.clear()  # the precision may read y's body
                            got = product.below(L)
                            assert got == _below(want.body, L), (special, kind, order, L)
                            assert all(r <= L for r in runs), (special, kind, order, L, runs)
                            seen[kind] += bool(runs) and (y.prec is INF or L < y.prec)
    assert len(seen) == 6 and min(seen.values()) > 100, seen


def _unwrap_operands(rng, alg):
    """(kind, maker) pairs of fresh diagonal operands: e_v at low and high
    working precisions, e(W) over the frame and V, an exact vertex, zero
    and one, and an e_v that also carries a projection p p*, p a path that
    ends in a non-special edge."""
    g = alg.graph
    special = alg.special
    operands = [("e_v", lambda v=v, K=K: vertex_idempotent(alg, v, K))
                for v in g.vertices for K in (Fraction(7, 2), 150)]
    operands += [("e(W)", lambda W=W, K=K: arrival_idempotent(alg, W, K))
                 for W in g.frame() + [frozenset(g.vertices)] for K in (6, 14)]
    operands += [("exact", lambda v=rng.choice(g.vertices): exact(alg.vertex(v))),
                 ("exact", lambda: exact(alg.zero())), ("exact", lambda: exact(alg.one()))]
    paths = [random_path(rng, g, rng.choice(g.vertices), 3) for _ in range(20)]
    paths = [p for p in paths if p.edges and not special.is_special(p.edges[-1])]
    if paths:
        p, v = rng.choice(paths), rng.choice(g.vertices)
        extra = alg.element({Monomial(p, p): 1})

        def corrupted():
            t = vertex_idempotent(alg, v, 150)
            return TruncatedElement(alg, t.prec, lambda L: t.below(L) + extra
                                    if L > 2 * len(p) else t.below(L), diagonal=True)

        operands.append(("corrupted", corrupted))
    return operands


def test_unwrap_matches_the_product_chain():
    # e* D e read by prefix shift from D below L + 2 has the precision of
    # the chain (e* D) e of two truncated products, and the same read below
    # every level L <= prec, along a rising (each read runs the maker),
    # falling (each read cuts the first) or shuffled sequence on one
    # element; for every edge, special or not, and D an
    # e_v, an e(W), an exact vertex, zero or one, or an e_v corrupted by an
    # extra projection, on seeded random graphs under construct_regular and
    # a random specialization, over QQ and (every third graph) F_7
    rng = random.Random(33)
    seen = Counter()
    for i in range(40):
        g = random_graph(rng, 5, 9)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special, PrimeField(7) if i % 3 == 0 else QQ)
            for kind, d in _unwrap_operands(rng, alg):
                for e in g.edges:
                    chain = unwrap_by_products(d(), e.name)
                    prec = completion.unwrap(d(), e.name).prec
                    assert prec == chain.prec, (special, kind, e)
                    levels = [L for L in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3,
                                          Fraction(7, 2), 5, 7, prec) if L <= prec]
                    want = {L: _below(chain.body, L) for L in levels}
                    for seq in (levels, levels[::-1], rng.sample(levels, len(levels))):
                        x = completion.unwrap(d(), e.name)
                        for L in seq:
                            assert x.below(L) == want[L], (special, kind, e, seq, L)
                        assert x.body == chain.body, (special, kind, e)
                    seen[kind, special.is_special(e.name), bool(chain.body.terms)] += 1
                    seen["deep"] += len(levels) > 6 and bool(chain.body.terms)
    # e_v e = 0 for a non-special edge e, and e* e_v = 0 unless e leaves v
    assert not seen["e_v", False, True] and len(seen) == 16, seen
    assert min(seen.values()) > 40, seen


def test_diagonal_split_level_is_tight():
    # e_v for a special loop s at v and a non-special f: v -> w, with w
    # also reached by the special edge e from u, is v - f f* - s f f* s* - ...
    # Its products with v + f e* show each bound of the diagonal split level
    # at work: below 2, f e* cancels between v and f f*, and a read of e_v
    # below 2 max(|f|, |e|) = 2 would drop f f* and keep f e*; below 5,
    # s f f* s* (order 4) is kept, and a read below L(D + 1) + D - 1 = 4
    # would drop it; at the fractional level 5/2 a length-1 projection
    # needs only projections of length <= 1, so it gives 5/2 itself, the
    # level a product of two diagonal operands reads below
    g = Graph(["v", "u", "w"], [("f", "v", "w"), ("s", "v", "v"), ("e", "u", "w"),
                                ("t", "u", "u")])
    alg = LeavittAlgebra(Specialization(g, {"v": "s", "u": "e"}))
    y = parse(alg, "v + f e*")
    for swap in (False, True):
        operands = [vertex_idempotent(alg, "v", 24), truncate(y, 20)][::-1 if swap else 1]
        want = trunc_mul_eager(*operands)
        assert want.prec == Fraction(11, 2)
        assert _below(want.body, 2) == parse(alg, "v")
        assert "s f f* s*" in str(_below(want.body, 5))
        for L in (1, 2, 3, 4, 5, want.prec):
            operands = [vertex_idempotent(alg, "v", 24), truncate(y, 20)][::-1 if swap else 1]
            assert trunc_mul(*operands).below(L) == _below(want.body, L), (swap, L)
    half = Fraction(5, 2)
    assert completion._diagonal_split_level(half, parse(alg, "f f*").terms) == half


def test_diagonal_cut_by_length_matches_the_order_cut():
    # an element read below a sequence of levels, rising and falling, gives
    # at each the order cut of its whole body, though only a read above
    # every earlier one runs its maker, and the others cut the kept read:
    # by length for a diagonal element, by order for the products, sums and
    # truncations of ``_fresh_makers``
    rng = random.Random(22)
    reads = Counter()
    for i in range(30):
        g = random_graph(rng, 5, 9)
        for special in (construct_regular(g), random_specialization(rng, g)):
            alg = LeavittAlgebra(special)
            makers = [("diagonal", make) for make in _diagonal_makers(rng, alg, 6)]
            makers += [(name, make) for name, make in _fresh_makers(rng, alg)[0]
                       if name in ("trunc_mul", "trunc_add", "truncate")]
            for name, make in makers:
                body = make().body
                x, runs, want = make(), [], []
                top = None if x._read is None else x._level  # a held body is kept at prec
                maker = x._make
                x._make = lambda L, maker=maker: runs.append(L) or maker(L)
                for L in rng.sample([0, Fraction(1, 2), 1, 2, Fraction(7, 2), 4, 5, 6], 8):
                    got = x.below(L)
                    assert got == completion._below(body, L), (special, name, L)
                    reads[name] += len(body.terms) > len(got.terms)
                    if top is None or min(L, x.prec) > top:
                        top = min(L, x.prec)
                        want.append(top)
                assert runs == want, (special, name, runs)
    assert reads["diagonal"] > 500 and min(reads.values()) > 50, reads


def test_diagonal_reads_keep_the_largest(alg_a, monkeypatch):
    # e_v runs the recovery operator only for a read above every earlier
    # one; lower reads cut the kept read
    levels = []
    original = completion.conjugate

    def counting(*args):
        levels.append(args[3])
        return original(*args)

    body = vertex_idempotent(alg_a, "v", 12).body
    monkeypatch.setattr(completion, "conjugate", counting)
    ev = vertex_idempotent(alg_a, "v", 12)
    for L in (9, 5, 7, 2, 9, 0):
        assert ev.below(L) == completion._below(body, L)
    assert levels == [9]
    ev.below(11)
    assert ev.body.terms and levels == [9, 11, 12]


def test_diagonal_product_forms_no_normal_form(alg_a, alg_b, monkeypatch):
    # a product with a diagonal operand is a prefix lookup: it makes no
    # monomial_product call and no normal-form pass, and D D no order cut
    def forbidden(*args):
        raise AssertionError("normal-form product")

    cases = []
    for alg in (alg_a, alg_b, LeavittAlgebra(construct_regular(family_graph("complete", 3)))):
        g = alg.graph
        diag = [arrival_idempotent(alg, W, 6) for W in g.frame()]
        diag += [vertex_idempotent(alg, v, 6) for v in g.vertices] + [exact(alg.one())]
        edges = [exact(alg.edge(e.name)) for e in g.edges]
        edges += [exact(alg.ghost(e.name)) for e in g.edges]
        for d in diag:
            d.body  # built before the normal form is forbidden
        cases += [(d, e, d.body * e.body) for d in diag for e in diag]
        cases += [(d, e, d.body * e.body) for d in diag for e in edges]
        cases += [(e, d, e.body * d.body) for d in diag for e in edges]
    monkeypatch.setattr(algebra, "monomial_product", forbidden)
    monkeypatch.setattr(LeavittAlgebra, "_normal", forbidden)
    cut = completion._below
    for a, b, full in cases:
        with monkeypatch.context() as patch:
            if a.diagonal and b.diagonal:
                patch.setattr(completion, "_below", forbidden)
            product = trunc_mul(a, b)
            assert product.body == cut(full, product.prec)


def test_diagonal_operand_fixes_precision_unread(alg_a):
    # each term of a diagonal operand has weight 1, so its product
    # precision (k - 1)/2 never lowers trunc_mul's first bound: fixing the
    # precision never calls a diagonal operand's maker, and the precision
    # is the one the eager oracle bounds over every term
    def unread(L):
        raise AssertionError("diagonal body read")

    def operands():
        return [vertex_idempotent(alg_a, "v", 6), arrival_idempotent(alg_a, {"w"}, 5),
                trunc_mul(vertex_idempotent(alg_a, "v", 9), vertex_idempotent(alg_a, "v", 4)),
                truncate(parse(alg_a, "v - f f* - e f f* e* + e f*"), 3),
                exact(parse(alg_a, "e")), exact(parse(alg_a, "f* e*"))]

    want = [trunc_mul_eager(a, b).prec for a in operands() for b in operands()]
    stand_ins = [TruncatedElement(alg_a, t.prec, unread, diagonal=True) if t.diagonal else t
                 for t in operands()]
    assert [t.is_exact for t in stand_ins if t.diagonal] == [False, False, False]
    assert [trunc_mul(a, b).prec for a in stand_ins for b in stand_ins] == want


def test_walk_increment_orders(alg_a):
    # consecutive walk projections differ by terms of order >= 2(n+1) - 1
    g, s = alg_a.graph, alg_a.special
    for v in g.vertices:
        for n in range(5):
            p0 = s.orbit_path(v, n)
            p1 = s.orbit_path(v, n + 1)
            a = alg_a.element({Monomial(p1, p1): 1}) - alg_a.element({Monomial(p0, p0): 1})
            if a.is_zero:
                continue
            assert min_order(a) >= 2 * (n + 1) - 1


def test_trunc_mul_sound_on_random_elements(alg_a, alg_b):
    # the exact product of the true values always agrees with the truncated
    # product at its advertised precision
    from conftest import random_element

    rng = random.Random(99)
    for alg in (alg_a, alg_b):
        for _ in range(150):
            a_full = random_element(rng, alg, terms=4, max_len=5)
            b_full = random_element(rng, alg, terms=4, max_len=5)
            a_lo = truncate(a_full, Fraction(rng.randint(1, 6)))
            b_lo = truncate(b_full, Fraction(rng.randint(1, 6)))
            lo = trunc_mul(a_lo, b_lo)
            hi = exact(a_full * b_full)
            assert equal_mod(lo, hi, lo.prec)


def test_recompute_at_higher_precision_agrees(alg_a, alg_b):
    # recomputing at a higher working precision and truncating back matches
    # the advertised congruence level
    for alg in (alg_a, alg_b):
        for K in (2, 4):
            lo = arrival_idempotent(alg, {"w"}, K)
            hi = arrival_idempotent(alg, {"w"}, 4 * K)
            assert equal_mod(lo, truncate(hi.body, K), K)
            lo2 = trunc_mul(lo, lo)
            hi2 = trunc_mul(hi, hi)
            level = min(lo2.prec, hi2.prec)
            assert equal_mod(lo2, hi2, level)


def test_render_with_tail_marker(alg_a):
    t = truncate(parse(alg_a, "v - f f*"), Fraction(7, 2))
    assert t.render() == "v - f f* + O(V_7/2)"
    assert exact(parse(alg_a, "v")).render() == "v"


def test_mixed_specializations_rejected(alg_a, alg_b):
    with pytest.raises(ValueError, match="different algebras"):
        trunc_add(exact(alg_a.one()), exact(alg_b.one()))
    with pytest.raises(ValueError, match="different algebras"):
        equal_mod(exact(alg_a.one()), exact(alg_b.one()), 2)
