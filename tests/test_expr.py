import gc
import random
import weakref

import pytest

from leavitt import (Graph, LeavittAlgebra, ParseError, PrimeField, construct_regular, parse,
                     render)

from conftest import corpus_graphs, load_graph, parse_by_products, random_element


def test_parse_examples(alg_a):
    assert render(parse(alg_a, "e e* + 1/2 f f*")) == "v - 1/2 f f*"
    assert render(parse(alg_a, "(e f)* e")) == "f*"
    assert render(parse(alg_a, "v")) == "v"
    assert render(parse(alg_a, "0")) == "0"
    assert parse(alg_a, "1") == alg_a.one()
    assert render(parse(alg_a, "e  \n e*")) == "v - f f*"


def test_unknown_name(alg_a):
    with pytest.raises(ParseError, match="unknown name 'x'") as info:
        parse(alg_a, "v + x")
    assert info.value.line == 1 and info.value.col == 5


def test_syntax_errors_carry_position_and_expectations(alg_a):
    with pytest.raises(ParseError) as info:
        parse(alg_a, "v + ")
    assert info.value.expected
    assert info.value.col == 5
    with pytest.raises(ParseError) as info:
        parse(alg_a, "(v")
    assert "')'" in info.value.expected
    with pytest.raises(ParseError, match="zero denominator"):
        parse(alg_a, "1/0 v")
    # a denominator is tested in the field: over F_7 a multiple of 7 is zero
    f7 = LeavittAlgebra(alg_a.special, PrimeField(7))
    for text in ("1/7 v", "1/14 v", "7/7 v", "1/0 v"):
        with pytest.raises(ParseError, match="zero denominator") as info:
            parse(f7, text)
        assert (info.value.line, info.value.col) == (1, 3)
    assert parse(f7, "1/8 v") == parse(f7, "v")
    with pytest.raises(ParseError, match="stray character"):
        parse(alg_a, "v + $")
    # digits that int() rejects are not numbers
    for text, col in (("\u00b2", 1), ("1/\u00b2", 3)):
        with pytest.raises(ParseError, match="stray character") as info:
            parse(alg_a, text)
        assert info.value.col == col
    assert parse(alg_a, "\u0663 v") == parse(alg_a, "3 v")


def test_noncomposable_product_is_zero(alg_a):
    assert parse(alg_a, "f e").is_zero
    assert parse(alg_a, "w e").is_zero


def test_leading_minus(alg_a):
    assert render(parse(alg_a, "-v + e")) == "-v + e"
    assert render(parse(alg_a, "- 2 v")) == "-2 v"


def test_round_trip_random(alg_a, alg_b):
    rng = random.Random(13)
    for _ in range(500):
        alg = alg_a if rng.random() < 0.5 else alg_b
        a = random_element(rng, alg, terms=4, max_len=4)
        assert parse(alg, render(a)) == a


def test_round_trip_prime_field():
    g = load_graph("y")
    alg = LeavittAlgebra(construct_regular(g), PrimeField(7))
    rng = random.Random(14)
    for _ in range(200):
        a = random_element(rng, alg, terms=4, max_len=3)
        assert parse(alg, render(a)) == a


def test_parser_total_on_fuzz(alg_a):
    # random token soup either parses or raises a positioned ParseError
    rng = random.Random(15)
    atoms = ["v", "w", "e", "f", "x", "*", "+", "-", "(", ")", "1", "2/3", " ", "/"]
    for _ in range(400):
        text = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 12)))
        try:
            parse(alg_a, text)
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1


def random_text(rng: random.Random, g, depth: int = 2) -> str:
    """A random expression over ``g``: coefficients (zero among them),
    bare coefficients, runs of vertices, edges and ghosts that mostly
    compose but sometimes vanish, and starred, nested and coefficient-led
    parenthesised factors."""
    gens = [(v, v, v) for v in g.vertices]
    gens += [(e.name, e.src, e.dst) for e in g.edges]
    gens += [(e.name + "*", e.dst, e.src) for e in g.edges]
    terms = []
    for i in range(rng.randint(1, 3)):
        pieces = []
        if rng.random() < 0.4:
            pieces.append(rng.choice(["0", "1", "2", "3/4", "5/2", "7", "9/8"]))
        at = None
        for _ in range(rng.randint(0 if pieces else 1, 4)):
            if depth and rng.random() < 0.15:
                pieces.append("(" + random_text(rng, g, depth - 1) + ")"
                              + ("*" if rng.random() < 0.4 else ""))
                at = None
                continue
            fits = [x for x in gens if at is None or x[1] == at]
            name, _, at = rng.choice(fits if fits and rng.random() < 0.85 else gens)
            pieces.append(name)
        sign = rng.choice(["-", "+"]) if i else rng.choice(["-", ""])
        terms.append(f"{sign} {' '.join(pieces)}".strip())
    return " ".join(terms)


@pytest.mark.parametrize("text", [
    "2 (v)", "2 (v)*", "3/4 (e f)* e", "2 (e) f", "e (2 f) f*", "((e) f)* (e* e)",
    "-(e - f)* + 2 (e e*) f", "f e", "2 f e v", "f e (e + f)", "(f e)* + f e e*",
    "3", "0", "0 e", "0 (e)", "- 2/3 + v", "e v e*", "v e w", "e e f f* e*",
    "e* e e* f", "1/2 f f* + e e*",
])
def test_parse_matches_products_oracle_on_cases(alg_a, alg_b, text):
    for alg in (alg_a, alg_b, LeavittAlgebra(alg_a.special, PrimeField(7))):
        assert parse(alg, text) == parse_by_products(alg, text)


def test_parse_matches_products_oracle_on_random_expressions(alg_a, alg_b):
    # a term is one path product normalised once; the oracle multiplies
    # its factors one at a time, which gives the same unique normal form
    rng = random.Random(17)
    algebras = [alg_a, alg_b]
    for g in corpus_graphs().values():
        special = construct_regular(g)
        algebras += [LeavittAlgebra(special), LeavittAlgebra(special, PrimeField(7))]
    seen = set()
    count = 0
    for alg in algebras:
        for _ in range(140):
            text = random_text(rng, alg.graph)
            a = parse(alg, text)
            assert a == parse_by_products(alg, text), text
            count += 1
            seen.add(a.is_zero)
    assert count >= 2000 and seen == {True, False}


def test_unknown_name_after_a_vanished_run(alg_a):
    # ``f e`` is zero already, yet the names after it are still resolved
    for text, col in (("f e x", 5), ("(f e x)", 6), ("v (f e x) + e", 8),
                      ("2 f e* e x* v", 10), ("f e (e) x", 9)):
        for parser in (parse, parse_by_products):
            with pytest.raises(ParseError, match="unknown name 'x'") as info:
                parser(alg_a, text)
            assert (info.value.line, info.value.col) == (1, col), text


def test_zero_denominator_positions_unchanged(alg_a):
    f7 = LeavittAlgebra(alg_a.special, PrimeField(7))
    for alg, text, col in ((alg_a, "f e + 1/0 v", 9), (alg_a, "(f e) (1/0 v)", 10),
                           (f7, "e\n + 2/14 (f e)", 6), (f7, "(v - 3/7)", 8)):
        line = 2 if "\n" in text else 1
        for parser in (parse, parse_by_products):
            with pytest.raises(ParseError, match="zero denominator") as info:
                parser(alg, text)
            assert (info.value.line, info.value.col) == (line, col), text


def test_parse_errors_match_products_oracle_on_fuzz(alg_a):
    rng = random.Random(18)
    atoms = ["v", "w", "e", "f", "x", "*", "+", "-", "(", ")", "1", "0", "2/3", "1/0",
             " ", "/", "\n"]
    for _ in range(600):
        text = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 14)))
        outcomes = []
        for parser in (parse, parse_by_products):
            try:
                outcomes.append(parser(alg_a, text))
            except ParseError as exc:
                outcomes.append((str(exc), exc.line, exc.col, exc.expected))
        assert outcomes[0] == outcomes[1], text


def test_one_normalisation_per_term(alg_a, monkeypatch):
    # the optimisation's guard: a term without parentheses is normalised
    # once, not once per factor as the product-by-product evaluation does
    calls = []
    normal = LeavittAlgebra._normal

    def counting(self, raw, chooser=None):
        calls.append(len(raw))
        return normal(self, raw, chooser)

    monkeypatch.setattr(LeavittAlgebra, "_normal", counting)
    text = "2 e e f - 1/2 e* + e f f* e* - 3 v e e e* + e* e f f*"
    parse(alg_a, text)
    assert len(calls) == 5
    calls.clear()
    parse_by_products(alg_a, text)
    assert len(calls) == 14


def test_name_table_does_not_keep_the_graph_alive():
    alg = LeavittAlgebra(construct_regular(Graph(["a", "b"], [("x", "a", "b"), ("y", "a", "a")])))
    assert parse(alg, "y x x* y*") == parse_by_products(alg, "y x x* y*")
    assert alg.generators is alg.generators
    ref = weakref.ref(alg.graph)
    del alg
    gc.collect()
    assert ref() is None
