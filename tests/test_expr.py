import gc
import random
import re
import sys
import time
import weakref
from fractions import Fraction

import pytest

from leavitt import (QQ, Graph, LeavittAlgebra, ParseError, PrimeField, construct_regular,
                     parse, render)
from leavitt import algebra, expr
from leavitt.graph import Path

from conftest import (corpus_graphs, load_graph, parse_by_products, random_element,
                      tokenize_by_characters)


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


def test_rational_coefficients_are_int_when_integral():
    # QQ makes an int of a coefficient whose denominator is 1, a bool too
    assert QQ.coerce(True) == 1 and type(QQ.coerce(True)) is int
    assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.ratio(4, 2) == 2
    assert type(QQ.ratio(4, 2)) is int and type(QQ.ratio(-3, 1)) is int
    assert type(QQ.ratio(1, 2)) is Fraction and QQ.ratio(2, 4) == Fraction(1, 2)
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.one) is int


def test_round_trip_mixed_int_and_fraction_coefficients(alg_a, alg_b):
    # int and Fraction coefficients print, compare and hash alike: a sum
    # of fractions that is integral, such as 1/2 e e* + 1/2 e e*, keeps a
    # Fraction coefficient, renders as an integer and parses back as an
    # int, and a parse makes an int of every integral coefficient
    half = parse(alg_a, "1/2 e e*")
    whole = half + half
    assert {type(c) for c in whole.terms.values()} == {Fraction}
    assert render(whole) == "v - f f*" and parse(alg_a, render(whole)) == whole
    assert sorted(map(hash, whole.terms.values())) == [hash(-1), hash(1)]
    rng = random.Random(16)
    for _ in range(300):
        alg = alg_a if rng.random() < 0.5 else alg_b
        pairs = [(m, c if rng.random() < 0.5 else Fraction(c * rng.choice((1, 2, 3)),
                                                           rng.choice((1, 2, 3))))
                 for m, c in random_element(rng, alg, terms=4, max_len=4).terms.items()]
        a = alg.element(pairs)
        a = a + a.scale(QQ.ratio(1, 2)) if rng.random() < 0.5 else a
        back = parse(alg, render(a))
        assert back == a, render(a)
        for m, c in back.terms.items():
            assert hash(c) == hash(a.terms[m]) and (type(c) is int) == (c.denominator == 1)


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

    def counting(self, pairs):
        calls.append(pairs)
        return normal(self, pairs)

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


def _outcome(parser, alg, text):
    try:
        return parser(alg, text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col, exc.expected)


def test_tokenizer_matches_character_loop_on_fuzz(alg_a):
    # the regex scan against the character loop it replaced, through the
    # whole parser: same element, or same message, position and
    # expectations.  The atoms probe each character class: only [ \t\r\n]
    # are blanks (\x0b and the no-break space are stray), a name starts
    # with str.isalpha ("_a" and "²" are stray, "a²" and "é" are names),
    # and an integer is str.isdecimal ("٣" is three).  Texts end in blanks
    # too: a (.) catch-all, in a scan run to the end of the text, reports a
    # trailing blank as stray.
    rng = random.Random(19)
    f7 = LeavittAlgebra(alg_a.special, PrimeField(7))
    atoms = ["v", "w", "e", "f", "x", "e*", "*", "+", "-", "(", ")", "/", "0", "1", "12",
             "2/3", " ", "\n", "\t", "\r", "\x0b", "\xa0", "_a", "a_", "\u00b2", "\u0663",
             "\u00e9", "3a", "a\u00b2", "$"]
    blanks = ["", " ", "\n", "\t", "\r", " \r\n\t "]
    errors = 0
    for i in range(2400):
        text = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 12)))
        text += rng.choice(blanks)
        alg = f7 if i % 3 == 0 else alg_a
        got = _outcome(parse, alg, text)
        assert got == _outcome(parse_by_products, alg, text), repr(text)
        errors += isinstance(got, tuple)
    assert 500 < errors < 2300


def test_tokens_are_kind_text_offset(alg_a):
    assert expr._tokenize("2 e*\n+ \u0663/x\t") == [
        ("INT", "2", 0), ("NAME", "e", 2), ("*", "*", 3), ("+", "+", 5),
        ("INT", "\u0663", 7), ("/", "/", 8), ("NAME", "x", 9), ("END", "", 11)]
    assert [(t.kind, t.text) for t in tokenize_by_characters("2 e*\n+ \u0663/x\t")] == [
        (kind, text) for kind, text, _ in expr._tokenize("2 e*\n+ \u0663/x\t")]


def test_character_classes_match_str_methods():
    # the scan relies on \d being str.isdecimal and \w being isalnum or "_"
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\d", everything)) == {c for c in everything if c.isdecimal()}
    assert set(re.findall(r"\w", everything)) == {
        c for c in everything if c.isalnum() or c == "_"}


def test_trailing_blanks_are_scanned_once(alg_a):
    # a scan retried from each trailing blank is quadratic: 20,000 blanks
    # would take about a minute; one pass takes milliseconds
    text = "e e*" + " \t\r\n" * 5000
    t0 = time.process_time()
    assert parse(alg_a, text) == parse(alg_a, "e e*")
    assert time.process_time() - t0 < 2.0


def test_runs_fold_without_structural_products(alg_a, monkeypatch):
    # a term without parentheses is one run of names, folded on edge names
    calls = []

    def counting(m1, m2):
        calls.append((m1, m2))
        return product(m1, m2)

    product = algebra.monomial_product
    monkeypatch.setattr(algebra, "monomial_product", counting)
    monkeypatch.setattr(expr, "monomial_product", counting, raising=False)
    parse(alg_a, "2 e e f - 1/2 e* + e f f* e* - 3 v e e e* + e* e f f* + f e")
    assert calls == []
    parse(alg_a, "(e) e")
    assert calls


def test_a_run_builds_two_paths(alg_a, monkeypatch):
    # one Monomial p q* per run: its two paths and nothing per factor
    text = "v e e e* e e e f f* e*"
    expected = parse_by_products(alg_a, text)
    assert str(expected) == "e e e e f f* e*"
    parse(alg_a, "v")  # builds the name table
    made = []
    new = Path.__new__

    def counting(cls, *fields):
        made.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(Path, "__new__", counting)
    assert parse(alg_a, text) == expected
    assert len(made) <= 2


def test_runs_hold_the_graphs_name_strings():
    # a run's paths take their names from the name table, not from the
    # token texts, so retained elements share one string per name
    g = Graph(["top", "bottom"], [("down", "top", "bottom"), ("loop", "top", "top")])
    alg = LeavittAlgebra(construct_regular(g))
    own = {name: name for name in g.vertices + tuple(e.name for e in g.edges)}
    a = parse(alg, "loop loop down down* loop* + 2 top loop*")
    assert len(a.terms) == 3
    for m in a.terms:
        for p in (m.left, m.right):
            assert all(s is own[s] for s in (p.start, p.end, *p.edges)), m
