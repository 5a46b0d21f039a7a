import random

import pytest

from leavitt import LeavittAlgebra, ParseError, PrimeField, construct_regular, parse, render

from conftest import load_graph, random_element


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
