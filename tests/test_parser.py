"""Expression grammar: tokens, precedence, and positioned errors."""

from fractions import Fraction

import pytest

from normord.parser import (
    MAX_LETTERS,
    MAX_NESTING,
    MAX_WORDS,
    LimitError,
    ParseError,
    parse_expr,
    tokenize,
)
from normord.weyl import BosonExpr


def word_of(expr: BosonExpr):
    assert len(expr.terms) == 1
    return next(iter(expr.terms.items()))


def test_single_letters():
    w, c = word_of(parse_expr("a"))
    assert w == (0,) and c == 1
    w, c = word_of(parse_expr("ad"))
    assert w == (1,) and c == 1
    w, c = word_of(parse_expr("a†"))
    assert w == (1,) and c == 1


def test_products_and_powers():
    w, _ = word_of(parse_expr("a*(ad*a)"))
    assert w == (0, 1, 0)
    w, _ = word_of(parse_expr("a^2*(ad*a)"))
    assert w == (0, 0, 1, 0)
    # power binds tighter than product
    w, _ = word_of(parse_expr("ad*a^2"))
    assert w == (1, 0, 0)
    w, _ = word_of(parse_expr("(a*ad)^2"))
    assert w == (0, 1, 0, 1)


def test_rational_coefficients():
    w, c = word_of(parse_expr("3/2 * ad"))
    assert w == (1,) and c == Fraction(3, 2)
    w, c = word_of(parse_expr("2*3*a"))
    assert w == (0,) and c == 6


def test_sum_and_like_term_merge():
    e = parse_expr("ad*a + 2*a^2")
    assert e.terms == {(1, 0): Fraction(1), (0, 0): Fraction(2)}
    e = parse_expr("a + a")
    assert e.terms == {(0,): Fraction(2)}
    e = parse_expr("a - a")
    assert e.terms == {}


def test_sum_power_expands():
    e = parse_expr("(a + ad)^2")
    assert e.terms == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 0): Fraction(1),
        (1, 1): Fraction(1),
    }


def test_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_expr("a*)(")
    assert ei.value.position == 2
    with pytest.raises(ParseError) as ei:
        parse_expr("a*")
    assert ei.value.position == 2
    with pytest.raises(ParseError) as ei:
        parse_expr("")
    assert ei.value.position == 0
    with pytest.raises(ParseError):
        parse_expr("b*a")
    with pytest.raises(ParseError):
        parse_expr("a^x")


def test_tokenizer_reports_bad_character():
    with pytest.raises(ParseError) as ei:
        tokenize("a $ a")
    assert ei.value.position == 2


def test_whitespace_insensitive():
    assert parse_expr(" a * ad ").terms == parse_expr("a*ad").terms


def test_nesting_limit():
    deep = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert word_of(parse_expr(deep)) == ((0,), 1)
    with pytest.raises(ParseError) as ei:
        parse_expr("(" + deep + ")")
    assert ei.value.position == MAX_NESTING


def test_letter_limit():
    assert MAX_LETTERS >= 10_000  # ten times a 1000-letter word
    w, _ = word_of(parse_expr(f"(a^100)^{MAX_LETTERS // 100}"))
    assert len(w) == MAX_LETTERS
    for text in (f"(a^100)^{MAX_LETTERS // 100 + 1}",  # a power
                 f"a^{MAX_LETTERS} ad",                  # a product
                 "a^99999999999",
                 f"2^{MAX_LETTERS + 1}"):                # a scalar's power
        with pytest.raises(LimitError):
            parse_expr(text)
    assert issubclass(LimitError, ValueError)


def test_word_limit():
    # terms that merge stay small; the check counts the words formed
    assert len(parse_expr("(1 + a)^40").terms) == 41
    assert len(parse_expr("(a + ad)^12").terms) == 2**12
    assert MAX_WORDS < 512 * 512
    with pytest.raises(LimitError, match="--power"):
        parse_expr("(a + ad)^9 (a + ad)^9")  # a product of two 512-word sums
