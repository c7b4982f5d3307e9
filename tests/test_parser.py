"""Expression grammar: tokens, precedence, and positioned errors."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normord import parser
from normord.parser import (
    MAX_LETTERS,
    MAX_NESTING,
    MAX_WORDS,
    LimitError,
    ParseError,
    check_order,
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
    # the end token is named, not printed as None
    with pytest.raises(ParseError, match="unexpected 'end of input'") as ei:
        parse_expr("(")
    assert ei.value.position == 1
    with pytest.raises(ParseError, match="expected 'int', found 'end of input'") as ei:
        parse_expr("a^")
    assert ei.value.position == 2
    # an int is ASCII digits: an Arabic-Indic three is no integer
    with pytest.raises(ParseError) as ei:
        parse_expr("٣")
    assert ei.value.position == 0


def test_tokenizer_reports_bad_character():
    with pytest.raises(ParseError) as ei:
        tokenize("a $ a")
    assert ei.value.position == 2
    # str.isdigit holds for these, and int() refuses the superscript
    for text, position in (("a²", 1), ("𝟙a", 0), ("2٣", 1)):
        with pytest.raises(ParseError, match="unexpected character") as ei:
            tokenize(text)
        assert ei.value.position == position


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


# The benchmark's `order --expectation` requests at their largest (its
# points are a/b + (c/e)i with one-digit parts), the CI smoke run, and
# (a + ad)^200 at 1e100, which takes about 1.6 s.
_POINT = (Fraction(9, 7), Fraction(-9, 8))


@pytest.mark.parametrize("text,p,z", [
    ("(ad a)^40", 1, _POINT),
    ("a (ad a)", 30, _POINT),
    ("a (ad a)^2", 15, _POINT),
    ("a^2 (ad a)^2", 15, _POINT),
    ("a^2 (ad a)^3", 10, _POINT),
    ("a^3 (ad a)^2", 15, _POINT),
    ("(ad a)^3", 1, (Fraction(1, 2), Fraction(1))),
    ("a + ad", 200, (Fraction(10**100), Fraction(0))),
])
def test_expectation_work_within_the_limit(text, p, z):
    check_order(parse_expr(text), p, z)


def test_expectation_work_past_the_limit():
    # (a + ad)^200 at 1e1000 ran past 10 s before the limit
    with pytest.raises(LimitError, match=r"about 4\.1e\+09 digit operations, "
                                         r"past the limit of 5e\+08"):
        check_order(parse_expr("a + ad"), 200, (Fraction(10**1000), Fraction(0)))


def test_word_limit():
    # terms that merge stay small; the check counts the words formed
    assert len(parse_expr("(1 + a)^40").terms) == 41
    assert len(parse_expr("(a + ad)^12").terms) == 2**12
    assert MAX_WORDS < 512 * 512
    with pytest.raises(LimitError, match="--power"):
        parse_expr("(a + ad)^9 (a + ad)^9")  # a product of two 512-word sums


_A, _AD = BosonExpr.from_word((0,)), BosonExpr.from_word((1,))


def _one(c):
    return BosonExpr.scalar(Fraction(c))


def _power(base, k):
    return reduce(mul, [base] * k, _one(1))


# Atoms as written, and as built one letter or factor at a time.
_ATOMS = [
    ("a", _A), ("ad", _AD), ("a†", _AD), ("n", _AD * _A),
    ("3", _one(3)), ("1/2", _one(Fraction(1, 2))), ("0", _one(0)),
    ("(a + ad)", _A + _AD), ("(1 - a)", _one(1) - _A), ("(a - a)", _one(0)),
    ("(ad a)^3", _power(_AD * _A, 3)), ("a^0", _one(1)),
    ("(2 a ad)^2", _power(_one(2) * _A * _AD, 2)),
    ("(a + ad)^6", _power(_A + _AD, 6)), ("(1 + a)^5", _power(_one(1) + _A, 5)),
    ("(ad - 1/3 a)^2", _power(_AD - _one(Fraction(1, 3)) * _A, 2)),
]


def _per_factor(factors):
    """A term's value and bounds as a product taken one factor at a time."""
    out = factors[0]
    for rhs in factors[1:]:
        longest = max(map(len, out.terms), default=0) + max(map(len, rhs.terms), default=0)
        if longest > parser.MAX_LETTERS:
            return f"a product would reach {longest} letters"
        if len(out.terms) * len(rhs.terms) > parser.MAX_WORDS:
            return f"a product would pair {len(out.terms) * len(rhs.terms)} words"
        out = out * rhs
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(range(len(_ATOMS))),
                                   st.sampled_from([" ", " * ", ""])),
                         min_size=1, max_size=14),
                min_size=1, max_size=3),
       st.sampled_from([" + ", " - "]))
def test_parsed_term_is_the_per_factor_product(terms, joiner):
    # small limits, so that products past either bound are drawn often;
    # the same first bound is hit, with the same message, at the same factor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser, "MAX_LETTERS", 24)
        mp.setattr(parser, "MAX_WORDS", 300)
        text, want = [], _one(0)
        for i, term in enumerate(terms):
            # "" joins only before a parenthesis, where no letters run together
            text.append(_ATOMS[term[0][0]][0] + "".join(
                (sep if _ATOMS[k][0][0] == "(" else " ") + _ATOMS[k][0]
                for k, sep in term[1:]))
            if isinstance(want, str):
                continue
            value = _per_factor([_ATOMS[k][1] for k, _ in term])
            if isinstance(value, str):
                want = value
            else:
                want = want - value if i and joiner == " - " else want + value
        if isinstance(want, str):
            with pytest.raises(LimitError, match=want):
                parse_expr(joiner.join(text))
        else:
            assert parse_expr(joiner.join(text)) == want


def test_long_word_parses_to_one_word():
    # 20000 one-letter factors, joined once (one factor at a time, the
    # product copied about 2e8 letters)
    word = parse_expr("ad a " * 10_000)
    assert word.terms == {(1, 0) * 10_000: 1}
