"""Row routes against the independent paths they replace in the CLI.

The rook kernel normal-orders a word by one falling-factorial step per
creator; `row_power` raises a one-shift operator to a power as one row.
Each is compared with the rewriters, the contraction fold and the
`nf_mul` power fold, none of which uses `backend.ff_step`.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from normord import backend
from normord.parser import parse_expr
from normord.weyl import (
    BosonExpr,
    NormalForm,
    normal_order_rewrite,
    normal_order_rook,
    normal_order_word_rightmost,
    row_power,
    word_product_normal_form,
    word_to_normal_form,
)

words = st.lists(st.integers(min_value=0, max_value=1), max_size=14).map(tuple)


def rook(word):
    return NormalForm(backend.rook_normal_order_word(word))


def test_ff_step_multiplies_by_n_plus_c():
    # N^(1) (N + 2) = N^(2) + 3 N^(1);  (1 + N)(N - 1) = N^(2) + N^(1) - 1
    assert backend.ff_step([0, 1], 2) == [0, 3, 1]
    assert backend.ff_step([1, 1], -1) == [-1, 1, 1]


def test_rook_kernel_elementary_words():
    assert backend.rook_normal_order_word(()) == {(0, 0): 1}
    assert backend.rook_normal_order_word((0, 1)) == {(1, 1): 1, (0, 0): 1}
    assert backend.rook_normal_order_word((1, 1, 0)) == {(2, 1): 1}
    assert backend.rook_normal_order_word((0, 0, 1, 0)) == {(1, 3): 1, (0, 2): 2}


@settings(max_examples=300, deadline=None)
@given(words)
def test_rook_kernel_matches_rewriters_and_fold(w):
    got = rook(w)
    assert got == word_to_normal_form(w)
    assert got == normal_order_word_rightmost(w)
    assert got == word_product_normal_form(w)


def test_rook_kernel_on_a_balanced_300_letter_word():
    rng = random.Random(300)
    word = []
    for _ in range(50):
        block = [0, 0, 0, 1, 1, 1]
        rng.shuffle(block)
        word += block
    got = rook(word)
    assert len(got.terms) > 100
    assert got == word_product_normal_form(word)


def test_normal_order_rook_handles_sums():
    expr = parse_expr("2 a ad - 1/3 ad a + a^2 ad^2")
    assert normal_order_rook(expr) == normal_order_rewrite(expr)
    assert normal_order_rook(parse_expr("a ad - ad a")) == NormalForm.one()
    assert normal_order_rook(BosonExpr()) == NormalForm.zero()


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def one_shift_forms(draw):
    """NormalForms whose terms all have ann - dag = s, for s in -3..3."""
    s = draw(st.integers(min_value=-3, max_value=3))
    coeffs = draw(st.dictionaries(st.integers(min_value=0, max_value=3),
                                  coefficients, min_size=1, max_size=4))
    return NormalForm({(d + max(-s, 0), d + max(s, 0)): c
                       for d, c in coeffs.items()})


@settings(max_examples=150, deadline=None)
@given(one_shift_forms(), st.integers(min_value=0, max_value=12))
def test_row_power_matches_nf_mul_fold(nf, p):
    assert row_power(nf, p) == nf**p


def test_row_power_of_words_and_named_operators():
    for text, p in (("a (ad a)^3", 20), ("ad (ad a)^2 + 1/2 ad", 6),
                    ("1/3 a^2 + 2/7 ad a^3", 9), ("2/3", 4)):
        base = normal_order_rewrite(parse_expr(text))
        assert row_power(base, p) == base**p


def test_row_power_declines_mixed_shifts():
    assert row_power(normal_order_rewrite(parse_expr("a + ad")), 5) is None
    assert row_power(NormalForm.zero(), 3) == NormalForm.zero()
    assert row_power(NormalForm.zero(), 0) == NormalForm.one()
