"""The graded-row kernel against the independent paths it replaces in the CLI.

`backend.graded_step` right-multiplies a normal form, held as one
falling-factorial row per shift s = ann - dag, by one letter.
`normal_order_rook` runs it over each word of an expression and
`normal_order_power` over p factors of any base.  Each is compared with
the rewriters, the contraction fold, the action on x^p and the `nf_mul`
power fold, none of which uses `backend.ff_step` or the kernel.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from normord import backend
from normord.parser import parse_expr
from normord.weyl import (
    BosonExpr,
    NormalForm,
    apply_word_to_monomial,
    normal_order_power,
    normal_order_rewrite,
    normal_order_rook,
    word_product_normal_form,
    word_to_normal_form,
)
from oracles import normal_order_word_rightmost

words = st.lists(st.integers(min_value=0, max_value=1), max_size=14).map(tuple)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def rook(word):
    return normal_order_rook(BosonExpr.from_word(word))


def run_word(word):
    state = {0: [1]}
    for letter in word:
        state = backend.graded_step(state, letter)
    return state


def as_normal_form(state):
    """{s: row} read out term by term: row[d] is the coefficient of N^(d)."""
    return NormalForm({(d + max(-s, 0), d + max(s, 0)): g
                       for s, row in state.items() for d, g in enumerate(row)})


def as_words(nf):
    """A normal form as a free-algebra element: ad^k a^l spelled out."""
    return BosonExpr({(1,) * k + (0,) * l: c for (k, l), c in nf.terms.items()})


def test_ff_step_multiplies_by_n_plus_c():
    # N^(1) (N + 2) = N^(2) + 3 N^(1);  (1 + N)(N - 1) = N^(2) + N^(1) - 1
    assert backend.ff_step([0, 1], 2) == [0, 3, 1]
    assert backend.ff_step([1, 1], -1) == [-1, 1, 1]


def test_rook_kernel_elementary_words():
    assert run_word(()) == {0: [1]}
    assert run_word((0, 1)) == {0: [1, 1]}            # a ad = 1 + N
    assert run_word((1, 1, 0)) == {-1: [0, 1]}        # ad^2 a = ad N
    assert run_word((0, 0, 1, 0)) == {2: [2, 1]}      # (N + 2) a^2
    assert rook(()).terms == {(0, 0): 1}
    assert rook((0, 1)).terms == {(1, 1): 1, (0, 0): 1}
    assert rook((1, 1, 0)).terms == {(2, 1): 1}
    assert rook((0, 0, 1, 0)).terms == {(1, 3): 1, (0, 2): 2}


@st.composite
def graded_states(draw):
    """{s: row} with shifts of both signs and zero, rows of 1-4 entries."""
    shifts = draw(st.sets(st.integers(min_value=-3, max_value=3), min_size=1,
                          max_size=4))
    return {s: draw(st.lists(st.integers(min_value=-6, max_value=6),
                             min_size=1, max_size=4)) for s in shifts}


@settings(max_examples=200, deadline=None)
@given(graded_states(), st.integers(min_value=0, max_value=1))
def test_graded_step_is_the_nf_mul_product_by_one_letter(state, letter):
    letter_nf = NormalForm.creator() if letter else NormalForm.annihilator()
    assert (as_normal_form(backend.graded_step(state, letter))
            == as_normal_form(state) * letter_nf)


@settings(max_examples=300, deadline=None)
@given(words, st.integers(min_value=0, max_value=8))
def test_rook_kernel_matches_rewriters_and_fold(w, p):
    got = rook(w)
    assert got == word_to_normal_form(w)
    assert got == normal_order_word_rightmost(w)
    assert got == word_product_normal_form(w)
    assert got == as_normal_form(run_word(w))
    # the action on x^p (a -> d/dx, ad -> x), applied letter by letter
    assert got.apply_to_monomial(p) == apply_word_to_monomial(w, p)


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
    # a one-shift base keeps one row: the product G(N) G(N+s) ... G(N+(p-1)s)
    assert normal_order_power(as_words(nf), p) == nf**p


def test_row_power_of_words_and_named_operators():
    for text, p in (("a (ad a)^3", 20), ("ad (ad a)^2 + 1/2 ad", 6),
                    ("1/3 a^2 + 2/7 ad a^3", 9), ("2/3", 4)):
        base = normal_order_rewrite(parse_expr(text))
        assert normal_order_power(parse_expr(text), p) == base**p


# words of up to 4 letters, so the expanded power stays small for the rewriter
short_exprs = st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=1), max_size=4).map(tuple),
    coefficients, max_size=3).map(BosonExpr)


@settings(max_examples=200, deadline=None)
@given(short_exprs, st.integers(min_value=0, max_value=5))
def test_graded_power_matches_fold_and_rewriter(expr, p):
    # mixed, negative and zero shifts, rational coefficients, the zero form
    got = normal_order_power(expr, p)
    assert got == normal_order_rewrite(expr) ** p
    if p <= 3:
        power = BosonExpr.scalar(1)
        for _ in range(p):
            power = power * expr
        assert got == normal_order_rewrite(power)


def test_power_of_mixed_shifts_and_the_zero_form():
    # (a + ad)^3 (8 words) goes by its 6 normal-form terms, the others by
    # their parsed words
    for text, p in (("a + ad", 6), ("(a + ad)^3", 4), ("a^2 + ad a + ad", 5),
                    ("a^3 (ad a)^3 - 1/2 ad^2", 3), ("a ad - ad a", 7)):
        base = normal_order_rewrite(parse_expr(text))
        assert normal_order_power(parse_expr(text), p) == base**p
    assert normal_order_power(BosonExpr(), 3) == NormalForm.zero()
    assert normal_order_power(BosonExpr(), 0) == NormalForm.one()
    assert normal_order_power(parse_expr("a + ad"), 0) == NormalForm.one()
