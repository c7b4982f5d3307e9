"""Parser for boson operator expressions.

Grammar (loosest binding first):

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor (['*'] factor)*          # '*' optional: juxtaposition
    factor     := atom ['^' nonnegative-integer]
    atom       := 'a' | 'ad' | 'a†' | 'n' | integer ['/' integer] | '(' expression ')'

`n` is sugar for the two-letter word ad*a, expanded at parse time.  The
result is a BosonExpr (free-algebra element); powers expand to word
repetition, so nothing here consults the commutator.  Parentheses nest at
most MAX_NESTING deep: the parser recurses once per level, and a deeper
input is a ParseError rather than a RecursionError.  No word may grow
past MAX_LETTERS letters, and no product may pair more than MAX_WORDS
words: a power or product that would exceed either raises LimitError
before it is built.  A term's factors, and a power of one word, are
multiplied once, each word of the result joined in one pass; a power of
a sum multiplies one factor at a time, so its word count is checked
before each factor.  `check_order` and `check_triangle` bound what
`normord order` and `seq` print the same way.
"""

from __future__ import annotations

from itertools import chain, product
from math import lgamma, log, log10, prod

from .series import _to_one_den
from .weyl import ANNIHILATOR, CREATOR, BosonExpr

__all__ = ["MAX_EXPECTATION_WORK", "MAX_LETTERS", "MAX_NESTING", "MAX_ORDER_BYTES",
           "MAX_TRIANGLE_BYTES", "MAX_WORDS", "LimitError", "ParseError", "check_letters",
           "check_order", "check_triangle", "parse_expr", "tokenize"]

MAX_NESTING = 200
# Ten times and more the sizes the package is built to handle fast
# (1000-letter words, D(r,M)^p with p >= 300 and r + 2M <= 9).
MAX_LETTERS = 30_000
# Word pairs one free-algebra product may form: (a + ad)^16 (2^16 words)
# parses, (a + ad)^18 would take 2^18.
MAX_WORDS = 100_000
# Estimated bytes of the rows 0..n of S_r^(M) (see check_triangle).  By
# this count (1,1,400) is 32 MB, near the 29 MB of its cache file and of
# its JSON output.  `seq` keeps one row at a time, so the limit bounds
# output, disk and work, not memory.  It is twice (1,1,400)'s estimate.
MAX_TRIANGLE_BYTES = 64 * 2**20
# Estimated bytes of the normal form `order` prints (see check_order).  By
# this count D(3,3)^1000 is 32.7 MB (it prints 16.1 MB), (a + ad)^400 is
# 95.4 MB (it prints 12.7 MB) and D(3,3)^3000 would be 329 MB.
MAX_ORDER_BYTES = 128 * 2**20
# Estimated digit operations of `order --expectation` (see check_order).
# By this count `order "a + ad" --power 200 --expectation 1e100` is 4.1e8
# (1.6 s in process on a 2-core x86 VM) and 1e1000 would be 4.1e9; the
# benchmark's expectation requests count below 1e4.
MAX_EXPECTATION_WORK = 5 * 10**8


class ParseError(ValueError):
    """Syntax error with the 0-based position of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LimitError(ValueError):
    """An input whose size is past a module limit."""


def check_letters(letters: int, what: str) -> None:
    """Raise LimitError if `letters` exceeds MAX_LETTERS.

    A power counts its exponent times the base's longest word, a scalar
    base counting as one letter: the power is built one factor at a time.
    """
    if letters > MAX_LETTERS:
        raise LimitError(
            f"{what} would reach {letters} letters, past the limit of {MAX_LETTERS}")


def check_triangle(r: int, M: int, n_max: int) -> None:
    """Raise LimitError if D(r,M) = a^r (ad a)^M would pass MAX_LETTERS, or
    rows 0..n_max of S_r^(M) MAX_TRIANGLE_BYTES.

    D(r,M) has r + 2M letters.  They are counted first, against the bound
    `order` applies to a word, so no r or M past it reaches the size
    estimate or the row build.

    Row m is a list, counted at 128 bytes, of M*m + 1 ints, each counted
    at 36 bytes plus the size of the top row's first entry
    (n_max! r^n_max)^M (r = 0 counted as 1).  The rows are built and
    printed one at a time, so this bounds the output, the cache file and
    the work, not memory: (1,1,400) counts 32 MB and writes a 29 MB file.
    The rows and entries alone are counted first, in ints: past 2^512
    bytes they are refused before the float estimate, which would overflow.
    """
    check_letters(r + 2 * M, f"D({r},{M})")
    entries = (n_max + 1) * (M * n_max + 2) // 2
    floor_bits = ((n_max + 1) * 128 + entries * 36).bit_length()
    if floor_bits > 512:
        raise LimitError(
            f"seq {r} {M} {n_max} would print or write more than "
            f"2^{floor_bits - 21} MB of rows, "
            f"past the limit of {MAX_TRIANGLE_BYTES // 2**20} MB")
    top_bits = M * (lgamma(n_max + 1) + n_max * log(max(r, 1))) / log(2)
    size = (n_max + 1) * 128 + entries * (36 + top_bits / 8)
    if size > MAX_TRIANGLE_BYTES:
        raise LimitError(
            f"seq {r} {M} {n_max} would print or write about "
            f"{size / 2**20:.1f} MB of rows, "
            f"past the limit of {MAX_TRIANGLE_BYTES // 2**20} MB")


def check_order(expr: BosonExpr, p: int, z=None) -> None:
    """Raise LimitError if expr^p would pass MAX_LETTERS or print past MAX_ORDER_BYTES.

    A word with m a† and n a orders to at most min(m, n) + 1 terms per
    shift, each at most (n + 1)^m (rook numbers).  The words of the power
    have at most A = p*max m a†, B = p*max n a and T = p*max(m + n)
    letters: min(A, B) + 1 terms per shift, (T + 1)(T + 2)/2 in all.
    A term counts 80 bytes and the digits of (B + 1)^A times the p-th
    powers of the summed numerators and of their common denominator.

    With z, the (real, imag) point of `order --expectation`, also raise
    LimitError past MAX_EXPECTATION_WORK: the coherent sum takes powers
    of z up to degree T, so its work counts the term bound times T times
    the digits of z's numerators and common denominator.
    """
    check_letters(p * max(_letters(expr), 1), "the --power result")
    mn = [(sum(w), len(w) - sum(w)) for w in expr.nums] or [(0, 0)]
    (A, B), T = (p * max(c) for c in zip(*mn)), p * max(map(sum, mn))
    shifts = [n - m for m, n in mn]
    terms = min((p * (max(shifts) - min(shifts)) + 1) * (min(A, B) + 1),
                (T + 1) * (T + 2) // 2)
    top = max(sum(map(abs, expr.nums.values())), 1) * expr.den
    size = terms * (80 + A * log10(B + 1) + p * log10(top))
    if size > MAX_ORDER_BYTES:
        raise LimitError(f"the normal form would print about {size / 2**20:.1f} MB, "
                         f"past the limit of {MAX_ORDER_BYTES // 2**20} MB")
    if z is None:
        return
    (x, y), d = _to_one_den(z)
    work = terms * T * max(log10(max(abs(x), abs(y), 1) * d), 1)
    if work > MAX_EXPECTATION_WORK:
        raise LimitError(f"the expectation would take about {work:.2g} digit operations, "
                         f"past the limit of {MAX_EXPECTATION_WORK:.0e}")


def _check_words(lhs: int, rhs: int) -> None:
    """Raise LimitError if a product of lhs words by rhs words pairs too many."""
    pairs = lhs * rhs
    if pairs > MAX_WORDS:
        raise LimitError(
            f"a product would pair {pairs} words, past the limit of {MAX_WORDS}; "
            "raise a sum to a power with --power instead")


def _letters(expr: BosonExpr) -> int:
    return max(map(len, expr.nums), default=0)


def _product(factors) -> BosonExpr:
    """The product of factors; unless one is zero, at most one has several words.

    Each word of the result is built once, by joining one word of each
    factor, so a product of m letters costs O(m), not O(m^2).
    """
    nums = {}
    for choice in product(*(f.nums.items() for f in factors)):
        word = tuple(chain.from_iterable(w for w, _ in choice))
        nums[word] = prod(a for _, a in choice)
    return BosonExpr._from_ints(nums, prod([f.den for f in factors]))


_PUNCT = set("+-*^()/")
_DIGITS = set("0123456789")


def tokenize(text: str):
    """Yield (kind, value, position); kinds: int (ASCII digits only, so a
    ² or ٣ is an unexpected character), name, or a punct char."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if j < n and text[j] == "†":  # a† spelling of the creator
                if name != "a":
                    raise ParseError(f"unexpected dagger after '{name}'", j)
                name = "ad"
                j += 1
            if name not in ("a", "ad", "n"):
                raise ParseError(f"unknown symbol '{name}'", i)
            out.append(("name", name, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


_A = BosonExpr.from_word((ANNIHILATOR,))
_AD = BosonExpr.from_word((CREATOR,))
_N = BosonExpr.from_word((CREATOR, ANNIHILATOR))

_ATOM_STARTS = ("int", "name", "(")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "end of input", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected '{kind}', found '{tok[1]}'", tok[2])
        return tok

    def expression(self) -> BosonExpr:
        kind, _, _ = self.peek()
        sign = 1
        if kind in ("+", "-"):
            self.take()
            sign = -1 if kind == "-" else 1
        out = self.term()
        if sign < 0:
            out = -out
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                out = out + self.term()
            elif kind == "-":
                self.take()
                out = out - self.term()
            else:
                return out

    def term(self) -> BosonExpr:
        # The factors are kept and multiplied once at the end, with the
        # bounds checked as each one is read, on the product so far: its
        # longest word is the sum of the factors' (words do not cancel in
        # the free algebra), and its word count is known unless two
        # factors of several words meet, where the product is formed.
        factors = [self.factor()]
        letters, words = _letters(factors[0]), len(factors[0].nums)
        while True:
            kind, _, _ = self.peek()
            if kind == "*":
                self.take()
            elif kind not in _ATOM_STARTS:
                return _product(factors)
            rhs = self.factor()
            rhs_letters = _letters(rhs)
            check_letters(letters + rhs_letters, "a product")
            _check_words(words, len(rhs.nums))
            if words > 1 and len(rhs.nums) > 1:
                factors = [_product(factors) * rhs]
                words = len(factors[0].nums)
            else:
                factors.append(rhs)
                words *= len(rhs.nums)
            letters = letters + rhs_letters if words else 0

    def factor(self) -> BosonExpr:
        out = self.atom()
        kind, _, _ = self.peek()
        if kind == "^":
            self.take()
            k2, value, p2 = self.peek()
            if k2 == "-":
                raise ParseError("negative exponents are not allowed", p2)
            tok = self.expect("int")
            # a scalar's power costs one step per unit of exponent too
            check_letters(tok[1] * max(_letters(out), 1), "a power")
            if len(out.nums) <= 1:  # one word: no product can pass MAX_WORDS
                return _product([out] * tok[1])
            base, out = out, BosonExpr.scalar(1)
            for _ in range(tok[1]):
                _check_words(len(out.nums), len(base.nums))
                out = out * base
        return out

    def atom(self) -> BosonExpr:
        kind, value, pos = self.take()
        if kind == "int":
            k2, _, _ = self.peek()
            if k2 == "/":
                self.take()
                tok = self.expect("int")
                if tok[1] == 0:
                    raise ParseError("zero denominator", tok[2])
                return BosonExpr.scalar((value, tok[1]))
            return BosonExpr.scalar(value)
        if kind == "name":
            return {"a": _A, "ad": _AD, "n": _N}[value]
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            out = self.expression()
            self.expect(")")
            self.depth -= 1
            return out
        raise ParseError(f"unexpected '{value}'", pos)


def parse_expr(text: str) -> BosonExpr:
    """Parse an operator expression into its free-algebra form."""
    p = _Parser(text)
    if not p.tokens:
        raise ParseError("empty expression", 0)
    out = p.expression()
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing '{value}'", pos)
    return out
