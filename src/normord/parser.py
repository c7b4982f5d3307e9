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
before it is built.  A power multiplies one factor at a time, so its
word count is checked before each factor.
"""

from __future__ import annotations

from fractions import Fraction

from .weyl import ANNIHILATOR, CREATOR, BosonExpr

__all__ = ["MAX_LETTERS", "MAX_NESTING", "MAX_WORDS", "LimitError", "ParseError",
           "check_letters", "parse_expr", "tokenize"]

MAX_NESTING = 200
# Ten times and more the sizes the package is built to handle fast
# (1000-letter words, D(r,M)^p with p >= 300 and r + 2M <= 9).
MAX_LETTERS = 30_000
# Word pairs one free-algebra product may form: (a + ad)^16 (2^16 words)
# parses, (a + ad)^18 would take 2^18.
MAX_WORDS = 100_000


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


def _check_words(lhs: BosonExpr, rhs: BosonExpr) -> None:
    pairs = len(lhs.terms) * len(rhs.terms)
    if pairs > MAX_WORDS:
        raise LimitError(
            f"a product would pair {pairs} words, past the limit of {MAX_WORDS}; "
            "raise a sum to a power with --power instead")


def _letters(expr: BosonExpr) -> int:
    return max(map(len, expr.terms), default=0)


_PUNCT = set("+-*^()/")


def tokenize(text: str):
    """Yield (kind, value, position); kinds: int, name, or a punct char."""
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        return ("end", None, len(self.text))

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
        out = self.factor()
        while True:
            kind, _, _ = self.peek()
            if kind == "*":
                self.take()
            elif kind not in _ATOM_STARTS:
                return out
            rhs = self.factor()
            check_letters(_letters(out) + _letters(rhs), "a product")
            _check_words(out, rhs)
            out = out * rhs

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
            base, out = out, BosonExpr.scalar(1)
            for _ in range(tok[1]):
                _check_words(out, base)
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
                return BosonExpr.scalar(Fraction(value, tok[1]))
            return BosonExpr.scalar(Fraction(value))
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
