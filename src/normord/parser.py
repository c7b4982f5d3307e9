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
input is a ParseError rather than a RecursionError.
"""

from __future__ import annotations

from fractions import Fraction

from .weyl import ANNIHILATOR, CREATOR, BosonExpr

__all__ = ["MAX_NESTING", "ParseError", "parse_expr", "tokenize"]

MAX_NESTING = 200


class ParseError(ValueError):
    """Syntax error with the 0-based position of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
                out = out * self.factor()
            elif kind in _ATOM_STARTS:
                out = out * self.factor()
            else:
                return out

    def factor(self) -> BosonExpr:
        out = self.atom()
        kind, _, _ = self.peek()
        if kind == "^":
            self.take()
            k2, value, p2 = self.peek()
            if k2 == "-":
                raise ParseError("negative exponents are not allowed", p2)
            tok = self.expect("int")
            out = out ** tok[1]
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
