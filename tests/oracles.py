"""Oracles and readers that only the tests use.

`normal_order_word_rightmost` checks the rewriter's confluence,
`explicit_graphs` materializes every labeled diagram that
`normord.graphs.enumerate_graphs` counts in aggregate,
`normal_form_from_json` reads a normal form back from `order`'s JSON,
`poly_mul` multiplies two coefficient lists without the library's
series, `decimal_bound_str` and `format_complex` print bounds and
expectations by `decimal` and `fractions`, as the library did before it
printed them in ints, and `reference_parser` is the argparse parser that
`normord.cli`'s argv table must read alike.
"""

from __future__ import annotations

import argparse
import json
import re
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from normord.weyl import NormalForm


def normal_form_from_json(text: str) -> NormalForm:
    """The normal form whose `serialize.normal_form_to_json` text is text."""
    return NormalForm({(t["dag"], t["ann"]): Fraction(t["coeff"])
                       for t in json.loads(text)["terms"]})


def poly_mul(p, q) -> list:
    """Product of two coefficient lists, lowest power first; [] is zero."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def normal_order_word_rightmost(word) -> NormalForm:
    """Rewriter variant that always attacks the rightmost inversion.

    Exists only to exercise the confluence property; the result must
    equal word_to_normal_form on every input.
    """
    pending = {tuple(word): 1}
    done: dict = {}
    while pending:
        w, c = pending.popitem()
        pos = -1
        for i in range(len(w) - 2, -1, -1):
            if w[i] == 0 and w[i + 1] == 1:
                pos = i
                break
        if pos < 0:
            dag = sum(w)
            key = (dag, len(w) - dag)
            done[key] = done.get(key, 0) + c
            continue
        for nw in (w[:pos] + (1, 0) + w[pos + 2:], w[:pos] + w[pos + 2:]):
            pending[nw] = pending.get(nw, 0) + c
    return NormalForm(done)


class ExplicitGraph(NamedTuple):
    """One fully labeled diagram: per-vertex (block index, in-slots, out-line ids)."""

    steps: tuple
    weight: int | Fraction
    free_out: tuple
    free_in: int


_EXPLICIT_LIMIT = 3


def explicit_graphs(nf: NormalForm, n: int) -> list:
    """Materialize every labeled diagram with n vertices (n <= 3 only).

    The building blocks are nf's terms as (out-lines, in-lines, weight),
    in `sorted_terms` order.  Each attachment choice (which in-slots of
    the new vertex, which free out-lines they land on, in order) becomes
    a distinct graph, so each graph carries only the product of block
    weights; the combinatorial factors of the aggregated count appear as
    the number of graphs.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > _EXPLICIT_LIMIT:
        raise ValueError(
            f"explicit materialization is limited to {_EXPLICIT_LIMIT} vertices"
        )
    if not nf.terms:
        raise ValueError("cannot build blocks from the zero operator")
    blocks = nf.sorted_terms()
    out: list = []

    def expand(steps, weight, free_out, free_in, depth, next_id):
        if depth == n:
            out.append(ExplicitGraph(tuple(steps), weight, tuple(free_out), free_in))
            return
        for bi, (out_lines, s, block_weight) in enumerate(blocks):
            new_ids = tuple(next_id + i for i in range(out_lines))
            max_j = min(s, len(free_out))
            for j in range(max_j + 1):
                for slots in combinations(range(s), j):
                    for targets in permutations(free_out, j):
                        remaining = [x for x in free_out if x not in targets]
                        expand(
                            steps + [(bi, slots, targets)],
                            weight * block_weight,
                            remaining + list(new_ids),
                            free_in + (s - j),
                            depth + 1,
                            next_id + out_lines,
                        )

    expand([], 1, [], 0, 0, 0)
    return out


def explicit_table(nf: NormalForm, n: int) -> NormalForm:
    """Aggregate the explicit graphs by free line counts (cross-check path)."""
    agg: dict = {}
    for g in explicit_graphs(nf, n):
        key = (len(g.free_out), g.free_in)
        agg[key] = agg.get(key, 0) + g.weight
    return NormalForm(agg)


def decimal_bound_str(q: Fraction) -> str:
    """q as a 6-digit decimal rounded up, printed by `decimal`: the text
    `closedform._bound_str` writes in ints."""
    with localcontext(Context(prec=6, rounding=ROUND_CEILING)):
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def format_complex(re_part: Fraction, im_part: Fraction) -> str:
    """re + im i as `order --expectation` prints it, by str(Fraction): the
    text `cli._format_complex` writes from int pairs."""
    if im_part == 0:
        return str(re_part)
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part} {sign} {abs(im_part)}i"


def _directory(text: str) -> str:
    """A --cache-dir value; an empty one, which would name the current
    directory, is refused."""
    if not text:
        raise argparse.ArgumentTypeError("empty directory")
    return text


def ascii_int(text: str) -> int:
    """An integer argument as `normord` reads it: ASCII digits, optional sign."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of `normord`'s grammar, flags spelled in full only.

    The command comes first, and each command takes exactly the flags it
    reads.
    """
    parser = argparse.ArgumentParser(
        prog="normord", allow_abbrev=False,
        description="Exact normal ordering of boson operator expressions, "
        "the attached number triangles, and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", allow_abbrev=False,
                             help="normal-order an operator expression")
    p_order.add_argument("expr", help="expression over a, ad, rationals, + - * ^ ()")
    p_order.add_argument("--power", type=ascii_int, default=1,
                         help="raise the expression to this power first")
    # argparse counts a flag as given to a mutually exclusive group only
    # when its value is not the default object itself, and a "json" read
    # from argv may be that very (interned) string.  A parser default set
    # before the flag, with the flag's own default SUPPRESS, keeps them apart.
    p_order.set_defaults(format="json")
    shown = p_order.add_mutually_exclusive_group()
    shown.add_argument("--expectation", metavar="Z",
                       help="print the coherent expectation at z = RE[,IM]")
    shown.add_argument("--format", choices=("json", "table"),
                       default=argparse.SUPPRESS)

    p_seq = sub.add_parser("seq", allow_abbrev=False,
                           help="export Bell numbers or polynomial rows")
    p_seq.add_argument("r", type=ascii_int)
    p_seq.add_argument("M", type=ascii_int)
    p_seq.add_argument("n_max", type=ascii_int)
    kind = p_seq.add_mutually_exclusive_group()
    kind.add_argument("--number", action="store_true", default=True,
                      help="weight-one values (default)")
    kind.add_argument("--poly", action="store_true", default=False,
                      help="coefficient rows instead of values")
    p_seq.add_argument("--format", choices=("json", "table", "bfile"),
                       default="json")
    p_seq.add_argument("--cache-dir", dest="cache_dir", type=_directory)

    p_verify = sub.add_parser("verify", allow_abbrev=False,
                              help="run identity checks")
    p_verify.add_argument("identity", help='an identity id or "all"')
    for name in ("--r", "--M", "--n", "--lambda-order", "--precision"):
        p_verify.add_argument(name, type=ascii_int, default=None)
    p_verify.add_argument("--tolerance")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")

    p_cache = sub.add_parser("cache", allow_abbrev=False,
                             help="manage the triangle cache")
    p_cache.add_argument("action", choices=("clear",))
    p_cache.add_argument("--cache-dir", dest="cache_dir", type=_directory)

    return parser
