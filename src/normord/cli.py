"""Command-line front end.

Four subcommands: `order` normal-orders an operator expression (by rook
numbers; a power by falling-factorial rows when the base has one shift,
else by the contraction fold), `seq` exports Bell numbers or polynomial
coefficient rows (`--poly` goes through the disk cache and prints its
decimal tokens as they are, one row at a time; the Bell numbers are the
sums of one pass of `stirling.stirling_rows`, with no cache), `verify`
runs identity checks, `cache` manages the disk cache.
Global flags may appear before or after the subcommand.  Exit codes:
0 ok, 1 verification failure, 2 usage or parse error, or an input past
a size limit (`parser.LimitError`), 141 (128 + SIGPIPE) when the reader
closes stdout before the output is written (`normord ... | head`).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .cache import cache_clear, default_cache_dir, load_triangle
from .closedform import DEFAULT_PRECISION, DEFAULT_TOLERANCE
from .parser import LimitError, ParseError, check_letters, check_triangle, parse_expr
from .serialize import (
    iter_poly_rows_json,
    iter_poly_rows_table,
    normal_form_table,
    normal_form_to_json,
    sequence_bfile,
    sequence_table,
    sequence_to_json,
)
from .stirling import bell_sequence
from .suite import (
    IDENTITIES,
    SUITE_IDS,
    overrides_read,
    reports_to_json,
    run_identity,
    run_suite,
    suite_passed,
)
from .weyl import normal_order_rook, row_power

__all__ = ["Config", "main", "build_parser"]


class Config(namedtuple("Config", "lambda_order precision tolerance cache_dir fmt")):
    """The global options, checked; cache_dir defaults to `default_cache_dir()`."""

    __slots__ = ()

    def __new__(cls, lambda_order: int = 8, precision: int = DEFAULT_PRECISION,
                tolerance: Fraction = DEFAULT_TOLERANCE,
                cache_dir: Path | None = None, fmt: str = "json"):
        if fmt not in ("json", "table", "bfile"):
            raise ValueError(f"unknown output format {fmt!r}")
        if lambda_order < 0:
            raise ValueError("lambda order must be >= 0")
        if precision < 30:
            raise ValueError("precision must be at least 30 digits")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        floor = Fraction(1, 10 ** (precision - 10))
        if tolerance < floor:
            raise ValueError(
                "tolerance tighter than the precision supports "
                "(need tolerance >= 10^-(precision-10))"
            )
        if cache_dir is None:
            cache_dir = default_cache_dir()
        return super().__new__(cls, lambda_order, precision, tolerance,
                               cache_dir, fmt)


def _parse_tolerance(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError) as exc:
        raise ValueError(f"cannot parse tolerance {text!r}") from exc


def _parse_expectation(text: str):
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError("expectation takes RE or RE,IM")
    re_part = Fraction(parts[0].strip())
    im_part = Fraction(parts[1].strip()) if len(parts) == 2 else Fraction(0)
    return re_part, im_part


def _format_complex(re_part: Fraction, im_part: Fraction) -> str:
    if im_part == 0:
        return str(re_part)
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part} {sign} {abs(im_part)}i"


def _add_global_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("global options")
    g.add_argument("--format", choices=("json", "table", "bfile"),
                   default=argparse.SUPPRESS,
                   help="output format (default json)")
    g.add_argument("--lambda-order", dest="lambda_order", type=int,
                   default=argparse.SUPPRESS,
                   help="highest retained power of the expansion parameter")
    g.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                   help="working decimal digits for numeric checks (>= 30)")
    g.add_argument("--tolerance", default=argparse.SUPPRESS,
                   help="numeric tolerance, rational or decimal string")
    g.add_argument("--cache-dir", dest="cache_dir", default=argparse.SUPPRESS,
                   help="cache directory (default $NORMORD_CACHE_DIR)")


def _flags(names) -> str:
    return " ".join("--" + name.replace("_", "-") for name in names)


def _identity_list() -> str:
    """Every identity id and the options that change what it runs."""
    lines = ["identities, each with the options it reads (an --r, --M or --n",
             "that an identity does not read is an error):"]
    for identity in IDENTITIES:
        lines.append(f"  {identity:<24} {_flags(overrides_read(identity))}")
    lines.append(f"  {'all':<24} the suite: {SUITE_IDS[0]} through {SUITE_IDS[-1]}")
    return "\n".join(lines)


def _override_error(ns: argparse.Namespace) -> str | None:
    """Why `verify`'s --r/--M/--n do not fit its identity, or None.

    `all` reads none of them; an unknown id is left to `run_identity`.
    """
    if ns.identity != "all" and ns.identity not in IDENTITIES:
        return None
    read = () if ns.identity == "all" else overrides_read(ns.identity)
    for name in ("r", "M", "n"):
        if getattr(ns, name) is not None and name not in read:
            return (f"{ns.identity} does not read --{name}; it reads "
                    f"{_flags(read) or 'none of --r, --M, --n'}")
    if ns.n is not None and ns.n < 1 and "laguerre-shifted" in (
            ns.identity, *IDENTITIES[ns.identity].parts):
        return (f"{ns.identity} needs --n >= 1 (laguerre-shifted takes it "
                "as its p)")
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normord",
        description="Exact normal ordering of boson operator expressions, "
        "the attached number triangles, and their verification suite.",
    )
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="normal-order an operator expression")
    p_order.add_argument("expr", help="expression over a, ad, rationals, + - * ^ ()")
    p_order.add_argument("--power", type=int, default=1,
                         help="raise the expression to this power first")
    p_order.add_argument("--expectation", metavar="Z",
                         help="print the coherent expectation at z = RE[,IM]")
    _add_global_flags(p_order)

    p_seq = sub.add_parser("seq", help="export Bell numbers or polynomial rows")
    p_seq.add_argument("r", type=int)
    p_seq.add_argument("M", type=int)
    p_seq.add_argument("n_max", type=int)
    kind = p_seq.add_mutually_exclusive_group()
    kind.add_argument("--number", action="store_true", default=True,
                      help="weight-one values (default)")
    kind.add_argument("--poly", action="store_true", default=False,
                      help="coefficient rows instead of values")
    _add_global_flags(p_seq)

    p_verify = sub.add_parser(
        "verify", help="run identity checks", epilog=_identity_list(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_verify.add_argument("identity", help='an identity id (listed below) or "all"')
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument("--M", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    _add_global_flags(p_verify)

    p_cache = sub.add_parser("cache", help="manage the triangle cache")
    p_cache.add_argument("action", choices=("clear",))
    _add_global_flags(p_cache)

    return parser


def _config_from_namespace(ns: argparse.Namespace) -> Config:
    kwargs = {}
    if hasattr(ns, "lambda_order"):
        kwargs["lambda_order"] = ns.lambda_order
    if hasattr(ns, "precision"):
        kwargs["precision"] = ns.precision
    if hasattr(ns, "tolerance"):
        kwargs["tolerance"] = _parse_tolerance(ns.tolerance)
    if hasattr(ns, "cache_dir"):
        kwargs["cache_dir"] = Path(ns.cache_dir)
    if hasattr(ns, "format"):
        kwargs["fmt"] = ns.format
    return Config(**kwargs)


def cmd_order(cfg: Config, ns: argparse.Namespace) -> int:
    if ns.power < 1:
        print("error: --power must be >= 1", file=sys.stderr)
        return 2
    try:
        result = normal_order_rook(parse_expr(ns.expr))
        if ns.power > 1:
            degree = max((k + l for k, l in result.terms), default=0)
            check_letters(ns.power * max(degree, 1), "the --power result")
    except (ParseError, LimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.power > 1:
        base = result
        result = row_power(base, ns.power)
        if result is None:  # terms of more than one shift
            result = base**ns.power
    if ns.expectation is not None:
        try:
            re_part, im_part = _parse_expectation(ns.expectation)
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(_format_complex(*result.coherent_expectation(re_part, im_part)))
        return 0
    if cfg.fmt == "json":
        print(normal_form_to_json(result))
    else:
        print(normal_form_table(result))
    return 0


def cmd_seq(cfg: Config, ns: argparse.Namespace) -> int:
    if ns.r < 0 or ns.M < 0 or ns.n_max < 0:
        print("error: r, M, n_max must be nonnegative", file=sys.stderr)
        return 2
    try:
        check_triangle(ns.r, ns.M, ns.n_max)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.poly:
        rows, _, warning = load_triangle(ns.r, ns.M, ns.n_max, cfg.cache_dir)
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        pieces = iter_poly_rows_json if cfg.fmt == "json" else iter_poly_rows_table
        sys.stdout.writelines(pieces(ns.r, ns.M, rows))
        sys.stdout.write("\n")
        return 0
    values = bell_sequence(ns.r, ns.M, ns.n_max)
    if cfg.fmt == "json":
        print(sequence_to_json(ns.r, ns.M, values))
    elif cfg.fmt == "table":
        print(sequence_table(ns.r, ns.M, values))
    else:
        sys.stdout.write(sequence_bfile(values))
    return 0


def cmd_verify(cfg: Config, ns: argparse.Namespace) -> int:
    problem = _override_error(ns)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    lam = ns.lambda_order if hasattr(ns, "lambda_order") else None
    try:
        if ns.identity == "all":
            reports = run_suite(precision=cfg.precision, tolerance=cfg.tolerance)
        else:
            reports = run_identity(
                ns.identity,
                r=ns.r,
                M=ns.M,
                n=ns.n,
                lambda_order=lam,
                precision=cfg.precision,
                tolerance=cfg.tolerance,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.fmt == "json":
        print(reports_to_json(reports))
    else:
        for rep in reports:
            params = " ".join(f"{k}={v}" for k, v in rep.parameters.items())
            print(f"{rep.status:<13} {rep.identity} {params}")
    return 0 if suite_passed(reports) else 1


def cmd_cache(cfg: Config, ns: argparse.Namespace) -> int:
    removed = cache_clear(cfg.cache_dir)
    print(f"removed {removed} cache file(s)")
    return 0


_DISPATCH = {"order": cmd_order, "seq": cmd_seq, "verify": cmd_verify,
             "cache": cmd_cache}


def main(argv=None) -> int:
    # The interpreter refuses to print ints past 4300 digits, a guard for
    # parsing untrusted decimals; normord's exact results pass it routinely.
    # (Python before 3.10.7 has no such limit and no setter.)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg = _config_from_namespace(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # b-file holds one integer sequence: `seq --number` (`cache` prints none)
    if cfg.fmt == "bfile" and ns.command != "cache" and (
            ns.command != "seq" or ns.poly):
        print("error: b-file output applies to `seq --number` only",
              file=sys.stderr)
        return 2
    try:
        code = _DISPATCH[ns.command](cfg, ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # Not a verification failure: the reader stopped reading.  Send
        # what is still buffered to devnull, so the interpreter's flush
        # at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
