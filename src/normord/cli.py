"""Command-line front end.

Four subcommands: `order` normal-orders an expression or a power of it
(`weyl.normal_order_power`, the graded-row kernel for every word and
power; `--expectation` is read and the printed size bounded by
`parser.check_order` before it runs), `seq` exports Bell numbers or
polynomial coefficient rows (`--poly` reads the disk cache file one
line, that is one row, at a time and prints each line whole, never split
into entries: JSON turns each space into the text between two quoted
entries; the Bell numbers are the sums of one pass of
`stirling.stirling_rows`, with no cache), `verify` runs identity checks,
`cache` manages the disk cache.

argv is read by one loop over one table (`_COMMANDS`), from which `--help`
is rendered too; no argument-parsing module is imported, which keeps some
6 ms of imports and parser building off every cold request.  The command
comes first: `normord COMMAND [arguments and flags]`.  Each command lists
the flags it reads, and only those: any other flag, and any token before
the command, is refused before any work or cache write.  A flag is given
as `--flag value` or `--flag=value`; the last one given wins, and a flag
must be spelled in full.

Exit codes: 0 ok; 1 a failed identity, or a failed S(n, 0) check of
`stirling_rows` (an ArithmeticError); 2 a bad argv or a bad or oversized
input (a ValueError, `parser.ParseError` and `parser.LimitError`
included); 141 (128 + SIGPIPE) when the reader closes stdout before the
output is written (`normord ... | head`).  The commands raise, and
`_request` alone turns an exception into its one `error:` line and its
exit code.

`run` is the process entry (`python -m normord.cli` and the installed
`normord` script): it calls `main` and then `gc.freeze()`, so the
collection at interpreter exit skips the some 13k objects alive after
the imports, 5-7 ms of every cold request.  Finalization still runs:
the standard streams are flushed, atexit handlers run and the exit code
is kept.  `main` never freezes, so a library or test caller keeps
ordinary collection.

No command loads `fractions` (nor the `decimal` and `numbers` it pulls
in): every rational read or printed here is an int (numerator,
denominator) pair.  `_parse_fraction` reads --expectation and
--tolerance as the reduced pair of Fraction(text), `_numeric_settings`
checks the tolerance as a pair, and `_format_complex` prints the pairs
of `NormalForm._coherent_pairs` as str(Fraction) would.  A rational
coefficient is parsed, raised to its power and printed as ints over one
denominator (`weyl.BosonExpr`, `weyl.NormalForm`), and every check
keeps its rationals as int pairs or as a container's ints over one
denominator.  A Fraction is built only for a library caller that reads
`coeffs`, `terms`, `pochhammer` or `coherent_expectation`.

An integer argument is ASCII digits with an optional sign, the digits an
expression's tokenizer reads; --tolerance and --expectation read
Fraction's grammar in the same digits (`_FRACTION`).  A value that
starts with "-" is a flag unless it is -digits or -digits.digits, as
argparse reads it, so a negative -1/2 or -1e-3 is given as
`--expectation=-1/2,1`; the error for the other form names it.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from collections import namedtuple
from contextlib import closing
from math import gcd
from types import SimpleNamespace

from .cache import cache_clear, load_triangle
from .closedform import DEFAULT_PRECISION, default_tolerance
from .parser import check_order, check_triangle, parse_expr
from .series import _pair_str
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
    OVERRIDES,
    SUITE_IDS,
    overrides_read,
    reports_to_json,
    run_identity,
    run_suite,
    suite_passed,
)
from .weyl import normal_order_power

__all__ = ["main", "run"]

# Bounds on the number flags, checked before the numbers are built:
# `_numeric_settings` builds 10**(precision - 10), and `_parse_fraction`
# 10**exp for "1e<exp>".  At MAX_PRECISION, `verify all` takes about
# 1.4 s on a 2-core x86 VM.
MAX_PRECISION = 10_000
MAX_EXPONENT = MAX_PRECISION


# Fraction's grammar in ASCII digits: a sign, then digits and /digits, or
# digits with .digits and e±digits (Fraction(text) also takes Unicode
# digits, "_" separators and surrounding spaces).  No two adjacent parts
# match the same character, so a match takes time linear in the text.
# Compiled at its first use: a request with neither flag does not pay.
_FRACTION = (r"(?P<sign>[-+]?)(?=\.?[0-9])(?P<num>[0-9]*)(?:/(?P<den>[0-9]+)"
             r"|(?:\.(?P<decimals>[0-9]*))?(?:[eE](?P<exponent>[-+]?[0-9]+))?)")


def _parse_fraction(text: str) -> tuple[int, int]:
    """`text` read by `_FRACTION`: the reduced int pair of Fraction(text),
    its decimal exponent refused past MAX_EXPONENT before 10**exponent is
    built.

    Raises ValueError, a zero denominator included.
    """
    match = re.fullmatch(_FRACTION, text)
    if not match:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    sign, num, den, decimals, exponent = match.group(
        "sign", "num", "den", "decimals", "exponent")
    digits = (exponent or "").lstrip("+-").lstrip("0")
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent past {MAX_EXPONENT} in {text!r}")
    if den is not None:
        if not den.strip("0"):
            raise ValueError(f"zero denominator in {text!r}")
        num, den = int(num), int(den)
    else:
        decimals = decimals or ""
        num, den = int(num + decimals), 10 ** len(decimals)
        if exponent and exponent[0] == "-":
            den *= 10 ** int(digits or 0)
        else:
            num *= 10 ** int(digits or 0)
    g = gcd(num, den)
    return (-num if sign == "-" else num) // g, den // g


def _numeric_settings(ns: SimpleNamespace) -> dict:
    """`verify`'s --precision and --tolerance, defaults filled in, checked,
    as the keywords `run_identity` and `run_suite` take.

    Run only when one of the two is given: `_check_overrides` has then
    refused an id that reads neither, and with neither given the library
    defaults apply as they are.  Raises ValueError before
    10**(precision - 10) is built, so the bounds hold for any input.
    """
    tol_num, tol_den = tolerance = (default_tolerance() if ns.tolerance is None
                                    else _parse_fraction(ns.tolerance))
    precision = DEFAULT_PRECISION if ns.precision is None else ns.precision
    if precision < 30:
        raise ValueError("precision must be at least 30 digits")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be at most {MAX_PRECISION} digits")
    if tol_num <= 0:
        raise ValueError("tolerance must be positive")
    if tol_num * 10 ** (precision - 10) < tol_den:
        raise ValueError("tolerance tighter than the precision supports "
                         "(need tolerance >= 10^-(precision-10))")
    return {"precision": precision, "tolerance": tolerance}


def _parse_expectation(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError("expectation takes RE or RE,IM")
    re_part = _parse_fraction(parts[0])
    im_part = _parse_fraction(parts[1]) if len(parts) == 2 else (0, 1)
    return re_part, im_part


def _format_complex(re_part: tuple[int, int], im_part: tuple[int, int]) -> str:
    """Two int pairs as `RE`, `RE + IMi` or `RE - IMi`, each printed as
    str(Fraction) prints it."""
    im_num, im_den = im_part
    if im_num == 0:
        return _pair_str(re_part)
    sign = "+" if im_num > 0 else "-"
    return f"{_pair_str(re_part)} {sign} {_pair_str((abs(im_num), im_den))}i"


def _flags(names) -> str:
    return " ".join("--" + name.replace("_", "-") for name in names)


# The overrides `verify all` reads: `run_suite` takes the precision and
# tolerance, and every identity keeps its own grid.
_SUITE_READS = ("precision", "tolerance")


def _identity_list() -> str:
    """Every identity id and the options that change what it runs."""
    lines = ["identities, each with the options it reads (an --r, --M, --n,",
             "--lambda-order, --precision or --tolerance that an identity does",
             "not read is an error):"]
    for identity in IDENTITIES:
        lines.append(f"  {identity:<24} {_flags(overrides_read(identity))}")
    lines.append(f"  {'all':<24} {_flags(_SUITE_READS)} (the suite: "
                 f"{SUITE_IDS[0]} through {SUITE_IDS[-1]})")
    return "\n".join(lines)


def _check_overrides(ns: SimpleNamespace) -> None:
    """Raise ValueError if an override flag given to `verify` does not fit its id.

    The overrides are --r, --M, --n, --lambda-order, --precision and
    --tolerance; an unknown id is left to `run_identity`.
    """
    if ns.identity != "all" and ns.identity not in IDENTITIES:
        return
    read = _SUITE_READS if ns.identity == "all" else overrides_read(ns.identity)
    for name in OVERRIDES:
        if getattr(ns, name) is not None and name not in read:
            raise ValueError(f"{ns.identity} does not read {_flags([name])}; "
                             f"it reads {_flags(read)}")
    if ns.n is not None and ns.n < 1 and "laguerre-shifted" in (
            ns.identity, *IDENTITIES[ns.identity].parts):
        raise ValueError(f"{ns.identity} needs --n >= 1 (laguerre-shifted "
                         "takes it as its p)")


# The argv table.  A command: its help line, its positionals as (dest,
# kind, help), the flags it reads, the values it sets before reading argv,
# and the flags of which at most one may be given.  A flag is (flag, dest,
# kind, metavar, help): kind is int or str for a value, a tuple of the
# values it accepts, or bool for a flag that takes no value and sets dest
# to True.
_Command = namedtuple("_Command", "help positionals flags defaults exclusive")

_FORMAT = ("--format", "format", ("json", "table"), "{json,table}",
           "output format (default json)")
_CACHE_DIR = ("--cache-dir", "cache_dir", str, "DIR",
              "cache directory (default $NORMORD_CACHE_DIR)")

_COMMANDS = {
    "order": _Command(
        "normal-order an operator expression",
        (("expr", str, "expression over a, ad, rationals, + - * ^ ()"),),
        (("--power", "power", int, "N",
          "raise the expression to this power first (default 1)"),
         ("--expectation", "expectation", str, "Z",
          "print the coherent expectation at z = RE[,IM] (not with --format)"),
         _FORMAT),
        {"power": 1, "expectation": None, "format": "json"},
        ("--expectation", "--format")),
    "seq": _Command(
        "export Bell numbers or polynomial rows",
        (("r", int, "the r and M of D(r,M) = a^r (ad a)^M"), ("M", int, ""),
         ("n_max", int, "the last row")),
        (("--number", "number", bool, "", "weight-one values (default)"),
         ("--poly", "poly", bool, "",
          "coefficient rows instead of values (not with --number)"),
         ("--format", "format", ("json", "table", "bfile"), "{json,table,bfile}",
          "output format (default json; bfile with --number only)"),
         _CACHE_DIR),
        {"number": True, "poly": False, "format": "json", "cache_dir": None},
        ("--number", "--poly")),
    "verify": _Command(
        "run identity checks",
        (("identity", str, 'an identity id (listed below) or "all"'),),
        (*((f"--{name}", name, int, "N", f"pin {name} (the ids below that read it)")
           for name in ("r", "M", "n")),
         ("--lambda-order", "lambda_order", int, "N",
          "highest retained power of the expansion parameter"),
         ("--precision", "precision", int, "N",
          "working decimal digits for numeric checks (>= 30)"),
         ("--tolerance", "tolerance", str, "T",
          "numeric tolerance, rational or decimal string"),
         _FORMAT),
        {**dict.fromkeys(OVERRIDES), "format": "json"}, ()),
    "cache": _Command(
        "manage the triangle cache",
        (("action", ("clear",), "clear: remove every cache file"),),
        (_CACHE_DIR,), {"cache_dir": None}, ()),
}

# Every flag some command reads, to tell an unread flag from an unknown one
_KNOWN_FLAGS = {flag for spec in _COMMANDS.values() for flag, *_ in spec.flags}

# A token that starts with "-" is a flag, except "-" itself, a negative
# number (`--M -1`, `seq -1 1 3`) and a token with a space in it (an
# expression such as "-a + ad"); "--" makes every later token a positional.
# A negative number is argparse's: -1/2 and -1e-3 read as flags.
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")

# The number flags and how many "," separated `_FRACTION` parts each
# reads: a value of theirs that reads as a flag is told the = form.
_NUMBER_PARTS = {"--expectation": 2, "--tolerance": 1}


class _Help(Exception):
    """-h or --help: carries the help text of the command read so far."""


def _is_flag(arg: str, flags: dict) -> bool:
    return arg.partition("=")[0] in flags or (
        arg[:1] == "-" and arg != "-" and " " not in arg
        and not _NEGATIVE_NUMBER.match(arg))


def _equals_hint(flag: str, text: str | None) -> str:
    """For a value of a number flag's grammar that reads as a flag (one
    that starts with "-"), the --flag=VALUE form that reads it; else ""."""
    parts = (text or "").split(",")
    if text and len(parts) <= _NUMBER_PARTS.get(flag, 0) and all(
            re.fullmatch(_FRACTION, part) for part in parts):
        return f"; give a value that starts with '-' as {flag}={text}"
    return ""


def _value(name: str, kind, text: str):
    if kind is int:
        # ASCII digits with an optional sign, the digits an expression's
        # tokenizer reads; int() would also take "1_0", " 1" and "٣"
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{name} takes an integer, not {text!r}")
        return int(text)
    if kind is not str and text not in kind:
        raise ValueError(f"{name} takes one of {', '.join(kind)}, not {text!r}")
    if name == "--cache-dir" and not text:
        # an empty path would mean the current directory
        raise ValueError("--cache-dir takes a directory, not ''")
    return text


def _parse_argv(argv) -> SimpleNamespace:
    """Read argv with the argv table: the command, its positionals and flags.

    The command comes first.  A flag takes its value as `--flag value` or
    `--flag=value`, and the last one given wins.  Raises _Help for -h or
    --help, and ValueError naming what is wrong with argv.
    """
    if not argv:
        raise ValueError(f"a command is required: {', '.join(_COMMANDS)}")
    command, *rest = argv
    if command in ("-h", "--help"):
        raise _Help(_help(None))
    if command not in _COMMANDS:
        if _is_flag(command, {}):
            raise ValueError(f"{command!r} comes before the command; the "
                             f"command comes first: {', '.join(_COMMANDS)}")
        raise ValueError(f"unknown command {command!r} (choose from "
                         f"{', '.join(_COMMANDS)})")
    spec = _COMMANDS[command]
    ns = SimpleNamespace(command=command, **spec.defaults)
    flags = {flag: (dest, kind) for flag, dest, kind, _, _ in spec.flags}
    positionals, given, literal = list(spec.positionals), set(), False
    rest = iter(rest)
    for arg in rest:
        if not literal and arg == "--":
            literal = True
        elif not literal and _is_flag(arg, flags):
            flag, eq, text = arg.partition("=")
            if flag in ("-h", "--help") and not eq:
                raise _Help(_help(command))
            if flag in _KNOWN_FLAGS and flag not in flags:
                raise ValueError(f"{command} does not read {flag}; it reads "
                                 f"{' '.join(flags)}")
            if flag not in flags:
                raise ValueError(f"unrecognized argument {arg!r}")
            dest, kind = flags[flag]
            if kind is bool:
                if eq:
                    raise ValueError(f"{flag} takes no value")
                setattr(ns, dest, True)
            else:
                if not eq:
                    text = next(rest, None)
                    if text is None or _is_flag(text, flags):
                        raise ValueError(f"{flag} needs a value"
                                         + _equals_hint(flag, text))
                setattr(ns, dest, _value(flag, kind, text))
            given.add(flag)
        elif positionals:
            dest, kind, _ = positionals.pop(0)
            setattr(ns, dest, _value(dest, kind, arg))
        else:
            raise ValueError(f"unexpected argument {arg!r}")
    if positionals:
        raise ValueError(f"{command} needs {' '.join(p[0] for p in positionals)}")
    if len(given.intersection(spec.exclusive)) > 1:
        raise ValueError(f"{' and '.join(spec.exclusive)} exclude each other")
    return ns


def _help(command: str | None) -> str:
    """The help text of a command, or of normord itself for None."""
    help_row = ("-h, --help", "show this help and exit")
    if command is None:
        usage = f"normord {{{','.join(_COMMANDS)}}} [arguments and options]"
        about = ("Exact normal ordering of boson operator expressions, the "
                 "attached number\ntriangles, and their verification suite.  "
                 "Each command reads its own\noptions, given after it: "
                 "`normord COMMAND --help` lists them.")
        sections = [("commands", [(name, spec.help)
                                  for name, spec in _COMMANDS.items()]),
                    ("options", [help_row])]
    else:
        spec = _COMMANDS[command]
        usage = " ".join(["normord", command, "[options]",
                          *(dest for dest, _, _ in spec.positionals)])
        about = spec.help
        sections = [("arguments", [(dest, text) for dest, _, text in spec.positionals]),
                    ("options", [help_row, *((f"{flag} {metavar}".strip(), text)
                                             for flag, _, _, metavar, text in spec.flags)])]
    width = max(len(left) for _, rows in sections for left, _ in rows)
    lines = [f"usage: {usage}", "", about]
    for title, rows in sections:
        lines += ["", f"{title}:", *(f"  {left:<{width}}  {text}".rstrip()
                                      for left, text in rows)]
    if command == "verify":
        lines += ["", _identity_list()]
    return "\n".join(lines)


def cmd_order(ns: SimpleNamespace) -> int:
    if ns.power < 1:
        raise ValueError("--power must be >= 1")
    z = None if ns.expectation is None else _parse_expectation(ns.expectation)
    expr = parse_expr(ns.expr)
    check_order(expr, ns.power, z)
    result = normal_order_power(expr, ns.power)
    if z is not None:
        print(_format_complex(*result._coherent_pairs(*z)))
    elif ns.format == "json":
        print(normal_form_to_json(result))
    else:
        print(normal_form_table(result))
    return 0


def cmd_seq(ns: SimpleNamespace) -> int:
    # b-file holds one integer sequence: the numbers, not the rows
    if ns.poly and ns.format == "bfile":
        raise ValueError("b-file output applies to `seq --number` only")
    if ns.r < 0 or ns.M < 0 or ns.n_max < 0:
        raise ValueError("r, M, n_max must be nonnegative")
    check_triangle(ns.r, ns.M, ns.n_max)
    # A failed S(n_max, 0) check of `stirling_rows` raises in `load_triangle`
    # or `bell_sequence`, before any row is printed or cached
    if ns.poly:
        rows, _, warning = load_triangle(ns.r, ns.M, ns.n_max, ns.cache_dir)
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        pieces = iter_poly_rows_json if ns.format == "json" else iter_poly_rows_table
        with closing(rows):  # releases the cache file if the write stops early
            sys.stdout.writelines(pieces(ns.r, ns.M, rows))
        sys.stdout.write("\n")
        return 0
    values = bell_sequence(ns.r, ns.M, ns.n_max)
    if ns.format == "json":
        print(sequence_to_json(ns.r, ns.M, values))
    elif ns.format == "table":
        print(sequence_table(ns.r, ns.M, values))
    else:
        sys.stdout.write(sequence_bfile(values))
    return 0


def cmd_verify(ns: SimpleNamespace) -> int:
    _check_overrides(ns)
    numeric = ({} if ns.precision is None and ns.tolerance is None
               else _numeric_settings(ns))
    if ns.identity == "all":
        reports = run_suite(**numeric)
    else:
        reports = run_identity(ns.identity, r=ns.r, M=ns.M, n=ns.n,
                               lambda_order=ns.lambda_order, **numeric)
    if ns.format == "json":
        print(reports_to_json(reports))
    else:
        for rep in reports:
            params = " ".join(f"{k}={v}" for k, v in rep.parameters.items())
            print(f"{rep.status:<13} {rep.identity} {params}")
    return 0 if suite_passed(reports) else 1


def cmd_cache(ns: SimpleNamespace) -> int:
    removed = cache_clear(ns.cache_dir)
    print(f"removed {removed} cache file(s)")
    return 0


_DISPATCH = {"order": cmd_order, "seq": cmd_seq, "verify": cmd_verify,
             "cache": cmd_cache}


def _request(argv) -> int:
    """Read argv and run the command: its exit code.

    The one place a failure turns into its exit code and its one `error:`
    line on stderr: a ValueError (bad argv, or a bad or oversized input,
    ParseError and LimitError included) exits 2, an ArithmeticError (a
    failed S(n, 0) check of `stirling_rows`: a verification failure)
    exits 1.  Each is raised before the command prints anything, so stdout
    stays empty.
    """
    try:
        ns = _parse_argv(argv)
        return _DISPATCH[ns.command](ns)
    except _Help as text:
        print(text)
        return 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def main(argv=None) -> int:
    # The interpreter refuses to print ints past 4300 digits, a guard for
    # parsing untrusted decimals; normord's exact results pass it routinely.
    # Lifted for this call only, so an embedding program keeps its limit.
    # (Python before 3.10.7 has no such limit and no setter.)
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = _request(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Not a verification failure: the reader stopped reading.  Send
        # what is still buffered to devnull, so the interpreter's flush
        # at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(limit)
    return code


def run(argv=None) -> int:
    """`main`, then freeze every tracked object so that exit skips them."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
