"""End-to-end CLI contract: output formats, exit codes, cache behavior."""

import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import zlib
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normord import backend, cache, cli, stirling
from normord.cli import MAX_EXPONENT, MAX_PRECISION, main
from normord.parser import MAX_LETTERS, LimitError, check_triangle, parse_expr
from normord.stirling import gen_stirling, stirling_rows
from normord.suite import EXAMPLE_IDS, SUITE_IDS, run_identity
from normord.weyl import normal_order_rewrite
from oracles import format_complex, normal_form_from_json, reference_parser


def ordered(text):
    return normal_order_rewrite(parse_expr(text))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- order ---------------------------------------------------------------

def test_order_json_round_trips(capsys):
    code, out, _ = run(capsys, "order", "(a† a)^2", "--format", "json")
    assert code == 0
    assert normal_form_from_json(out) == ordered("(a† a)^2")


def test_order_power_flag(capsys):
    code, out, _ = run(capsys, "order", "a† a", "--power", "2")
    assert code == 0
    assert normal_form_from_json(out) == ordered("(a† a)^2")


def test_order_table(capsys):
    code, out, _ = run(capsys, "order", "(a† a)^2", "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "dag  ann  coeff",
        "  2    2      1",
        "  1    1      1",
    ]


def test_order_ascii_dagger_spelling(capsys):
    _, out_uni, _ = run(capsys, "order", "a† a")
    _, out_ascii, _ = run(capsys, "order", "ad a")
    assert out_uni == out_ascii


def test_order_expectation_real(capsys):
    code, out, _ = run(capsys, "order", "a† a", "--expectation", "1/2,1/3")
    assert code == 0
    # coherent-state mean photon number |z|^2 = 1/4 + 1/9
    assert out.strip() == "13/36"


def test_order_expectation_complex(capsys):
    code, out, _ = run(capsys, "order", "a†", "--expectation", "1/2,1/3")
    assert code == 0
    assert out.strip() == "1/2 - 1/3i"


def test_order_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "order", "a*)(")
    assert code == 2
    assert "position 2" in out + err


@pytest.mark.parametrize("text,message", [
    ("a²", "unexpected character '²' (at position 1)"),
    ("(", "unexpected 'end of input' (at position 1)"),
    ("a^", "expected 'int', found 'end of input' (at position 2)"),
])
def test_order_parse_error_names_its_position(capsys, text, message):
    assert run(capsys, "order", text) == (2, "", f"error: {message}\n")


def test_order_deep_nesting_exits_2():
    # A subprocess, because an uncaught RecursionError would exit with 1.
    text = "(" * 1500 + "a" + ")" * 1500
    proc = subprocess.run([sys.executable, "-m", "normord.cli", "order", text],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: parentheses nested deeper than")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [("a^99999999999",),
                                  ("a† a", "--power", "100000"),
                                  ("2", "--power", "100000"),
                                  ("(a + ad)^40",),
                                  ("(a + ad)" * 40,),
                                  ("(ad a)^15000",),
                                  ("a + ad", "--power", "200", "--expectation", "1e1000")])
def test_order_size_limits_exit_2(argv):
    # Subprocesses with a timeout: without the limits these run until killed.
    proc = subprocess.run([sys.executable, "-m", "normord.cli", "order", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "past the limit of" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_order_rejects_bad_power_and_bfile(capsys):
    assert run(capsys, "order", "a", "--power", "0")[0] == 2
    assert run(capsys, "order", "a", "--format", "bfile")[0] == 2


def test_order_bad_expectation_exits_2_before_the_kernel(capsys, monkeypatch):
    # Z is read before any normal ordering: a power that takes the kernel
    # half a second ends at once
    def kernel(state, letter):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(backend, "graded_step", kernel)
    code, out, err = run(capsys, "order", "a^3 (ad a)^3", "--power", "300",
                         "--expectation", "x")
    assert (code, out) == (2, "")
    assert err == "error: Invalid literal for Fraction: 'x'\n"


def test_order_output_limit_exits_2_before_building():
    # D(3,3)^3000 is 27000 letters, inside MAX_LETTERS, but would print
    # about 329 MB; it was still running after 60 s without the bound
    proc = subprocess.run(
        [sys.executable, "-m", "normord.cli", "order", "a^3 (ad a)^3",
         "--power", "3000"], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the normal form would print about 329.4 MB, "
                           "past the limit of 128 MB\n")


def test_order_power_routes_agree_with_the_fold(capsys):
    # a negative shift, and mixed shifts, through the same kernel
    for text in ("ad (ad a)^2 + 1/2 ad", "a + ad"):
        code, out, _ = run(capsys, "order", text, "--power", "5")
        assert code == 0
        assert normal_form_from_json(out) == ordered(text) ** 5


def test_order_broken_pipe_exits_141():
    # The reader closes the pipe after 10 bytes of a 0.5 MB answer: the
    # next write fails with EPIPE.  That is not a verification failure
    # (exit 1), so the exit code is 128 + SIGPIPE and stderr stays empty.
    proc = subprocess.Popen(
        [sys.executable, "-m", "normord.cli", "order", "a (ad a)^3",
         "--power", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.fixture
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def order_subprocess(*argv):
    # a fresh interpreter starts with the default 4300-digit str/int limit
    proc = subprocess.run([sys.executable, "-m", "normord.cli", "order", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    terms = json.loads(proc.stdout)["terms"]
    return {(t["dag"], t["ann"]): t["coeff"] for t in terms}


def test_order_prints_a_coefficient_past_the_digit_limit(no_digit_limit):
    assert order_subprocess("2^15000 ad") == {(1, 0): str(2**15000)}


def test_order_row_power_past_the_digit_limit(no_digit_limit):
    # D(1,3)^600: the a^600 coefficient is (600!)^3, the top one is 1
    terms = order_subprocess("a (ad a)^3", "--power", "600")
    assert len(terms) == 1801
    assert max(len(c) for c in terms.values()) > 4300
    assert int(terms[(0, 600)]) == math.factorial(600) ** 3
    assert terms[(1800, 2400)] == "1"


def test_main_restores_the_int_digit_limit(capsys):
    # main lifts the interpreter's digit guard for its own call only, so
    # an embedding program keeps its limit, after a result past it too
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, _ = run(capsys, "order", "2^20000 ad")  # 6021 digits
        assert code == 0 and sys.get_int_max_str_digits() == 5000
        assert run(capsys, "order", "a^")[0] == 2
        assert sys.get_int_max_str_digits() == 5000
        sys.set_int_max_str_digits(0)
        assert json.loads(out)["terms"] == [{"dag": 1, "ann": 0, "coeff": str(2**20000)}]
    finally:
        sys.set_int_max_str_digits(limit)


# --- seq -----------------------------------------------------------------

def test_seq_bfile_known_values(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "1", "1", "6",
                       "--format", "bfile", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "0 1\n1 2\n2 7\n3 34\n4 209\n5 1546\n6 13327\n"


def test_seq_poly_bfile_exits_2_before_building_rows(capsys, tmp_path):
    code, out, err = run(capsys, "seq", "1", "1", "5", "--poly",
                         "--format", "bfile", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: b-file output applies to `seq --number` only\n"
    assert list(tmp_path.iterdir()) == []


def test_seq_json_fields(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "2", "3", "3",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert [int(v) for v in data["values"]] == [1, 37, 9415, 7063615]
    assert data["r"] == 2 and data["M"] == 3
    assert "oeis" not in data or data.get("oeis") is None


def test_seq_poly_rows_match_library(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "1", "2", "3", "--poly",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    rows = json.loads(out)["rows"]
    for n, row in enumerate(rows):
        assert [int(c) for c in row] == [
            gen_stirling(1, 2, n, k) for k in range(2 * n + 1)
        ]


def test_seq_degenerate_m_zero(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "1", "0", "5",
                       "--format", "bfile", "--cache-dir", str(tmp_path))
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["1"] * 6


def test_seq_rejects_negative_args(capsys, tmp_path):
    assert run(capsys, "seq", "-1", "1", "3",
               "--cache-dir", str(tmp_path))[0] == 2
    assert run(capsys, "seq", "1", "1", "-3",
               "--cache-dir", str(tmp_path))[0] == 2


@pytest.mark.parametrize("argv", [("1", "1", "509"), ("1", "3", "258"),
                                  ("1", "0", "409200"), ("2", "2", "10000000000"),
                                  # past any float the estimate could form
                                  ("1", "1", "1" + "0" * 400),
                                  ("1", "1", "1" + "0" * 400, "--poly"),
                                  ("0", "1", "1" + "0" * 400)])
def test_seq_size_limit_exits_2(argv, tmp_path):
    # Subprocesses with a timeout: past the limit no row may be built, and
    # the cache directory stays empty.
    proc = subprocess.run([sys.executable, "-m", "normord.cli", "seq", *argv,
                           "--cache-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "past the limit of" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_seq_size_limit_counts_m():
    # the largest n inside the limit falls as M grows; (1,1,400) and the
    # widest triangle keys of the benchmark (width 240 at M = 1, 2, 3) stay inside
    for r, M, n in ((1, 1, 400), (1, 1, 243), (2, 2, 122), (3, 3, 82)):
        check_triangle(r, M, n)
    for M, n in ((1, 508), (2, 330), (3, 257), (0, 409199)):
        check_triangle(1, M, n)
        with pytest.raises(LimitError):
            check_triangle(1, M, n + 1)


@pytest.mark.parametrize("r,M", [(0, 0), (1, 1), (0, MAX_LETTERS // 2),
                                 (MAX_LETTERS, 0)])
def test_seq_size_limit_forms_no_float_past_2_to_the_512(r, M):
    # rows and entries past 2^512 bytes are refused on those ints alone;
    # below, the float estimate holds for any r and M inside the letter bound
    def floor_bits(n):
        return ((n + 1) * 128 + (n + 1) * (M * n + 2) // 2 * 36).bit_length()

    n = 2 ** 600
    for step in range(600, -1, -1):  # the largest n with floor_bits(n) <= 512
        if floor_bits(n - 2 ** step) > 512:
            n -= 2 ** step
    n -= 1
    with pytest.raises(LimitError, match=r"write about \d+\.\d MB of rows"):
        check_triangle(r, M, n)
    for n_max in (n + 1, 10 ** 400):
        with pytest.raises(LimitError, match=r"write more than 2\^\d+ MB of rows"):
            check_triangle(r, M, n_max)


_HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ("seq", _HUGE, "1", "3"),
    ("seq", _HUGE, "1", "3", "--poly"),
    ("seq", "9223372036854775807", "1", "1"),
    ("seq", "3000000", "1", "1"),
    ("seq", "1", "15001", "0", "--poly"),
    ("verify", "egf", "--r", _HUGE, "--n", "2"),
    ("verify", "graphs", "--r", _HUGE, "--n", "2"),
    ("verify", "commutator", "--r", _HUGE),
    ("verify", "bell-first-kind", "--r", _HUGE, "--n", "2"),
    ("verify", "stirling-expansion", "--M", _HUGE, "--n", "2"),
    ("verify", "hyp-generating-function", "--r", _HUGE, "--lambda-order", "2"),
    ("verify", "conjecture", "--r", _HUGE, "--n", "2"),
])
def test_r_or_m_past_the_letter_bound_exits_2_before_building(argv, tmp_path):
    # D(r,M) = a^r (ad a)^M has r + 2M letters, bounded as `order` bounds
    # a word.  Unbounded, these exited 1 on an OverflowError reported as a
    # verification failure, died of a MemoryError, or ran with time and
    # memory growing in r (conjecture until it was killed).
    if argv[0] == "seq":
        argv += ("--cache-dir", str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "normord.cli", *argv],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: D(")
    assert proc.stderr.endswith(f" letters, past the limit of {MAX_LETTERS}\n")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_letter_bound_counts_r_plus_2m(capsys):
    check_triangle(MAX_LETTERS - 2, 1, 1)
    check_triangle(0, MAX_LETTERS // 2, 0)
    for r, M in ((MAX_LETTERS - 1, 1), (1, MAX_LETTERS // 2)):
        with pytest.raises(LimitError, match=f"D\\({r},{M}\\) would reach"):
            check_triangle(r, M, 0)
    # an r or M not given counts as 0
    with pytest.raises(LimitError, match="D\\(30001,0\\) would reach 30001"):
        run_identity("egf", r=MAX_LETTERS + 1, n=2)
    with pytest.raises(LimitError, match="D\\(0,15001\\) would reach 30002"):
        run_identity("stirling-expansion", M=MAX_LETTERS // 2 + 1, n=2)
    code, out, err = run(capsys, "seq", "29998", "1", "1", "--format", "bfile")
    assert (code, out, err) == (0, "0 1\n1 29999\n", "")


# --- argv ----------------------------------------------------------------

REFERENCE = reference_parser()

# Values each kind of argument is drawn from, good ones and bad ones:
# negative numbers, flag-like text and text with a space in it included
TEXTS = {int: (["0", "3", "-1", "-12", "+4"],
               ["x", "1.5", "-.5", "", " 7", "1_0", "\u0663", "-\u0663"]),
         str: (["a", "-a + ad", "1/2,1", "-1", "-", "", "--bogus=a b", "order"],
               ["--x", "--format=a b"])}
# Flags no table lists: a prefix of a real flag included
UNKNOWN_FLAGS = [("--prec", None, int, "", ""), ("--bogus", None, str, "", ""),
                 ("-x", None, str, "", "")]


def unread_flags(command):
    """The flags of the other commands that `command` does not read."""
    own = {spec[0] for spec in cli._COMMANDS[command].flags}
    return list(dict.fromkeys(spec for other in cli._COMMANDS.values()
                              for spec in other.flags if spec[0] not in own))


@st.composite
def argvs(draw):
    """An argv built from the argv table; about one item in ten is bad."""
    def pick(good, bad):
        return draw(st.sampled_from(good if draw(st.integers(0, 9)) else bad))

    def flag(command):
        name, _, kind, _, _ = pick(list(cli._COMMANDS[command].flags),
                                   UNKNOWN_FLAGS + unread_flags(command))
        if kind is bool:
            return pick([[name]], [[f"{name}=x"]])
        good, bad = TEXTS.get(kind) or (list(kind), ["xml", ""])
        value = pick(good, bad)
        return pick([[name, value], [f"{name}={value}"]], [[name]])

    command = pick(list(cli._COMMANDS), ["bogus", None])
    if command not in cli._COMMANDS:
        return [command] if command else []
    spec = cli._COMMANDS[command]
    positionals = [pick(*(TEXTS.get(kind) or (list(kind), ["xml"])))
                   for _, kind, _ in spec.positionals]
    positionals = pick([positionals], [positionals[1:], positionals + ["3"]])
    # flags go anywhere after the command, between the positionals, which
    # keep their order
    groups = [(draw(st.integers(0, len(positionals))), flag(command))
              for _ in range(draw(st.integers(0, 4)))]
    argv = [command]
    for i, value in enumerate([*positionals, None]):
        argv += [t for at, tokens in groups if at == i for t in tokens]
        argv += [] if value is None else [value]
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_argv_table_reads_what_the_reference_parser_reads(argv):
    with redirect_stderr(io.StringIO()):
        try:
            expected = vars(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            expected = exc.code
    if expected != 2:
        assert vars(cli._parse_argv(argv)) == expected
        return
    with pytest.raises(ValueError):
        cli._parse_argv(argv)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ")
    assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    ((), "a command is required: order, seq, verify, cache"),
    (("--format", "json"), "'--format' comes before the command; the command "
     "comes first: order, seq, verify, cache"),
    (("bogus",), "unknown command 'bogus' (choose from order, seq, verify, cache)"),
    (("order", "a", "--power", "x"), "--power takes an integer, not 'x'"),
    (("order", "a", "--power"), "--power needs a value"),
    (("seq", "1", "1", "5", "--bogus"), "unrecognized argument '--bogus'"),
    (("seq", "1", "x", "5"), "M takes an integer, not 'x'"),
    (("seq", "1", "1"), "seq needs n_max"),
    (("seq", "1", "1", "5", "6"), "unexpected argument '6'"),
    (("seq", "1", "1", "5", "--poly=yes"), "--poly takes no value"),
    (("seq", "1", "1", "5", "--number", "--poly"),
     "--number and --poly exclude each other"),
    (("cache", "empty"), "action takes one of clear, not 'empty'"),
    (("seq", "1", "1", "2", "--format=xml"),
     "--format takes one of json, table, bfile, not 'xml'"),
    # a flag is spelled in full: no prefix stands for it
    (("verify", "all", "--prec", "60"), "unrecognized argument '--prec'"),
    (("order", "-a"), "unrecognized argument '-a'"),
    # an integer is ASCII digits with an optional sign, as in an expression
    (("verify", "graphs", "--n", "1_0"), "--n takes an integer, not '1_0'"),
    (("verify", "graphs", "--n", "\u0663"), "--n takes an integer, not '\u0663'"),
    (("verify", "graphs", "--n", " 1"), "--n takes an integer, not ' 1'"),
    (("order", "a", "--power", "\u0663"), "--power takes an integer, not '\u0663'"),
    (("order", "a", "--power", "0"), "--power must be >= 1"),
    # a number flag is Fraction's grammar in ASCII digits: no other digit,
    # no "_" and no surrounding space
    (("verify", "hyp-generating-function", "--tolerance", " \u0661e-4_0"),
     "Invalid literal for Fraction: ' \u0661e-4_0'"),
    (("verify", "hyp-generating-function", "--tolerance", "1_0e0_0"),
     "Invalid literal for Fraction: '1_0e0_0'"),
    (("order", "ad a", "--expectation", "\u0663"),
     "Invalid literal for Fraction: '\u0663'"),
    (("order", "ad a", "--expectation", " 1_0 "),
     "Invalid literal for Fraction: ' 1_0 '"),
    # a negative number outside argparse's -digits and -digits.digits reads
    # as a flag; a value of the number flag's grammar is told the = form
    (("order", "ad a", "--expectation", "-1/2,1"), "--expectation needs a value; "
     "give a value that starts with '-' as --expectation=-1/2,1"),
    (("order", "ad a", "--expectation", "-1e-3"), "--expectation needs a value; "
     "give a value that starts with '-' as --expectation=-1e-3"),
    (("verify", "hyp-generating-function", "--tolerance", "-1e-40"),
     "--tolerance needs a value; give a value that starts with '-' as "
     "--tolerance=-1e-40"),
    (("order", "ad a", "--expectation", "-1/2,1,3"), "--expectation needs a value"),
    (("verify", "hyp-generating-function", "--tolerance", "-1/2,1"),
     "--tolerance needs a value"),
])
def test_bad_argv_exits_2_with_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_argv_values_that_start_with_a_minus(capsys, tmp_path):
    # a negative number is a value, so the range checks refuse it in their
    # own words; an expression with a space, or after "--", is a positional
    assert run(capsys, "seq", "-1", "1", "3") == (
        2, "", "error: r, M, n_max must be nonnegative\n")
    assert run(capsys, "verify", "conjecture", "--M", "-1")[0] == 2
    assert run(capsys, "order", "a", "--power=-2") == (
        2, "", "error: --power must be >= 1\n")
    minus_a = normal_form_from_json(run(capsys, "order", "-a + ad")[1])
    assert minus_a == ordered("ad - a")
    assert normal_form_from_json(run(capsys, "order", "--", "-a")[1]) == ordered("-a")
    assert run(capsys, "order", "ad a", "--expectation=-1/2,1") == (0, "5/4\n", "")
    assert run(capsys, "order", "ad a", "--expectation", "-0.5") == (0, "1/4\n", "")
    # the last of a repeated flag wins, = form or not
    code, out, _ = run(capsys, "seq", "1", "1", "3", "--format", "json",
                       "--format=table", "--cache-dir", str(tmp_path))
    assert code == 0 and out.startswith("# r=1 M=1")


@pytest.mark.parametrize("argv", [("--help",), ("-h",), ("order", "--help"),
                                  ("seq", "1", "-h"), ("verify", "-h"),
                                  ("cache", "--help")])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: normord")
    # a command's help lists the flags it reads and no other
    listed = {line.split()[0] for line in out.splitlines()
              if line.startswith("  --")}
    command = argv[0] if argv[0] in cli._COMMANDS else None
    assert listed == ({flag for flag, *_ in cli._COMMANDS[command].flags}
                      if command else set())


# --- verify --------------------------------------------------------------

def test_verify_single_identity_json(capsys):
    code, out, _ = run(capsys, "verify", "sheffer", "--r", "2")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["identity"] == "sheffer"
    assert reports[0]["status"] == "pass"


def test_verify_graphs(capsys):
    code, out, _ = run(capsys, "verify", "graphs", "--r", "1", "--M", "1",
                       "--n", "3")
    assert code == 0
    assert json.loads(out)[0]["details"]["totals"] == [2, 7, 34]


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) > 50
    assert all(r["status"] == "pass" for r in reports)


def test_verify_help_lists_every_id(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    listed = {line.split()[0]: line.split()[1:] for line in out.splitlines()
              if line.startswith("  ") and line.split()}
    for identity in (*SUITE_IDS, *EXAMPLE_IDS):
        assert identity in listed, identity
    assert listed["commutator"] == ["--r", "--M"]
    assert listed["laguerre-shifted"] == ["--n", "--lambda-order"]


def test_verify_unknown_identity_exits_2(capsys):
    assert run(capsys, "verify", "nonsense")[0] == 2


def test_verify_rejects_bfile(capsys):
    assert run(capsys, "verify", "sheffer", "--format", "bfile")[0] == 2


def test_probe_reports_record_only_what_they_used(capsys):
    # the conjecture check is exact: it refuses a precision or tolerance,
    # and its reports record neither
    code, out, err = run(capsys, "verify", "conjecture", "--r", "5",
                         "--precision", "60", "--tolerance", "1e-20")
    assert (code, out) == (2, "")
    assert err == ("error: conjecture does not read --precision; "
                   "it reads --r --M --n\n")
    code, out, _ = run(capsys, "verify", "conjecture", "--r", "5")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2
    for rep in reports:
        assert rep["mode"] == "exact"
        assert "precision" not in rep
        assert "tolerance" not in rep


def test_probe_grid_follows_m_and_n_without_r(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--M", "2", "--n", "5")
    assert code == 0
    got = [(rep["parameters"]["r"], rep["parameters"]["M"],
            rep["parameters"]["n_max"]) for rep in json.loads(out)]
    assert got == [(4, 2, 5), (5, 2, 5), (6, 2, 5)]


@pytest.mark.parametrize("flag,value", [("--r", "0"), ("--M", "-1")])
def test_verify_conjecture_rejects_r_below_1_and_negative_m(capsys, flag, value):
    code, out, err = run(capsys, "verify", "conjecture", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_conjecture_runs_at_any_r(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--r", "7", "--M", "3",
                       "--n", "6")
    assert code == 0
    (rep,) = json.loads(out)
    assert (rep["identity"], rep["mode"], rep["status"]) == (
        "conjecture", "exact", "pass")
    assert rep["parameters"] == {"r": 7, "M": 3, "n_max": 6}
    code, out, _ = run(capsys, "verify", "conjecture", "--r", "4", "--M", "0")
    assert code == 0
    assert json.loads(out)[0]["parameters"] == {"r": 4, "M": 0, "n_max": 3}


@pytest.mark.parametrize("identity", ["stirling-hyp", "bell-hyp-r1"])
def test_verify_closed_form_refuses_m_below_1(capsys, identity):
    code, out, err = run(capsys, "verify", identity, "--M", "0")
    assert code == 2
    assert out == ""
    assert err == "error: need M >= 1 and n_max >= 0\n"


def test_verify_conjecture_refusal_is_its_own(capsys):
    # the conjecture check refuses r = 0 in its own words and, unlike
    # bell-hyp-r*, runs at M = 0
    code, out, err = run(capsys, "verify", "conjecture", "--r", "0")
    assert code == 2
    assert out == ""
    assert err == "error: need r >= 1, M >= 0 and n_max >= 0\n"
    code, out, _ = run(capsys, "verify", "conjecture", "--r", "4", "--M", "0",
                       "--n", "2")
    assert code == 0
    assert json.loads(out)[0]["parameters"] == {"r": 4, "M": 0, "n_max": 2}


@pytest.mark.parametrize("argv,param", [
    (("graphs", "--r", "1", "--M", "1", "--n", "0"), "n_max"),
    (("hyp-generating-function", "--r", "1", "--M", "1",
      "--lambda-order", "0"), "lambda_order"),
])
def test_verify_takes_zero_size_as_given(capsys, argv, param):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert [rep["parameters"][param] for rep in json.loads(out)] == [0]


@pytest.mark.parametrize("argv", [
    ("bell-first-kind", "--r", "1", "--n", "-1"),
    ("laguerre-normal-form", "--n", "-5"),
    ("exp-monomial", "--n", "-1"),
    ("stirling-expansion", "--r", "1", "--M", "1", "--n", "-3"),
])
def test_verify_negative_size_exits_2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_exp_kummer_past_x_order_exits_2(capsys):
    code, out, err = run(capsys, "verify", "exp-kummer", "--lambda-order", "17")
    assert code == 2
    assert out == ""
    assert err == ("error: insufficient truncation order: lambda_order 17 "
                   "is past x_order 16\n")
    assert run(capsys, "verify", "exp-kummer", "--lambda-order", "16")[0] == 0


def test_verify_eigenfunction_that_would_compare_nothing_exits_2(capsys):
    # the default order 32 - r leaves the image 32 - 2r powers: none at r = 20
    code, out, err = run(capsys, "verify", "eigenfunction", "--r", "20", "--M", "1")
    assert code == 2
    assert out == ""
    assert err == ("error: eigenfunction at r = 20, order 12 compares nothing: the "
                   "image keeps order - r x powers (the default order 32 - r needs "
                   "r <= 15)\n")
    assert run(capsys, "verify", "eigenfunction", "--r", "15", "--M", "1")[0] == 0


@pytest.mark.parametrize("identity", ["examples", "laguerre-shifted"])
def test_verify_shift_past_the_lambda_order_exits_2(capsys, identity):
    # both sides of laguerre-shifted start at lambda^p: at p = 7 and lambda
    # order 6 every compared row would be empty
    code, out, err = run(capsys, "verify", identity, "--n", "7")
    assert (code, out) == (2, "")
    assert err == ("error: laguerre-shifted at p = 7, lambda order 6 compares "
                   "nothing: both sides start at lambda^p (need p <= lambda_order)\n")
    # its default shifts 1..3 stop at a lower lambda order, and none is left
    # at lambda order 0
    code, out, _ = run(capsys, "verify", "laguerre-shifted", "--lambda-order", "2",
                       "--format", "table")
    assert code == 0
    assert [line.split()[4] for line in out.splitlines()] == ["p=1", "p=2"]
    code, out, err = run(capsys, "verify", "laguerre-shifted", "--lambda-order", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: laguerre-shifted at p = 1, lambda order 0 compares")
    assert len(err.splitlines()) == 1
    assert run(capsys, "verify", identity, "--n", "6")[0] == 0


@pytest.mark.parametrize("identity", ["examples", "laguerre-shifted"])
def test_verify_n_below_one_for_the_shifted_example_exits_2(capsys, identity):
    code, out, err = run(capsys, "verify", identity, "--n", "0")
    assert code == 2
    assert out == ""
    assert err == (f"error: {identity} needs --n >= 1 "
                   "(laguerre-shifted takes it as its p)\n")


@pytest.mark.parametrize("argv,message", [
    (("verify", "eigenfunction", "--n", "50"),
     "eigenfunction does not read --n; it reads --r --M"),
    (("verify", "bell-hyp-r2", "--r", "3"),
     "bell-hyp-r2 does not read --r; it reads --M --n"),
    (("verify", "commutator", "--r", "1", "--n", "2"),
     "commutator does not read --n; it reads --r --M"),
    (("verify", "laguerre-ogf", "--M", "1"),
     "laguerre-ogf does not read --M; it reads --lambda-order"),
    (("verify", "all", "--r", "2"),
     "all does not read --r; it reads --precision --tolerance"),
    # an id that does not read --lambda-order must not run its default
    # orders instead
    (("verify", "all", "--lambda-order", "40"),
     "all does not read --lambda-order; it reads --precision --tolerance"),
    (("verify", "commutator", "--M", "2", "--lambda-order", "7"),
     "commutator does not read --lambda-order; it reads --r --M"),
    (("verify", "commutator", "--lambda-order", "7"),
     "commutator does not read --lambda-order; it reads --r --M"),
    # --precision and --tolerance too: only `all` and the numeric checks read them
    (("verify", "commutator", "--precision", "500", "--tolerance", "1e-400"),
     "commutator does not read --precision; it reads --r --M"),
    (("verify", "graphs", "--tolerance", "1e-20"),
     "graphs does not read --tolerance; it reads --r --M --n"),
])
def test_verify_rejects_an_override_the_id_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (("verify", "commutator", "--precision", "29"),
     "commutator does not read --precision; it reads --r --M"),
    (("verify", "graphs", "--tolerance", "0"),
     "graphs does not read --tolerance; it reads --r --M --n"),
    (("verify", "commutator", "--tolerance", "inf"),
     "commutator does not read --tolerance; it reads --r --M"),
    (("verify", "all", "--lambda-order", "3", "--precision", "29"),
     "all does not read --lambda-order; it reads --precision --tolerance"),
])
def test_unread_number_flag_is_refused_before_its_value(capsys, argv, message):
    # the id's reading is checked first: a --precision or --tolerance it
    # does not read is refused as unread, whatever its value
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_accepts_every_override_the_id_reads(capsys):
    # the benchmark's verify requests, and an example id through `examples`
    assert run(capsys, "verify", "stirling-expansion", "--n", "2")[0] == 0
    assert run(capsys, "verify", "eigen-operator", "--M", "1")[0] == 0
    code, out, _ = run(capsys, "verify", "examples", "--n", "2", "--M", "1",
                       "--format", "table")
    assert code == 0
    assert "laguerre-shifted r=1 M=1 p=2 " in out
    # --lambda-order through `examples`, whose parts read it
    code, out, _ = run(capsys, "verify", "examples", "--lambda-order", "2",
                       "--format", "table")
    assert code == 0
    assert "hyp-compact r=1 M=1 lambda_order=2\n" in out


# --- startup -------------------------------------------------------------

# The layers the benchmark's tracer wraps (perfbench/spans.py LAYERS); it
# reads each from sys.modules right after `import normord.cli`.
LAYERS = ("backend", "parser", "weyl", "stirling", "graphs", "laguerre",
          "closedform", "hyperreal", "suite", "cache", "serialize", "cli")


def test_import_loads_every_layer_and_no_dataclasses():
    # json too stays unloaded: order and seq --poly print from templates;
    # argv is read from cli's own table, so argparse and the gettext and
    # locale modules it loads stay out too
    probe = "import sys, normord.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "dis", "ast", "json",
                         "argparse", "gettext", "locale"}
    assert {f"normord.{layer}" for layer in LAYERS} <= loaded


# The package root's public names: one production path per job, plus the
# entry points the README's quick tour shows.
PUBLIC = [
    "LimitError", "ParseError", "parse_expr",
    "SeriesQ", "factorial", "falling_factorial", "laguerre_poly",
    "phyperq_partial", "phyperq_series", "pochhammer",
    "bell_sequence", "classical_bell", "classical_stirling2",
    "gen_bell_number", "gen_stirling", "stirling1_signless", "stirling_rows",
    "BosonExpr", "NormalForm", "laguerre_derivative_nf",
    "laguerre_derivative_word", "normal_order_power", "normal_order_rewrite",
    "normal_order_rook", "word_product_normal_form", "word_to_normal_form",
    "enumerate_graphs",
    "DotSeries", "DxOperator", "apply_Dx", "egf_bell_r1",
    "eigenfunction_series", "exp_D_r1_normal_form",
    "hyp_generating_function_check",
    "IdentityReport", "run_identity", "run_suite", "suite_passed",
    "normal_form_to_json", "sequence_bfile", "sequence_to_json",
    "load_triangle", "__version__",
]


def test_every_exported_name_resolves():
    import normord

    assert normord.__all__ == PUBLIC
    for module in (normord, *(importlib.import_module(f"normord.{name}")
                              for name in (*LAYERS, "series", "report"))):
        for name in getattr(module, "__all__", ()):  # closedform has none
            assert hasattr(module, name), (module.__name__, name)


# --- process entry -------------------------------------------------------

# One request of each kind, in order: the two `seq --poly` requests are a
# miss and then its hit on one cache directory, which `cache clear` empties.
PARITY_REQUESTS = [
    ("order", "a (ad a)^2 + 1/2 ad"),
    ("order", "(ad a)^3", "--expectation", "1/2,1"),
    ("seq", "1", "1", "30", "--number", "--format", "bfile"),
    ("seq", "2", "2", "12", "--poly", "--cache-dir", "{dir}"),
    ("seq", "2", "2", "12", "--poly", "--cache-dir", "{dir}"),
    # table, because the JSON report records its elapsed time
    ("verify", "commutator", "--r", "1", "--M", "1", "--format", "table"),
    ("cache", "clear", "--cache-dir", "{dir}"),
    ("order", "a^"),
    ("--help",),
]


def _files(path):
    return {f.name: f.read_bytes() for f in path.iterdir()} if path.exists() else {}


def test_process_entry_prints_what_main_prints(capsys, tmp_path):
    # `python -m normord.cli` exits through `run`, which freezes the
    # collector after `main`: no byte of stdout, stderr or the cache file
    # and no exit code may differ from an in-process `main` call
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
    codes = []
    for request in PARITY_REQUESTS:
        argv = [a.format(dir=tmp_path / "process") for a in request]
        proc = subprocess.run([sys.executable, "-m", "normord.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        argv = [a.format(dir=tmp_path / "main") for a in request]
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode()), request
        assert _files(tmp_path / "process") == _files(tmp_path / "main"), request
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 0]


# Requests PARITY_REQUESTS leaves out: the whole default sweep, the
# worked examples, one scaled oracle, and the Bell numbers as JSON
MODULE_REQUESTS = [
    *PARITY_REQUESTS,
    ("verify", "all"),
    ("verify", "examples"),
    ("verify", "graphs", "--n", "4"),
    ("seq", "1", "1", "30", "--number", "--format", "json"),
]

_MODULES_PROBE = ("import sys, normord.cli as cli\n"
                  "cli.main(sys.argv[1:])\n"
                  "print('rational:', *(name for name in ('fractions', 'decimal', 'numbers')\n"
                  "                     if name in sys.modules), file=sys.stderr)\n"
                  "print('loaded:', *(name for name in ('json', 'contextvars')\n"
                  "                   if name in sys.modules), file=sys.stderr)")


def test_no_command_loads_json(tmp_path):
    # every output is printed from templates or by suite's own writer; only
    # a run of several ids opens the sweep table, which loads contextvars
    for request in MODULE_REQUESTS:
        argv = [a.format(dir=tmp_path) for a in request]
        proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv],
                              capture_output=True, text=True, timeout=60)
        loaded = proc.stderr.rpartition("loaded:")[2].split()
        sweep = request[:2] in (("verify", "all"), ("verify", "examples"))
        assert loaded == (["contextvars"] if sweep else []), request


# No request builds a Fraction: the triangle, the normal forms of D(r,M)^n
# and the graph tables are integers, a rational coefficient, an
# expectation and a tolerance are int pairs or a container's ints over one
# denominator, and so is every rational of the suite, the numeric check and
# its default tolerance included.  `fractions` loads `decimal` and
# `numbers` with it.
_NO_RATIONAL_STACK_REQUESTS = [
    *(("seq", "2", "1", "12", *opts) for opts in (
        (), ("--number", "--format", "table"), ("--format", "bfile"))),
    *(("seq", "2", "1", "12", "--poly", "--format", fmt, "--cache-dir", "{dir}")
      for fmt in ("json", "table", "json")),  # a miss, a miss, then a hit
    ("cache", "clear", "--cache-dir", "{dir}"),
    ("--help",),
    ("verify", "--help"),
    ("order", "a (ad a)^2 + 2 ad - 3"),
    ("order", "a^2 (ad a)^2", "--power", "12", "--format", "table"),
    ("order", "(2 a + ad)^3 (a ad)", "--power", "2"),
    ("order", "a (ad a)^2 + 1/2 ad"),
    ("order", "(1/2 a + ad)^2", "--power", "3", "--format", "table"),
    ("order", "a ad", "--expectation", "2"),
    ("order", "(ad a)^3", "--expectation", "1/2,1"),
    ("order", "a^3 (ad a)^2", "--power", "15", "--expectation", "1/2,-3/4"),
    ("order", "ad a", "--expectation", "0.5,-1e-2"),
    ("verify", "graphs", "--n", "4"),
    ("verify", "stirling-expansion", "--format", "table"),
    ("verify", "all"),
    ("verify", "all", "--precision", "100"),
    ("verify", "examples"),
    ("verify", "hyp-generating-function"),
    ("verify", "hyp-generating-function", "--tolerance", "1e-40"),
    ("verify", "exp-kummer"),
]


def test_which_requests_load_the_rational_stack(tmp_path):
    probe = "import sys, normord.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert not set(proc.stdout.split()) & {"fractions", "decimal", "_decimal", "numbers"}
    for request in _NO_RATIONAL_STACK_REQUESTS:
        argv = [a.format(dir=tmp_path) for a in request]
        proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (request, proc.stderr)
        loaded = proc.stderr.rpartition("rational:")[2].partition("\n")[0].split()
        assert loaded == [], request


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "order", "a (ad a)^2")[0] == 0
    assert run(capsys, "order", "a^")[0] == 2
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_run_returns_the_code_of_main_and_freezes():
    probe = ("import gc, normord.cli as cli\n"
             "code = cli.run(['order', 'a^'])\n"
             "print(code, gc.get_freeze_count() > 0, gc.isenabled())")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 True True\n"


# --- cache ---------------------------------------------------------------

def test_cache_cold_then_warm_identical(capsys, tmp_path):
    code1, out1, err1 = run(capsys, "seq", "2", "2", "6", "--poly",
                            "--cache-dir", str(tmp_path))
    code2, out2, err2 = run(capsys, "seq", "2", "2", "6", "--poly",
                            "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2 == ""
    assert list(tmp_path.iterdir()) == [cache.triangle_path(tmp_path, 2, 2, 6)]


def _row_1(line: str):
    """Replace row 1 of the (1,1) file, "1 1", with line."""
    return lambda b: b.replace(b"\n1 1\n", f"\n{line}\n".encode(), 1)


def _resealed(old: bytes, new: bytes):
    """Replace old by new in the (1,1,6) file's rows and write a fresh CRC."""
    def mangle(b):
        head, sep, rest = b.partition(b"\nrows 7\n")
        body = rest[: rest.index(b"crc32 ")].replace(old, new, 1)
        return head + sep + body + b"crc32 %08x\n" % zlib.crc32(body)
    return mangle


@pytest.mark.parametrize("mangle", [
    lambda b: b"X" + b[1:],          # broken magic line
    lambda b: b[: len(b) // 2],      # truncated mid-file
    lambda b: b + b"17 17 17\n",     # extra trailing row
    # tokens that int() reads but str(int) never writes
    _row_1("01 1"),
    _row_1("1 +1"),
    _row_1("1_0 1"),
    _row_1("-0 1"),
    _row_1("1 \u0661"),               # ARABIC-INDIC DIGIT ONE
    _row_1("1  1"),                  # double space
    _row_1("1 1 "),                  # trailing space
    # trailing space on the last row only, before the trailer line
    lambda b: b.replace(b"\ncrc32 ", b" \ncrc32 ", 1),
    lambda b: b[: b.index(b"crc32 ")],                      # no trailer
    lambda b: b[:-2] + b"X\n",                              # garbled CRC
    lambda b: b.replace(b"crc32 ", b"CRC32 "),             # garbled tag
    lambda b: b + b[b.index(b"crc32 "):],                   # trailer twice
    lambda b: b + b"\n",                                    # a byte after it
    # a foreign file that passes the CRC but holds a byte past ASCII
    _resealed(b"\n1 1\n", "\n1 \u0661\n".encode()),
])
def test_cache_corruption_recovers(capsys, tmp_path, mangle):
    _, clean_out, _ = run(capsys, "seq", "1", "1", "6", "--poly",
                          "--cache-dir", str(tmp_path))
    cache_file = cache.triangle_path(tmp_path, 1, 1, 6)
    good = cache_file.read_bytes()

    cache_file.write_bytes(mangle(good))
    assert cache_file.read_bytes() != good
    code, out, err = run(capsys, "seq", "1", "1", "6", "--poly",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean_out
    assert "cache" in err.lower()
    assert cache_file.read_bytes() == good


def test_cache_hit_detects_a_changed_digit(capsys, tmp_path):
    # the changed file keeps every token canonical and every row its
    # width, so only the digits' CRC tells it from the one written
    _, clean_out, _ = run(capsys, "seq", "1", "1", "12", "--poly",
                          "--cache-dir", str(tmp_path))
    cache_file = cache.triangle_path(tmp_path, 1, 1, 12)
    good = cache_file.read_bytes()
    lines = good.split(b"\n")
    tokens = lines[4 + 6].split(b" ")  # row 6, after the 4 header lines
    k = len(tokens) // 2
    tokens[k] = tokens[k][:-1] + b"%d" % ((int(tokens[k][-1:]) + 1) % 10)
    lines[4 + 6] = b" ".join(tokens)
    cache_file.write_bytes(b"\n".join(lines))
    assert cache_file.read_bytes() != good
    code, out, err = run(capsys, "seq", "1", "1", "12", "--poly",
                         "--cache-dir", str(tmp_path))
    assert (code, out) == (0, clean_out)
    assert "corrupt" in err
    assert cache_file.read_bytes() == good


def test_cache_check_detects_every_single_byte_change(tmp_path):
    list(cache.load_triangle(2, 2, 3, tmp_path)[0])
    path = cache.triangle_path(tmp_path, 2, 2, 3)
    good = path.read_bytes()
    cache._open_checked(path, 2, 2, 3).close()
    passed = []
    for i, old in enumerate(good):
        for new in range(256):
            if new == old:
                continue
            path.write_bytes(good[:i] + bytes((new,)) + good[i + 1:])
            try:
                cache._open_checked(path, 2, 2, 3).close()
            except ValueError:
                continue
            passed.append((i, new))
    assert passed == []


def test_cache_hit_check_holds_one_bounded_chunk(tmp_path, monkeypatch):
    want = _row_lines(1, 1, 200)
    list(cache.load_triangle(1, 1, 200, tmp_path)[0])
    assert cache.triangle_path(tmp_path, 1, 1, 200).stat().st_size > 4 * cache._CHUNK
    reads = []

    class Recording(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            reads.append((size, len(data)))
            return data

    def recording_open(file, mode):
        assert mode == "rb"
        return Recording(io.FileIO(file))

    monkeypatch.setattr(cache, "open", recording_open, raising=False)
    rows, hit, warning = cache.load_triangle(1, 1, 200, tmp_path)
    assert (hit, warning) == (True, None)
    assert len(reads) > 4
    assert all(0 <= size <= cache._CHUNK and got <= size for size, got in reads)
    assert list(rows) == want


def _row_lines(r, M, n_max):
    return [" ".join(map(str, row)) for row in stirling_rows(r, M, n_max)]


def test_load_triangle_returns_the_file_tokens(tmp_path, monkeypatch):
    # a miss, a hit, and the second pass of a write that fails all yield
    # each row as one line of decimals, as the file holds it
    want = _row_lines(0, 2, 6)
    rows, hit, warning = cache.load_triangle(0, 2, 6, tmp_path)
    assert (list(rows), hit, warning) == (want, False, None)
    rows, hit, warning = cache.load_triangle(0, 2, 6, tmp_path)
    assert (list(rows), hit, warning) == (want, True, None)
    _write_fails_midway(monkeypatch)
    rows, hit, warning = cache.load_triangle(0, 2, 6, tmp_path / "fails")
    assert (list(rows), hit) == (want, False)
    assert warning.startswith("cache write failed (")


@pytest.mark.parametrize("change", ["clear", "rewrite"])
@pytest.mark.parametrize("hit", [False, True])
def test_load_triangle_rows_outlive_a_change_to_the_file(tmp_path, hit, change):
    # the rows hold the file they checked or wrote, so neither a cache
    # clear nor another writer's replace changes what they read
    want = _row_lines(1, 1, 8)
    if hit:
        list(cache.load_triangle(1, 1, 8, tmp_path)[0])
    rows, was_hit, _ = cache.load_triangle(1, 1, 8, tmp_path)
    assert was_hit == hit
    path = cache.triangle_path(tmp_path, 1, 1, 8)
    if change == "clear":
        assert cache.cache_clear(tmp_path) == 1
    else:
        other = tmp_path / "other"
        list(cache.load_triangle(2, 2, 8, other)[0])
        os.replace(cache.triangle_path(other, 2, 2, 8), path)
    assert list(rows) == want


def _write_fails_midway(monkeypatch):
    real = cache._lines

    def lines(rows):
        for n, line in enumerate(real(rows)):
            if n == 3:
                raise OSError(28, "No space left on device")
            yield line

    monkeypatch.setattr(cache, "_lines", lines)


def _replace_fails(monkeypatch):
    def replace(src, dst):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(cache.os, "replace", replace)


@pytest.mark.parametrize("fault", [None, _write_fails_midway, _replace_fails])
def test_seq_poly_prints_its_rows_when_the_cache_write_fails(
        capsys, tmp_path, monkeypatch, fault):
    # None: the cache directory is a regular file, so no temp file opens
    _, want, _ = run(capsys, "seq", "2", "2", "9", "--poly",
                     "--cache-dir", str(tmp_path / "clean"))
    cache_dir = tmp_path / "cache"
    if fault is None:
        cache_dir.write_bytes(b"")
    else:
        cache_dir.mkdir()
        fault(monkeypatch)
    code, out, err = run(capsys, "seq", "2", "2", "9", "--poly",
                         "--cache-dir", str(cache_dir))
    assert (code, out) == (0, want)
    assert err.startswith("warning: cache write failed (")
    assert err.count("\n") == 1
    # no temp file is left behind
    if fault is None:
        assert cache_dir.read_bytes() == b""
    else:
        assert list(cache_dir.iterdir()) == []


@pytest.mark.parametrize("fmt", [
    ("--poly",), ("--poly", "--format", "table"),
    (), ("--format", "table"), ("--format", "bfile")])
@pytest.mark.parametrize("key", [("0", "2", "6"), ("3", "1", "7")])
def test_seq_hit_prints_its_miss(capsys, tmp_path, fmt, key):
    # only --poly goes through the cache; the numbers write no file
    path = cache.triangle_path(tmp_path, *map(int, key))
    files = [path.name] if "--poly" in fmt else []
    miss = run(capsys, "seq", *key, *fmt, "--cache-dir", str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == files
    hit = run(capsys, "seq", *key, *fmt, "--cache-dir", str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == files
    assert miss == hit
    assert miss[0] == 0 and miss[2] == ""


def test_seq_number_leaves_the_cache_alone(capsys, tmp_path):
    for fmt in ((), ("--format", "table"), ("--format", "bfile")):
        code, _, err = run(capsys, "seq", "1", "1", "6", *fmt,
                           "--cache-dir", str(tmp_path))
        assert (code, err) == (0, "")
    assert list(tmp_path.iterdir()) == []
    # a corrupt file of the same key is neither read nor rewritten
    path = cache.triangle_path(tmp_path, 1, 1, 6)
    path.write_bytes(b"X corrupt\n1 1\n")
    code, out, err = run(capsys, "seq", "1", "1", "6", "--format", "bfile",
                         "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == "0 1\n1 2\n2 7\n3 34\n4 209\n5 1546\n6 13327\n"
    assert path.read_bytes() == b"X corrupt\n1 1\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("kind", [(), ("--poly",), ("--poly", "unwritable")])
def test_seq_refuses_a_wrong_last_constant_term(capsys, tmp_path, monkeypatch, kind):
    # a kernel fault in S(n_max, 0) stops every route before any output
    # or cache file; "unwritable" is --poly with a regular file for its
    # cache directory, which takes its rows from a second pass
    cache_dir = tmp_path
    if kind[1:] == ("unwritable",):
        kind, cache_dir = kind[:1], tmp_path / "file"
        cache_dir.write_bytes(b"")
    real = backend.ff_step

    def faulty(row, c):
        # seq 2 1 6 builds row n by the step at c = r*n, so row 6 at c = 12
        row = real(row, c)
        if c == 12:
            row[0] += 1
        return row

    monkeypatch.setattr(backend, "ff_step", faulty)
    code, out, err = run(capsys, "seq", "2", "1", "6", *kind,
                         "--cache-dir", str(cache_dir))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "S(n=6, k=0)" in err
    assert list(tmp_path.iterdir()) == ([] if cache_dir == tmp_path else [cache_dir])


# The fault of the test above, planted in a process that enters through `run`
_FAULTY_SEQ = """\
import sys
from normord import backend, cli
real = backend.ff_step
def faulty(row, c):
    row = real(row, c)
    if c == 12:
        row[0] += 1
    return row
backend.ff_step = faulty
sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.parametrize("kind", [(), ("--poly",)])
def test_seq_kernel_fault_exits_1_without_a_traceback(tmp_path, kind):
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTY_SEQ, "seq", "2", "1", "6", *kind,
         "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_verify_ends_a_failed_row_check_in_one_line(capsys, monkeypatch):
    # 1 added to S(n, 0) of the last row every triangle draw builds: the
    # check `stirling_rows` makes past its last row fires, for every id
    # that draws the rows to their end, and `verify` reports it in one line
    real = stirling._graded

    def graded(words, p):
        for n, state in enumerate(real(words, p)):
            yield state if n < p else {
                s: [row[0] + 1, *row[1:]] for s, row in state.items()}

    monkeypatch.setattr(stirling, "_graded", graded)
    for identity in ("stirling-hyp", "hyp-generating-function", "all"):
        code, out, err = run(capsys, "verify", identity)
        assert (code, out) == (1, ""), identity
        assert err.startswith("error: S(n=") and len(err.splitlines()) == 1


def test_cache_clear_counts(capsys, tmp_path):
    run(capsys, "seq", "1", "1", "3", "--poly", "--cache-dir", str(tmp_path))
    run(capsys, "seq", "2", "1", "3", "--poly", "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.strip() == "removed 2 cache file(s)"
    assert list(tmp_path.iterdir()) == []


def test_cache_clear_removes_every_version_and_nothing_else(capsys, tmp_path):
    v1 = tmp_path / "triangle-v1-r1-M1-n3.txt"
    v1.write_bytes(b"normord-triangle-cache 1\nr 1\nM 1\nrows 4\n"
                   b"1\n1 1\n2 4 1\n6 18 9 1\n")
    # the hit reads only its own version's file
    rows, hit, warning = cache.load_triangle(1, 1, 3, tmp_path)
    assert (list(rows), hit, warning) == (_row_lines(1, 1, 3), False, None)
    assert list(cache.load_triangle(1, 1, 3, tmp_path)[0]) == _row_lines(1, 1, 3)
    others = ["triangle-v1-r1-M1-n3.txt.bak", "triangle-vX-r1-M1-n3.txt",
              "triangle-v2-r1-M1-n\u0663.txt", "triangle-v2-r1-M1.txt",
              "triangle-v2-r1-M1-n3-x.txt", "notes.txt",
              ".triangle-v2-r1-M1-n3.txt.1-ab.tmp"]
    for name in others:
        (tmp_path / name).write_bytes(b"")
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert (code, out) == (0, "removed 2 cache file(s)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(others)


def test_cache_concurrent_writers(tmp_path, monkeypatch):
    # both writers miss, then both reach os.replace before either moves
    # its file into place, so a shared temp name would lose one replace
    real_replace = os.replace
    barrier = threading.Barrier(2, timeout=30)

    def replace_together(src, dst):
        barrier.wait()
        real_replace(src, dst)

    monkeypatch.setattr(cache.os, "replace", replace_together)
    results = [None, None]

    def writer(i):
        rows, hit, warning = cache.load_triangle(2, 2, 9, tmp_path)
        results[i] = list(rows), hit, warning

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    (rows_a, hit_a, warn_a), (rows_b, hit_b, warn_b) = results
    assert rows_a == rows_b
    assert not hit_a and not hit_b
    assert warn_a is None and warn_b is None
    path = cache.triangle_path(tmp_path, 2, 2, 9)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    rows, hit, warning = cache.load_triangle(2, 2, 9, tmp_path)
    assert (list(rows), hit, warning) == (rows_a, True, None)


# Runs the CLI and, at exit, writes the process's own peak RSS (VmHWM) to
# stderr.  Not RUSAGE_CHILDREN: a child's ru_maxrss counts the peak of the
# process it was started from, here pytest's.
_PEAK_PROBE = """
import atexit, runpy, sys

def report():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(line)
    except OSError:
        pass

atexit.register(report)
sys.argv[0] = "normord"
runpy.run_module("normord.cli", run_name="__main__")
"""


def _seq_poly_peak_kb(n_max, cache_dir):
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, "seq", "1", "1", str(n_max),
         "--poly", "--cache-dir", str(cache_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak = [line.split()[1] for line in proc.stderr.splitlines()
            if line.startswith("VmHWM:")]
    if not peak:
        pytest.skip("no VmHWM in /proc/self/status")
    return int(peak[0])


def test_seq_poly_peak_memory_does_not_grow_with_n(tmp_path):
    # the rows pass through the cache file one at a time, as a miss and
    # as a hit; (1,1,400) prints 29 MB, (1,1,40) 28 kB
    for hit in (False, True):
        small = _seq_poly_peak_kb(40, tmp_path)
        large = _seq_poly_peak_kb(400, tmp_path)
        assert large - small <= 5 * 1024, (hit, small, large)
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NORMORD_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "seq", "3", "1", "2", "--poly")
    assert code == 0
    assert cache.triangle_path(tmp_path, 3, 1, 2).is_file()


@pytest.mark.parametrize("argv", [
    ("seq", "1", "1", "3", "--poly", "--cache-dir", ""),
    ("cache", "clear", "--cache-dir", ""),
    ("cache", "clear", "--cache-dir="),
])
def test_an_empty_cache_dir_exits_2_and_touches_nothing(capsys, monkeypatch,
                                                         tmp_path, argv):
    # an empty path would name the current directory: refused before any
    # file is read, written or removed
    monkeypatch.chdir(tmp_path)
    kept = cache.triangle_path(tmp_path, 1, 1, 3)
    kept.write_bytes(b"not a cache file\n")
    assert run(capsys, *argv) == (
        2, "", "error: --cache-dir takes a directory, not ''\n")
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_bytes() == b"not a cache file\n"


# --- numeric settings ----------------------------------------------------

# The one identity that reads --precision and --tolerance, at its smallest
NUMERIC = ("verify", "hyp-generating-function", "--r", "1", "--M", "1",
           "--lambda-order", "0", "--format", "table")


def test_config_errors_exit_2(capsys):
    # each setting is checked by the command that reads it, in its own words
    for flags, message in [
        (("--precision", "29"), "precision must be at least 30 digits"),
        (("--tolerance", "0"), "tolerance must be positive"),
        (("--precision", "30", "--tolerance", "1e-21"),
         "tolerance tighter than the precision supports "
         "(need tolerance >= 10^-(precision-10))"),
        # the default tolerance, 1e-30, against a lower precision
        (("--precision", "35"), "tolerance tighter than the precision "
         "supports (need tolerance >= 10^-(precision-10))"),
        (("--tolerance", "zero"), "Invalid literal for Fraction: 'zero'"),
        (("--lambda-order", "-1"), "lambda_order must be >= 0"),
        (("--format", "xml"), "--format takes one of json, table, not 'xml'"),
    ]:
        assert run(capsys, *NUMERIC, *flags) == (2, "", f"error: {message}\n")


def test_number_flag_bounds_are_inclusive(capsys):
    assert run(capsys, *NUMERIC, "--precision", str(MAX_PRECISION),
               "--tolerance", f"1e-{MAX_PRECISION - 10}")[0] == 0
    assert run(capsys, *NUMERIC, "--tolerance", f"1e{MAX_EXPONENT}")[0] == 0
    assert run(capsys, *NUMERIC, "--tolerance", "10e0000")[0] == 0
    assert run(capsys, *NUMERIC, "--precision", str(MAX_PRECISION + 1)) == (
        2, "", f"error: precision must be at most {MAX_PRECISION} digits\n")
    code, _, err = run(capsys, *NUMERIC, "--tolerance", f"1e{MAX_EXPONENT + 1}")
    assert (code, err) == (2, f"error: decimal exponent past {MAX_EXPONENT} "
                              f"in '1e{MAX_EXPONENT + 1}'\n")
    code, _, err = run(capsys, *NUMERIC, "--tolerance", "1/0")
    assert (code, err) == (2, "error: zero denominator in '1/0'\n")


@pytest.mark.parametrize("argv", [
    # not a number Fraction reads: Decimal's inf, NaN and 1__0 are refused
    ("verify", "hyp-generating-function", "--tolerance", "inf"),
    # each would build 10**exponent or 10**(precision - 10)
    ("verify", "hyp-generating-function", "--tolerance", "1e999999999999"),
    ("verify", "hyp-generating-function", "--tolerance", "1e-99999999999"),
    ("verify", "hyp-generating-function", "--precision", "100000000000"),
    ("order", "a", "--expectation", "1e99999999999"),
    # read in linear time: a grammar whose exponent parts overlap backtracks
    # quadratically here, for minutes
    ("order", "a", "--expectation", "1e" + "0" * 100_000 + "x"),
])
def test_number_flags_past_their_bounds_exit_2(argv):
    proc = subprocess.run([sys.executable, "-m", "normord.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@st.composite
def fraction_texts(draw):
    """A text of `cli._FRACTION`'s grammar: a sign, then digits and /digits
    (a nonzero denominator), or digits with .digits and e±digits, the
    exponent padded with zeros at times and at most MAX_EXPONENT."""
    digits = st.text("0123456789", min_size=1, max_size=14)
    sign = draw(st.sampled_from(["", "+", "-"]))
    if draw(st.booleans()):
        return f"{sign}{draw(digits)}/{draw(digits.filter(lambda d: d.strip('0')))}"
    whole = draw(st.text("0123456789", max_size=14))
    decimals = draw(st.none() | st.text("0123456789", max_size=14))
    if not whole and not decimals:
        whole = draw(digits)
    text = sign + whole + ("" if decimals is None else "." + decimals)
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + "0" * draw(st.integers(0, 3))
                 + str(draw(st.integers(0, 60) | st.just(MAX_EXPONENT))))
    return text


@example("-0")
@example("+5/10")
@example("3.")
@example(".5")
@example("1E+2")
@example("007e-0003")
@example("0/3")
@example(f"-2.5e-{MAX_EXPONENT}")
@example(f"1e+{MAX_EXPONENT}")
@settings(max_examples=400, deadline=None)
@given(fraction_texts())
def test_number_flag_reads_the_pair_of_fraction(text):
    want = Fraction(text)
    assert cli._parse_fraction(text) == (want.numerator, want.denominator)


@example(0, 0, 7)
@example(-6, 0, 4)
@example(0, -9, 3)
@example(6, 4, 2)
@settings(max_examples=400, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
       st.integers(1, 10**6))
def test_expectation_prints_as_fraction_prints_it(re_num, im_num, den):
    # `_coherent_pairs` hands back two pairs over one denominator, not reduced
    assert cli._format_complex((re_num, den), (im_num, den)) == format_complex(
        Fraction(re_num, den), Fraction(im_num, den))


def test_loose_tolerance_with_high_precision_ok(capsys):
    code, out, _ = run(capsys, *NUMERIC, "--precision", "120",
                       "--tolerance", "1e-100")
    assert (code, out) == (0, "pass          hyp-generating-function "
                              "r=1 M=1 x=1 lambda_order=0\n")


# --- flags each command reads --------------------------------------------

# One value each flag takes; a flag with no value maps to None
FLAG_VALUES = {"--power": "2", "--expectation": "1", "--format": "table",
               "--number": None, "--poly": None, "--cache-dir": "{dir}",
               "--r": "1", "--M": "1", "--n": "2", "--lambda-order": "3",
               "--precision": "60", "--tolerance": "1e-40"}
# A request of each command that runs as given; `seq --poly` writes a
# cache file when it runs
GOOD = {"order": ("order", "a"), "seq": ("seq", "1", "1", "4", "--poly"),
        "verify": ("verify", "conjecture"), "cache": ("cache", "clear")}


def _flag_tokens(flag):
    value = FLAG_VALUES[flag]
    return (flag,) if value is None else (flag, value)


def test_flag_values_cover_the_table():
    assert set(FLAG_VALUES) == cli._KNOWN_FLAGS
    assert set(GOOD) == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", [
    *(GOOD[command] + _flag_tokens(flag) for command in GOOD
      for flag in FLAG_VALUES
      if flag not in {spec[0] for spec in cli._COMMANDS[command].flags}),
    # any token before the command
    *(_flag_tokens(flag) + GOOD[command] for command in ("order", "seq")
      for flag in FLAG_VALUES),
    ("--", "order", "a"),
    ("order", "a", "--expectation", "2", "--format", "table"),
], ids=" ".join)
def test_every_unread_flag_is_refused(capsys, monkeypatch, tmp_path, argv):
    # refused before any work: nothing printed, and no cache file written,
    # under --cache-dir or the default
    monkeypatch.setenv("NORMORD_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []
