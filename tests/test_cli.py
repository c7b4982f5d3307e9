"""End-to-end CLI contract: output formats, exit codes, cache behavior."""

import json
import math
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normord import backend, cache
from normord.cli import main
from normord.closedform import EXAMPLE_IDS
from normord.parser import LimitError, check_triangle, parse_expr
from normord.serialize import normal_form_from_json
from normord.stirling import gen_stirling, stirling_rows
from normord.suite import SUITE_IDS
from normord.weyl import normal_order_rewrite


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
                                  ("(a + ad)" * 40,)])
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


def test_order_power_routes_agree_with_the_fold(capsys):
    # a negative shift goes through the dagger; mixed shifts keep the fold
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
                                  ("1", "0", "409200"), ("2", "2", "10000000000")])
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


def test_global_flags_before_or_after_subcommand(capsys, tmp_path):
    _, out_a, _ = run(capsys, "--format", "table", "seq", "2", "3", "3",
                      "--cache-dir", str(tmp_path))
    _, out_b, _ = run(capsys, "seq", "2", "3", "3", "--format", "table",
                      "--cache-dir", str(tmp_path))
    assert out_a == out_b
    assert out_a.splitlines()[0] == "# r=2 M=3"


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
    assert all(r["status"] in ("pass", "informational") for r in reports)


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
    code, out, _ = run(capsys, "verify", "conjecture", "--r", "2",
                       "--precision", "60", "--tolerance", "1e-20")
    assert code == 0
    reports = json.loads(out)
    assert reports
    for rep in reports:
        assert rep["mode"] == "informational"
        assert rep["precision"] == 60
        assert "tolerance" not in rep


def test_probe_grid_follows_m_and_n_without_r(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--M", "2", "--n", "5")
    assert code == 0
    got = [(rep["parameters"]["r"], rep["parameters"]["M"], rep["parameters"]["n"])
           for rep in json.loads(out)]
    assert got == [(1, 2, 5), (2, 2, 5), (3, 2, 5), (4, 2, 5)]


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
    assert err == "error: insufficient truncation order: need x-order >= 17\n"
    assert run(capsys, "verify", "exp-kummer", "--lambda-order", "16")[0] == 0


@pytest.mark.parametrize("identity", ["examples", "laguerre-shifted"])
def test_verify_n_below_one_for_the_shifted_example_exits_2(capsys, identity):
    code, out, err = run(capsys, "verify", identity, "--n", "0")
    assert code == 2
    assert out == ""
    assert err == (f"error: {identity} needs --n >= 1 "
                   "(laguerre-shifted takes it as its p)\n")


@pytest.mark.parametrize("argv,message", [
    (("eigenfunction", "--n", "50"),
     "eigenfunction does not read --n; it reads --r --M"),
    (("bell-hyp-r2", "--r", "3"),
     "bell-hyp-r2 does not read --r; it reads --M --n"),
    (("commutator", "--r", "1", "--n", "2"),
     "commutator does not read --n; it reads --r --M"),
    (("laguerre-ogf", "--M", "1"),
     "laguerre-ogf does not read --M; it reads --lambda-order"),
    (("all", "--r", "2"), "all does not read --r; it reads none of --r, --M, --n"),
])
def test_verify_rejects_an_override_the_id_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_accepts_every_override_the_id_reads(capsys):
    # the benchmark's verify requests, and an example id through `examples`
    assert run(capsys, "verify", "stirling-expansion", "--n", "2")[0] == 0
    assert run(capsys, "verify", "eigen-operator", "--M", "1")[0] == 0
    code, out, _ = run(capsys, "verify", "examples", "--n", "2", "--M", "1",
                       "--format", "table")
    assert code == 0
    assert "laguerre-shifted r=1 M=1 p=2 " in out


# --- startup -------------------------------------------------------------

# The layers the benchmark's tracer wraps (perfbench/spans.py LAYERS); it
# reads each from sys.modules right after `import normord.cli`.
LAYERS = ("backend", "parser", "weyl", "stirling", "graphs", "laguerre",
          "closedform", "hyperreal", "suite", "cache", "serialize", "cli")


def test_import_loads_every_layer_and_no_dataclasses():
    probe = ("import json, sys, normord.cli; "
             "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect", "dis", "ast"}
    assert {f"normord.{layer}" for layer in LAYERS} <= loaded


# --- cache ---------------------------------------------------------------

def test_cache_cold_then_warm_identical(capsys, tmp_path):
    code1, out1, err1 = run(capsys, "seq", "2", "2", "6", "--poly",
                            "--cache-dir", str(tmp_path))
    code2, out2, err2 = run(capsys, "seq", "2", "2", "6", "--poly",
                            "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2 == ""
    files = list(tmp_path.glob("triangle-v1-*.txt"))
    assert len(files) == 1


def _row_1(line: str):
    """Replace row 1 of the (1,1) file, "1 1", with line."""
    return lambda b: b.replace(b"\n1 1\n", f"\n{line}\n".encode(), 1)


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
])
def test_cache_corruption_recovers(capsys, tmp_path, mangle):
    _, clean_out, _ = run(capsys, "seq", "1", "1", "6", "--poly",
                          "--cache-dir", str(tmp_path))
    (cache_file,) = tmp_path.glob("triangle-v1-*.txt")
    good = cache_file.read_bytes()

    cache_file.write_bytes(mangle(good))
    assert cache_file.read_bytes() != good
    code, out, err = run(capsys, "seq", "1", "1", "6", "--poly",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean_out
    assert "cache" in err.lower()
    assert cache_file.read_bytes() == good


def _canonical(token: str) -> bool:
    try:
        return str(int(token)) == token
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-10**30, 10**30).map(str), max_size=4).map(" ".join),
    st.text(alphabet="0123456789-+_ \t\u0661\u0966\uff11", max_size=8),
    st.text(max_size=6)))
@example("-0")
@example("0 -0")
@example("01")
@example("+1")
@example("1_0")
@example("\u0661")
@example("1  1")
@example("1 1 ")
@example("-12 0 7")
def test_row_regex_accepts_exactly_canonical_tokens(line):
    # a line passes when every space-separated token is what str(int)
    # writes for it, with an int() error counted as a reject
    assert bool(cache._ROW_LINE.fullmatch(line)) == all(
        map(_canonical, line.split(" ")))


def test_load_triangle_returns_the_file_tokens(tmp_path):
    want = [[str(c) for c in row] for row in stirling_rows(0, 2, 6)]
    rows, hit, warning = cache.load_triangle(0, 2, 6, tmp_path)
    assert (rows, hit, warning) == (want, False, None)
    assert cache.load_triangle(0, 2, 6, tmp_path) == (want, True, None)


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


@pytest.mark.parametrize("kind", [(), ("--poly",)])
def test_seq_refuses_a_wrong_last_constant_term(capsys, tmp_path, monkeypatch, kind):
    # a kernel fault in S(n_max, 0) stops both routes before any output
    # or cache file
    real = backend.stirling_row_update

    def faulty(r, M, n, prev):
        row, carry = real(r, M, n, prev)
        if n == 6:
            row[0] += 1
        return row, carry

    monkeypatch.setattr(backend, "stirling_row_update", faulty)
    with pytest.raises(ArithmeticError, match=r"S\(n=6, k=0\)"):
        main(["seq", "2", "1", "6", *kind, "--cache-dir", str(tmp_path)])
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_cache_clear_counts(capsys, tmp_path):
    run(capsys, "seq", "1", "1", "3", "--poly", "--cache-dir", str(tmp_path))
    run(capsys, "seq", "2", "1", "3", "--poly", "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.strip() == "removed 2 cache file(s)"
    assert not list(tmp_path.glob("triangle-v1-*.txt"))


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
        results[i] = cache.load_triangle(2, 2, 9, tmp_path)

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
    assert cache.parse_triangle(path.read_text(), 2, 2, 9) == rows_a
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NORMORD_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "seq", "3", "1", "2", "--poly")
    assert code == 0
    assert list(tmp_path.glob("triangle-v1-r3-M1-n2.txt"))


# --- config validation ---------------------------------------------------

def test_config_errors_exit_2(capsys, tmp_path):
    base = ("seq", "1", "1", "2", "--cache-dir", str(tmp_path))
    assert run(capsys, "--precision", "20", *base)[0] == 2
    assert run(capsys, "--tolerance", "1e-100", *base)[0] == 2
    assert run(capsys, "--tolerance", "zero", *base)[0] == 2


def test_loose_tolerance_with_high_precision_ok(capsys, tmp_path):
    code, _, _ = run(capsys, "--precision", "120", "--tolerance", "1e-100",
                     "seq", "1", "1", "2", "--cache-dir", str(tmp_path))
    assert code == 0
