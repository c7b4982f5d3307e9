"""End-to-end CLI contract: output formats, exit codes, cache behavior."""

import json
import os
import subprocess
import sys
import threading

import pytest

from normord import cache
from normord.cli import main
from normord.parser import parse_expr
from normord.serialize import normal_form_from_json
from normord.stirling import gen_stirling
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


def test_order_rejects_bad_power_and_bfile(capsys):
    assert run(capsys, "order", "a", "--power", "0")[0] == 2
    assert run(capsys, "order", "a", "--format", "bfile")[0] == 2


# --- seq -----------------------------------------------------------------

def test_seq_bfile_known_values(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "1", "1", "6",
                       "--format", "bfile", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "0 1\n1 2\n2 7\n3 34\n4 209\n5 1546\n6 13327\n"


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


def test_verify_unknown_identity_exits_2(capsys):
    assert run(capsys, "verify", "nonsense")[0] == 2


def test_verify_rejects_bfile(capsys):
    assert run(capsys, "verify", "sheffer", "--format", "bfile")[0] == 2


# --- cache ---------------------------------------------------------------

def test_cache_cold_then_warm_identical(capsys, tmp_path):
    code1, out1, err1 = run(capsys, "seq", "2", "2", "6",
                            "--cache-dir", str(tmp_path))
    code2, out2, err2 = run(capsys, "seq", "2", "2", "6",
                            "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2 == ""
    files = list(tmp_path.glob("triangle-v1-*.txt"))
    assert len(files) == 1


@pytest.mark.parametrize("mangle", [
    lambda b: b"X" + b[1:],          # broken magic line
    lambda b: b[: len(b) // 2],      # truncated mid-file
    lambda b: b + b"17 17 17\n",     # extra trailing row
])
def test_cache_corruption_recovers(capsys, tmp_path, mangle):
    _, clean_out, _ = run(capsys, "seq", "1", "1", "6",
                          "--cache-dir", str(tmp_path))
    (cache_file,) = tmp_path.glob("triangle-v1-*.txt")
    good = cache_file.read_bytes()

    cache_file.write_bytes(mangle(good))
    code, out, err = run(capsys, "seq", "1", "1", "6",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean_out
    assert "cache" in err.lower()
    assert cache_file.read_bytes() == good


def test_cache_clear_counts(capsys, tmp_path):
    run(capsys, "seq", "1", "1", "3", "--cache-dir", str(tmp_path))
    run(capsys, "seq", "2", "1", "3", "--cache-dir", str(tmp_path))
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
    code, _, _ = run(capsys, "seq", "3", "1", "2")
    assert code == 0
    assert list(tmp_path.glob("triangle-v1-r3-M1-n2.txt"))


# --- config validation ---------------------------------------------------

def test_config_errors_exit_2(capsys, tmp_path):
    base = ("seq", "1", "1", "2", "--cache-dir", str(tmp_path))
    assert run(capsys, "--precision", "20", *base)[0] == 2
    assert run(capsys, "--tolerance", "1e-100", *base)[0] == 2
    assert run(capsys, "--tolerance", "zero", *base)[0] == 2
    assert run(capsys, "--order", "0", *base)[0] == 2


def test_loose_tolerance_with_high_precision_ok(capsys, tmp_path):
    code, _, _ = run(capsys, "--precision", "120", "--tolerance", "1e-100",
                     "seq", "1", "1", "2", "--cache-dir", str(tmp_path))
    assert code == 0
