"""Self-tests of the benchmark: request lists, span arithmetic, output
checks and compare verdicts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from normord.cli import main as cli_main  # noqa: E402


def test_request_lists_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.make_requests(name, 7)
        assert first == workloads.make_requests(name, 7)
        assert workloads.digest(first) == workloads.digest(
            workloads.make_requests(name, 7))
        assert workloads.digest(first) != workloads.digest(
            workloads.make_requests(name, 8))


def test_triangle_requests_each_key_as_miss_then_hit():
    reqs = workloads.make_requests("triangle", 3)
    keys = [(q["r"], q["M"], q["n"]) for q in reqs[::2]]
    assert len(set(keys)) == len(keys)
    assert all(95 <= M * n <= 250 for _, M, n in keys)
    for miss, hit in zip(reqs[::2], reqs[1::2]):
        assert (miss["role"], hit["role"]) == ("miss", "hit")
        assert miss["argv"] == hit["argv"]


def test_order_words_stay_near_balanced():
    for req in workloads.make_requests("order", 5):
        if req["kind"] == "order-word":
            depth = 0
            for letter in req["word"]:
                depth += 1 if letter else -1
                assert abs(depth) <= 4


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        ("cli.main", 0.0, 10.0, -1, "r", None),
        ("suite.run_suite", 1.0, 4.0, 0, "r", None),
        ("closedform.hyp_sum_adaptive", 5.0, 9.0, 0, "r", None),
        ("hyperreal.gamma_fraction", 6.0, 8.0, 2, "r", None),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    # overlapping children cover their union, not the sum of their lengths
    overlap = [("a.f", 0.0, 10.0, -1, "r", None), ("b.g", 1.0, 5.0, 0, "r", None),
               ("b.h", 3.0, 7.0, 0, "r", None)]
    assert spans.self_times(overlap)[0] == 4.0


def test_add_spans_sums_layers_names_and_counts():
    metrics = spans.empty_metrics()
    spans.add_spans(metrics, [
        ("cli.main", 0.0, 4.0, -1, "r", None),
        ("backend.nf_mul", 1.0, 2.0, 0, "r", {"backend.nf_mul.terms_out": 5}),
        ("backend.nf_mul", 2.0, 3.5, 0, "r", {"backend.nf_mul.terms_out": 7}),
    ])
    assert metrics["backend.nf_mul.calls"] == 2
    assert metrics["backend.nf_mul.terms_out"] == 12
    assert metrics["backend.self_s"] == metrics["backend.nf_mul.self_s"] == 2.5
    assert metrics["cli.main.self_s"] == metrics["cli.self_s"] == 1.5


def _seeds(values):
    return dict(enumerate(values, start=1))


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_compare_verdicts():
    a = _seeds(BASE)
    assert compare.verdict(a, _seeds(v * 0.8 for v in BASE), 0.1, True) == "better"
    assert compare.verdict(a, _seeds(v * 1.3 for v in BASE), 0.1, True) == "worse"
    assert compare.verdict(a, _seeds(v * 1.3 for v in BASE), 0.1, False) == "better"
    assert compare.verdict(a, _seeds(reversed(BASE)), 0.1, True) == "unchanged"
    wide = _seeds([0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0])
    assert compare.verdict(wide, a, 0.1, True) == "unresolved"
    # a wide spread still gives "better" when every run beats every run
    assert compare.verdict(wide, _seeds([0.4] * 10), 0.1, True) == "better"
    # a 3% gain inside the parent's own quartile spread is not a gain
    assert compare.verdict(a, _seeds(v * 0.97 for v in reversed(BASE)), 0.1,
                           True) == "unchanged"
    assert compare.verdict({1: 1.0}, {1: 0.5}, 0.1, True) == "unresolved"


def _record(seed, digest="d", backend="python", seconds=30.0):
    return {"workload": "order", "seed": seed, "trace": 0, "seconds": seconds,
            "meta": {"request_digest": digest, "backend": backend},
            "metrics": {"wall_s": {"value": 1.0 + seed / 100, "unit": "s"}}}


def test_compare_refuses_other_inputs_or_backends():
    a = [_record(s) for s in (1, 2, 3)]
    assert compare.refusal(a, [_record(s) for s in (1, 2, 3)]) is None
    assert "request lists" in compare.refusal(a, [_record(1), _record(2),
                                                  _record(3, digest="e")])
    assert "backends" in compare.refusal(a, [_record(s, backend="cython")
                                             for s in (1, 2, 3)])
    assert "run lengths" in compare.refusal(a, [_record(s, seconds=10.0)
                                                for s in (1, 2, 3)])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.LAYER_MAP) <= set(run.per_layer_units())


def _cli(*argv) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue().encode()


def test_checks_accept_real_output_and_flag_a_changed_one(tmp_path):
    oracle = checks.Oracle()
    word = [0, 1, 1, 0, 0, 1, 1, 0, 1, 0]
    expr = " ".join("ad" if s else "a" for s in word)
    cases = [
        ({"kind": "order-word", "word": word, "fmt": "json"}, ("order", expr)),
        ({"kind": "order-word", "word": word, "fmt": "table"},
         ("order", expr, "--format", "table")),
        ({"kind": "order-word", "word": word, "fmt": "expectation", "z": "1/2,-1/3"},
         ("order", expr, "--expectation", "1/2,-1/3")),
        ({"kind": "order-power", "r": 2, "M": 1, "p": 4, "fmt": "json"},
         ("order", "a^2 (ad a)^1", "--power", "4")),
        ({"kind": "verify-graphs", "r": 1, "M": 2, "n": 4},
         ("verify", "graphs", "--r", "1", "--M", "2", "--n", "4")),
    ]
    for fmt, extra in (("poly-json", ["--poly"]),
                       ("poly-table", ["--poly", "--format", "table"]),
                       ("number-bfile", ["--format", "bfile"]),
                       ("number-table", ["--format", "table"])):
        cases.append(({"kind": "seq", "r": 1, "M": 2, "n": 9, "fmt": fmt},
                      ("seq", "1", "2", "9", *extra, "--cache-dir", str(tmp_path))))
    for req, argv in cases:
        out = _cli(*argv)
        assert checks.check(req, 0, out, oracle) is None, argv
        assert checks.check(req, 1, out, oracle) == "exit code 1"
        if req["kind"].startswith("verify"):
            changed = out.replace(b'"pass"', b'"fail"')
        else:  # the last digit printed belongs to the last term or row
            i = max(out.rfind(d) for d in b"0123456789")
            changed = out[:i] + str((out[i] - 47) % 10).encode() + out[i + 1:]
        assert checks.check(req, 0, changed, oracle) is not None, argv


def test_launcher_reports_the_requests_own_rss_and_kills_on_timeout(tmp_path):
    # a child's ru_maxrss counts its parent's peak RSS; requests started
    # through the launcher must not report this process's memory
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    client = run.Client(tmp_path, run.perf_counter())  # 1 s timeout
    try:
        latency, rss, code = client.run([sys.executable, "-c", "pass"],
                                        tmp_path / "o", tmp_path / "e")
        slow = client.run([sys.executable, "-c", "import time; time.sleep(30)"],
                          tmp_path / "o", tmp_path / "e")
    finally:
        client.close()
    assert code == 0 and 0 < latency
    assert rss < 40 < len(ballast) / 2**20, rss
    assert slow[2] == -9 and slow[0] < 10


def test_end_to_end_scales_times_by_the_probe():
    r = object.__new__(run.Run)
    ref = run.PROBE_REF_S
    r.passes = [
        {"traced": False, "complete": True, "probes": [ref, ref, ref],
         "setup": [0.1], "latencies": [1.0, 3.0]},
        # a machine at half speed: twice the time, twice the probe time
        {"traced": False, "complete": True, "probes": [2 * ref, 2 * ref],
         "setup": [0.2], "latencies": [2.0, 6.0]},
    ]
    r.samples = [{"traced": False, "rss_mb": 20.0}]
    m = r.end_to_end()
    assert abs(m["wall_s"] - 4.0) < 1e-9
    assert abs(m["req_p50_s"] - 2.0) < 1e-9
    assert abs(m["setup_s"] - 0.1) < 1e-9
    assert abs(r.end_to_end(reference=False)["wall_s"] - 6.0) < 1e-9
