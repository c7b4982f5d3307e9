"""normord benchmark: seeded closed-loop CLI workloads, checked outputs, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out results.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Load: one client, closed loop, one request at a time, no threads and no
concurrent requests.  Each request is a cold `python3 -m normord.cli`
subprocess (started by spawner.py), so a run measures what a CLI user
pays.  A workload's seeded
request list is one pass; a run repeats passes until --seconds of passes
have been measured (the last pass is finished).  Every triangle key gets
a fresh, empty cache directory in every pass; all requests see a private
NORMORD_CACHE_DIR, never the caller's cache.  Outputs are checked after
each pass, outside the timed region (see checks.py); a wrong output
counts as failed and its latency sample is kept.

End-to-end metrics (--trace 0), times in reference seconds (see probe):
  setup_s      time to start a cold interpreter and import normord.cli:
               one start is timed before every other untraced request
               (the machine-speed probe before the rest), and the median
               over the run is reported
  wall_s       time to finish the request list: per request, the mean of
               its latencies over the run's passes, summed
  req_p50_s    median over the request list of those per-request means
  peak_rss_mb  largest resident set of any request subprocess
fail_ratio and, on `triangle`, seq_miss_s / seq_hit_s (summed latency of
the miss and of the hit requests in a pass) are printed as well.

Per-layer metrics (--trace 1): passes alternate between untraced and
traced through shim.py, which wraps each normord module's public
functions in spans.  Self times and counts are per-pass totals, median
over the traced passes; seq_*, suite.* and the untraced side of
trace.overhead_s come from the untraced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --out appends the full run
record (metrics, samples, and metadata) as one JSON line; --compare
reads two such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import compare  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, digest, make_requests  # noqa: E402

# Machine-speed probe: a cold interpreter running a fixed integer loop,
# with no normord code, timed next to every other untraced request.  The
# speed of the shared machine this benchmark was sized on (2-core x86 VM,
# Python 3.11) drifts by 20-50% over minutes, and normord's latencies
# drift with it, CPU time as much as wall time.  So end-to-end times are
# reported in reference seconds: each measured time is multiplied by
# PROBE_REF_S over the median probe time of its pass.  In a six-minute
# test on that machine, the means of blocks of ten `verify all` and
# `order` latencies spread by 17-24% (quartile distance over median); as
# ratios to the mean time of such a probe (with a longer loop) next to
# them, by 4-6%, and as ratios to a loop timed inside the client process,
# by 5-9%.  PROBE_REF_S is the probe's typical time there, so a reference
# second is about a second on that machine.  Raw times are printed and
# kept in the run record.
PROBE_CODE = "x = 0\nfor i in range(300_000):\n    x += i * i"
PROBE_REF_S = 0.13
HARD_LIMIT_S = 160.0  # a workload's run, checks included, ends inside 180 s
REQUEST_TIMEOUT_S = 120.0

# Frozen copies of normord.suite.SUITE_IDS and of the report identities
# that roll up into a suite id (closedform.EXAMPLE_IDS and the conjecture
# probe), kept here on purpose: the per-layer metric names must not change
# when the program's lists do.  A report whose identity is not listed still
# counts in suite.reports.
SUITE_IDS = (
    "commutator", "stirling-expansion", "bell-first-kind",
    "bell-diagonal-powers", "laguerre-normal-form", "exp-exponential",
    "exp-kummer", "exp-monomial", "sheffer", "egf", "eigenfunction",
    "examples", "bessel-parity", "stirling-hyp", "bell-hyp-r1",
    "bell-hyp-r2", "bell-hyp-r3", "hyp-generating-function", "graphs",
    "conjecture",
)
_REPORT_TO_SUITE = {
    **{ex: "examples" for ex in (
        "laguerre-ogf", "kummer-b3", "kummer-b3half", "laguerre-shifted",
        "bessel-i0", "bessel-j0", "eigen-operator", "hyp-compact")},
    "conjecture-probe": "conjecture",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in spans.empty_metrics():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.startswith("cache.bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    units.update({f"suite.{sid}.elapsed_s": "s" for sid in SUITE_IDS})
    units.update({"serialize.bytes_out": "bytes",
                  "suite.reports": "count", "suite.fails": "count",
                  "seq_miss_s": "s", "seq_hit_s": "s", "cli.import_s": "s",
                  "trace.overhead_s": "s"})
    return units


class Client:
    """The one closed-loop client: runs requests as cold subprocesses.

    Requests are started by spawner.py, a small interpreter of its own,
    so that their peak RSS is theirs and not this process's."""

    def __init__(self, work: Path, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        env["NORMORD_CACHE_DIR"] = str(work / "cache")
        env["PYTHONHASHSEED"] = "0"
        # bytecode is written next to the sources once and then reused,
        # as it is for an installed package
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONPYCACHEPREFIX", None)
        self.env = env
        self.work = work
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=work, env=env)

    def run(self, cmd: list, out: Path, err: Path) -> tuple:
        """(latency s, peak RSS MB, exit code); killed after the timeout."""
        timeout = max(1.0, min(REQUEST_TIMEOUT_S, self.deadline - perf_counter()))
        self.spawner.stdin.write(json.dumps([cmd, str(out), str(err), timeout]) + "\n")
        self.spawner.stdin.flush()
        answer = self.spawner.stdout.readline()
        if not answer:
            raise RuntimeError("the request launcher ended")
        latency, rss_kib, code = json.loads(answer)
        return latency, rss_kib / 1024.0, code

    def close(self) -> None:
        """Stop the launcher; it kills and reaps a request still running."""
        self.spawner.terminate()
        self.spawner.wait()
        self.spawner.stdin.close()
        self.spawner.stdout.close()


def time_snippet(client: Client, code: str) -> float:
    """Latency of a cold `python -c CODE`."""
    out, err = client.work / "snippet.out", client.work / "snippet.err"
    latency, _, status = client.run([sys.executable, "-c", code], out, err)
    if status != 0:
        raise RuntimeError(f"python -c {code!r} failed: {err.read_text()[-500:]}")
    return latency


def measure_setup(client: Client) -> float:
    """Time one cold interpreter start plus `import normord.cli`."""
    return time_snippet(client, "import normord.cli")


class Run:
    """One workload at one seed: passes, checks, and the metrics."""

    def __init__(self, workload: str, seed: int, client: Client):
        from checks import Oracle, check  # imports normord from SRC

        self.requests = make_requests(workload, seed)
        self.client = client
        self.check = check
        self.oracle = Oracle()
        self.verified: dict = {}  # request index -> digest of a checked output
        self.samples: list = []  # every request of every pass
        self.passes: list = []  # {"traced", "complete", "wall", "latencies", ...}
        self.failures: list = []

    def run_pass(self, traced: bool) -> dict:
        number = len(self.passes)
        pdir = self.client.work / f"pass-{number}"
        pdir.mkdir()
        results, probes, setups = [], [], []
        t0 = perf_counter()
        for i, req in enumerate(self.requests):
            if perf_counter() >= self.client.deadline:
                break
            if not traced and i % 2:  # set-up and machine speed, in turn
                setups.append(measure_setup(self.client))
            elif not traced:
                probes.append(time_snippet(self.client, PROBE_CODE))
            argv = list(req["argv"])
            if req["kind"] == "seq":
                argv += ["--cache-dir", str(pdir / f"cache-{req['slot']}")]
            if traced:
                cmd = [sys.executable, str(HERE / "shim.py"),
                       str(pdir / f"{i}.spans"), f"{number}-{i}", *argv]
            else:
                cmd = [sys.executable, "-m", "normord.cli", *argv]
            results.append(self.client.run(cmd, pdir / f"{i}.out", pdir / f"{i}.err"))
        latencies = [latency for latency, _, _ in results]
        info = {"traced": traced, "elapsed": perf_counter() - t0,
                "wall": sum(latencies), "latencies": latencies,
                "complete": len(results) == len(self.requests),
                "probes": probes, "setup": setups}
        self._check(pdir, results, info)
        shutil.rmtree(pdir)
        self.passes.append(info)
        return info

    def _check(self, pdir: Path, results: list, info: dict) -> None:
        oks = []
        miss_of = {}
        for i, (req, (latency, rss, code)) in enumerate(zip(self.requests, results)):
            out = (pdir / f"{i}.out").read_bytes()
            if req.get("role") == "hit":
                j = miss_of[req["slot"]]
                if code:
                    why = f"exit code {code}"
                elif out != (pdir / f"{j}.out").read_bytes():
                    why = "hit output differs from the miss output"
                else:
                    why = None if oks[j] else "its miss failed"
            else:
                if req.get("role") == "miss":
                    miss_of[req["slot"]] = i
                key = hashlib.sha256(out).hexdigest()
                if code == 0 and self.verified.get(i) == key:
                    why = None
                else:
                    why = self.check(req, code, out, self.oracle)
                if why and code:
                    why += ": " + (pdir / f"{i}.err").read_text()[-300:].strip()
                if why is None:
                    self.verified[i] = key
            oks.append(why is None)
            if why:
                self.failures.append(f"pass {len(self.passes)} request {i} "
                                     f"{' '.join(req['argv'])[:80]}: {why}")
            self.samples.append({"pass": len(self.passes), "request": i,
                                 "kind": req["kind"], "traced": info["traced"],
                                 "latency_s": latency, "rss_mb": rss,
                                 "ok": why is None})
        if info["traced"]:
            info["layers"] = self._layers(pdir, len(results))
        else:
            info.update(self._extras(pdir, results, oks))

    def _layers(self, pdir: Path, count: int) -> dict:
        metrics = spans.empty_metrics()
        metrics["serialize.bytes_out"] = 0  # what the requests print
        imports = []
        for i in range(count):
            metrics["serialize.bytes_out"] += (pdir / f"{i}.out").stat().st_size
            path = pdir / f"{i}.spans"
            if path.exists():
                data = spans.load(path)
                spans.add_spans(metrics, data["spans"])
                imports.append(data["import_s"])
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        return metrics

    def _extras(self, pdir: Path, results: list, oks: list) -> dict:
        """Numbers read from untraced passes: miss/hit sums and suite timings."""
        extras = {"seq_miss_s": 0.0, "seq_hit_s": 0.0, "suite.reports": 0,
                  "suite.fails": 0}
        extras.update({f"suite.{sid}.elapsed_s": 0.0 for sid in SUITE_IDS})
        for i, (req, (latency, _, _), ok) in enumerate(zip(self.requests, results, oks)):
            if req["kind"] == "seq":
                extras[f"seq_{req['role']}_s"] += latency
            elif req["kind"].startswith("verify") and ok:
                for rep in json.loads((pdir / f"{i}.out").read_text()):
                    sid = _REPORT_TO_SUITE.get(rep["identity"], rep["identity"])
                    if sid in SUITE_IDS:
                        extras[f"suite.{sid}.elapsed_s"] += rep["elapsed"]
                    extras["suite.reports"] += 1
                    extras["suite.fails"] += rep["status"] == "fail"
        return extras

    def untraced(self, key: str) -> list:
        return [p[key] for p in self.passes if not p["traced"] and p["complete"]]

    def end_to_end(self, reference: bool = True) -> dict:
        """The end-to-end metrics, in reference seconds or in raw seconds."""
        passes = [p for p in self.passes if not p["traced"] and p["probes"]]
        scale = [PROBE_REF_S / statistics.median(p["probes"]) if reference
                 else 1.0 for p in passes]
        setups = [t * k for p, k in zip(passes, scale) for t in p["setup"]]
        # per request, the mean over the complete passes: the mean of
        # every pass averages short stalls out better than a median of
        # three or four samples
        per_request = [statistics.fmean(lat) for lat in zip(*(
            [t * k for t in p["latencies"]]
            for p, k in zip(passes, scale) if p["complete"]))]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_request),
            "req_p50_s": statistics.median(per_request),
            "peak_rss_mb": max(s["rss_mb"] for s in self.samples
                               if not s["traced"]),
        }

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p["traced"] and p["complete"]]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        for name in self.passes[0]:
            if name.startswith(("seq_", "suite.")):
                metrics[name] = statistics.median(self.untraced(name))
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(self.untraced("wall")))
        return metrics


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True, check=True).stdout

    try:
        return {"git_sha": git("rev-parse", "HEAD").strip(),
                "git_dirty": bool(git("status", "--porcelain",
                                      "--untracked-files=no").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    import normord.backend

    load_before = os.getloadavg()[0]
    # the client, its requests and the probe share one CPU, so the probe
    # sees the speed of the CPU the requests run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    client = Client(work, perf_counter() + HARD_LIMIT_S)
    try:
        measure_setup(client)  # the first start compiles bytecode
        run = Run(workload, seed, client)
        measured = 0.0
        while True:
            traced = trace and len(run.passes) % 2 == 1
            info = run.run_pass(traced)
            measured += info["elapsed"]
            kinds = {p["traced"] for p in run.passes if p["complete"]}
            if measured >= seconds and kinds == ({False, True} if trace else {False}):
                break
            if (not info["complete"]
                    or perf_counter() + 1.2 * info["elapsed"] > client.deadline):
                break
    finally:
        client.close()
    if not run.untraced("wall") or trace and not any(
            p["traced"] and p["complete"] for p in run.passes):
        raise RuntimeError("no complete pass inside the time limit")
    if trace:
        metrics = run.per_layer()
        units = per_layer_units()
    else:
        metrics = run.end_to_end()
        units = END_TO_END
    failed = sum(not s["ok"] for s in run.samples)
    latencies = [s["latency_s"] for s in run.samples if not s["traced"]]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": len(run.samples), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "extras": {k: statistics.median(run.untraced(k))
                   for k in ("seq_miss_s", "seq_hit_s")}
                  if workload == "triangle" and not trace else {},
        "latency_tail": _tail(latencies),
        "layer_map_differs": _layer_map_differences(workload, metrics) if trace else [],
        "passes": [{k: p[k] for k in ("traced", "complete", "wall")}
                   for p in run.passes],
        "raw": {} if trace else run.end_to_end(reference=False),
        "probe_s": [t for p in run.passes for t in p["probes"]],
        "samples": run.samples,
        "failures": run.failures,
        "meta": {
            **_git_state(),
            "python": platform.python_version(),
            "backend": normord.backend.BACKEND,
            "cpu_count": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg()[0],
            "request_digest": digest(run.requests),
            "requests": len(run.requests),
        },
    }


def _tail(latencies: list) -> dict:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n <= 10:
        return {"samples": n}
    pct = int(100 * (1 - 10 / n))
    value = statistics.quantiles(latencies, n=100)[pct - 1] if pct else min(latencies)
    return {"samples": n, "percentile": pct, "value": value}


def _layer_map_differences(workload: str, metrics: dict) -> list:
    from workloads import LAYER_MAP

    return [name for name, active in LAYER_MAP.items()
            if (metrics[name] > 0) != (workload in active)]


def report(rec: dict) -> None:
    meta = rec["meta"]
    complete = [p for p in rec["passes"] if p["complete"]]
    print(f"{rec['workload']}: seed {rec['seed']}, trace {rec['trace']}, "
          f"backend {meta['backend']}, {len(complete)} passes of "
          f"{meta['requests']} requests, load {meta['loadavg_before']:.2f}"
          f" -> {meta['loadavg_after']:.2f}")
    print(f"  attempted {rec['attempted']}  failed {rec['failed']}  "
          f"fail_ratio {rec['failed'] / rec['attempted']:.4f}")
    tail = rec["latency_tail"]
    if "percentile" in tail:
        print(f"  untraced request latency p{tail['percentile']} "
              f"{tail['value']:.6g} s over {tail['samples']} samples")
    for name, m in rec["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in rec["extras"].items():
        print(f"  {name:<40} {value:>14.6g} s")
    for name, value in rec["raw"].items():
        if name.endswith("_s"):
            print(f"  raw {name:<36} {value:>14.6g} s")
    if rec["probe_s"]:
        print(f"  probe median {statistics.median(rec['probe_s']):.6g} s "
              f"(reference {PROBE_REF_S} s)")
    for line in rec["failures"][:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    if rec["trace"]:
        odd = rec["layer_map_differs"]
        print(f"  layer map: {'differs on ' + ', '.join(odd) if odd else 'as designed'}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="pass time to measure per run (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run record to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two result files instead of running")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if args.compare:
        return compare.main(*args.compare, json.loads(spec_path.read_text()))
    if not (SRC / "normord" / "cli.py").is_file():
        print(f"error: no normord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # end through the finally blocks, which stop every process started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    records = []
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            rec = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               work)
            report(rec)
            records.append(rec)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}." if prefix else "") + name: m
                    for r in records for name, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
