#!/usr/bin/env python3
"""Benchmark of the Arcade reproduction: paper regeneration and the daemon.

Run from the repository root:

    python3 perfbench/run.py --workload paper_seq|serve_hit|serve_sweep \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

It builds perfbench/perfbench.exe and bin/arcade_serve.exe with dune, runs
the workload, checks every answer, prints a metric table and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SERVE_EXE = os.path.join(ROOT, "_build", "default", "bin", "arcade_serve.exe")
SOURCES = ["dune-project", "lib", "bin/arcade_serve.ml", "models/line2_ded.xml"]

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
PAPER_POINTS = 25  # the wtf_experiments default
PAPER_PASS_S = 43.0  # one paper_seq pass on a 2-vCPU VM at 25 points
# Timed request counts: rate x seconds, but never below 102, so p90 has at
# least ten samples beyond it, rounded up to whole rounds (hit) or blocks
# of six (sweep).
SERVE = {
    "serve_hit": {"client": "hit", "rate": 11.0, "block": 2, "max_sessions": 16},
    "serve_sweep": {"client": "sweep", "rate": 10.0, "block": 6, "max_sessions": 4},
}
MIN_REQUESTS = 102
TIMED_TRACE_PREFIX = "7e57be7c"  # perfbench.ml tags timed requests with it
REPLAY = 24
TIMEOUT_S = 170

ARTIFACTS = ["table1", "table2"] + ["fig%d" % i for i in range(3, 12)]

END_TO_END = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = (
    [("experiments.%s_s" % a, "s") for a in ARTIFACTS]
    + [
        ("semantics.build_s", "s"),
        ("semantics.builds", "count"),
        ("semantics.states", "count"),
        ("semantics.states_per_s", "1/s"),
        ("steady.solve_s", "s"),
        ("solver.iterations", "count"),
        ("mixture.sweep_s", "s"),
        ("mixture.passes", "count"),
        ("mixture.steps", "count"),
        ("mixture.columns", "count"),
        ("sparse.bytes_computed", "bytes"),
        ("analysis.weight_hit_ratio", "ratio"),
        ("csl.parse_ms", "ms"),
        ("csl.check_s", "s"),
        ("xml.parse_ms", "ms"),
        ("lint.ms", "ms"),
        ("json.decode_ms", "ms"),
        ("json.encode_ms", "ms"),
        ("server.handle_ms", "ms"),
        ("server.queue_wait_ms", "ms"),
        ("session.hit_ratio", "ratio"),
        ("session.hits", "count"),
        ("session.misses", "count"),
        ("session.evictions", "count"),
        ("server.coalesced_share", "ratio"),
        ("gc.major_collections", "count"),
        ("gc.top_heap_mb", "MB"),
        ("trace.batch_s", "s"),
    ]
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- helpers


def build():
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a checkout of the repository (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/arcade_serve.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=880,
    )
    if proc.returncode != 0:
        raise BenchError("dune build failed")


def env():
    e = dict(os.environ)
    e["PAR_DOMAINS"] = "1"
    for k in ("OBS_TRACE", "OBS_METRICS", "OBS_FLIGHT", "OBS_ACCESS_LOG", "LUMP", "OCAMLRUNPARAM"):
        e.pop(k, None)
    return e


def json_lines(text):
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            out.append(json.loads(line))
    return out


def run_child(cmd):
    """Run one perfbench.exe command; returns its JSON lines."""
    proc = subprocess.run(cmd, env=env(), cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (" ".join(cmd[1:3]), proc.returncode, proc.stderr[-2000:]))
    return json_lines(proc.stdout)


def percentile(values, p):
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM for pid %d" % pid)


def load_trace(path, prefix=None):
    """Complete spans of a Chrome trace; the daemon's incremental flush
    leaves the array open, so it is closed here."""
    with open(path) as f:
        text = f.read().strip().rstrip(",")
    if not text.endswith("]"):
        text += "]"
    events = [e for e in json.loads(text) if e.get("ph") == "X"]
    if prefix is not None:
        events = [e for e in events if e.get("args", {}).get("trace_id", "").startswith(prefix)]
    return events


def span_s(events, name):
    return sum(e["dur"] for e in events if e["name"] == name) / 1e6


def bytes_computed(events, chains):
    """Bytes a mixture sweep streams per step, by bench/main.ml's formula
    12*nnz + 4*(n+1) + 16*K*n, summed over the sweeps in the trace.
    Computed, not measured. nnz is that of the full chain with n states,
    an upper bound for sweeps on absorbed chains."""
    nnz_of = dict(chains)
    total = 0
    for e in events:
        if e["name"] != "analysis.mixture":
            continue
        a = e["args"]
        n, k = a["states"], a["batch_width"]
        if n not in nnz_of:
            raise BenchError("no chain size for a %d-state sweep" % n)
        total += a["spmvs"] * (12 * nnz_of[n] + 4 * (n + 1) + 16 * k * n)
    return total


def ratio(num, den):
    return num / den if den else 0.0


def engine_layers(events, chains):
    """Per-layer numbers read from the program's own spans."""
    builds = [e for e in events if e["name"] == "measures.build"]
    build_s = span_s(events, "measures.build")
    states = sum(e["args"]["states"] for e in builds)
    return {
        "semantics.build_s": build_s,
        "semantics.builds": len(builds),
        "semantics.states": states,
        "semantics.states_per_s": ratio(states, build_s),
        "steady.solve_s": span_s(events, "steady_state.stationary"),
        "mixture.sweep_s": span_s(events, "mixture.sweep"),
        "sparse.bytes_computed": bytes_computed(events, chains),
        "csl.check_s": span_s(events, "csl.check"),
    }


# ---------------------------------------------------------------- paper_seq


def run_paper(seconds, trace, artifacts=None, points=PAPER_POINTS, perturb=False):
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.monotonic_ns()
        ready = run_child([BENCH_EXE, "paper", "--setup-only"])[0]
        setups.append((int(ready["ready_ns"]) - t0) / 1e9)
    passes = max(1, round(seconds / PAPER_PASS_S))
    cmd = [BENCH_EXE, "paper", "--points", str(points), "--passes", str(passes)]
    if artifacts:
        cmd += ["--artifacts", ",".join(artifacts)]
    if perturb:
        cmd.append("--perturb")
    trace_path = os.path.join(OUT, "paper-trace.json")
    if trace:
        cmd += ["--trace", trace_path]
    t0 = time.monotonic_ns()
    lines = run_child(cmd)
    setups.append((int(lines[0]["ready_ns"]) - t0) / 1e9)
    r = lines[-1]
    pass_ms = [v * 1e3 for v in r["pass_s"]]
    result = {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "failures": r["failures"],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "batch_s": statistics.median(r["pass_s"]),
            # the one operation a user of this workload waits for is the
            # whole regeneration, so latency is taken over passes
            "latency_p50_ms": percentile(pass_ms, 50),
            "latency_p90_ms": percentile(pass_ms, 90),
            "peak_rss_mb": r["peak_rss_mb"],
        },
    }
    if trace:
        c = r["counters"]
        layers = {"experiments.%s_s" % k: v for k, v in r["artifact_s"].items()}
        layers.update(engine_layers(load_trace(trace_path), r["chains"]))
        layers.update({
            "solver.iterations": sum(v for k, v in c.items() if k.startswith("solver.") and k.endswith(".iterations")),
            "mixture.passes": c.get("analysis.mixture_passes", 0),
            "mixture.steps": c.get("analysis.mixture_steps", 0),
            "mixture.columns": c.get("analysis.batch_columns", 0),
            "analysis.weight_hit_ratio": ratio(c.get("analysis.weight_hits", 0),
                                               c.get("analysis.weight_hits", 0) + c.get("analysis.weight_computes", 0)),
            "gc.major_collections": r["gc"]["major_collections"],
            "gc.top_heap_mb": r["gc"]["top_heap_mb"],
            "trace.batch_s": statistics.median(r["pass_s"]),
        })
        result["per_layer"] = layers
    return result


# ---------------------------------------------------------------- serve_*


class Daemon:
    """arcade_serve on an ephemeral port, one analysis domain."""

    def __init__(self, max_sessions, trace_path=None):
        e = env()
        if trace_path:
            e["OBS_TRACE"] = trace_path
            e["OCAMLRUNPARAM"] = "v=0x400"  # GC totals on stderr at exit
        self.stderr_path = os.path.join(OUT, "daemon.stderr")
        self.stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [SERVE_EXE, "--port", "0", "--domains", "1", "--max-sessions", str(max_sessions)],
            env=e, cwd=ROOT, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError("arcade_serve did not start: %r" % line)
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def stop(self):
        if self.proc.poll() is None:
            try:
                req = urllib.request.Request("http://127.0.0.1:%d/shutdown" % self.port, method="POST")
                urllib.request.urlopen(req, timeout=10).read()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()

    def gc_stats(self):
        stats = {}
        with open(self.stderr_path) as f:
            for line in f:
                key, _, value = line.partition(":")
                if key in ("major_collections", "top_heap_words"):
                    stats[key] = int(value)
        return stats


def run_serve(workload, seed, seconds, trace, requests=None, perturb=False):
    cfg = SERVE[workload]
    if requests is None:
        requests = max(MIN_REQUESTS, round(cfg["rate"] * seconds))
        requests = -(-requests // cfg["block"]) * cfg["block"]
    client = [BENCH_EXE, "client", "--workload", cfg["client"], "--seed", str(seed),
              "--requests", str(requests)]
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.monotonic_ns()
        d = Daemon(cfg["max_sessions"])
        try:
            done = run_child(client + ["--port", str(d.port), "--setup-only"])[0]
        finally:
            d.stop()
        setups.append((int(done["setup_done_ns"]) - t0) / 1e9)
    trace_path = os.path.join(OUT, "daemon-trace.json") if trace else None
    extra = (["--replay", str(REPLAY)] if trace else []) + (["--perturb"] if perturb else [])
    t0 = time.monotonic_ns()
    d = Daemon(cfg["max_sessions"], trace_path)
    try:
        lines = run_child(client + ["--port", str(d.port)] + extra)
        rss = vm_hwm_mb(d.proc.pid)
    finally:
        d.stop()
    setups.append((int(lines[0]["setup_done_ns"]) - t0) / 1e9)
    r = lines[-1]
    lat = r["latencies_ms"]
    result = {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "failures": r["failures"],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "batch_s": r["batch_s"],
            "latency_p50_ms": percentile(lat, 50),
            "latency_p90_ms": percentile(lat, 90),
            "peak_rss_mb": rss,
        },
    }
    if trace:
        s = r["stats"]
        gc = d.gc_stats()
        layers = engine_layers(load_trace(trace_path, TIMED_TRACE_PREFIX), r["chains"])
        layers.update(r["replay"])
        layers.update({
            "solver.iterations": r["solver_iterations"],
            "csl.check_s": r["query_s"],
            "mixture.passes": s["mixture_passes"],
            "mixture.steps": s["mixture_steps"],
            "mixture.columns": s["batch_columns"],
            "analysis.weight_hit_ratio": ratio(s["weight_hits"], s["weight_hits"] + s["weight_computes"]),
            "server.handle_ms": r["handle_ms"],
            "server.queue_wait_ms": statistics.fmean(lat) - r["handle_ms"],
            "session.hit_ratio": ratio(s["session_hits"], s["session_hits"] + s["session_misses"]),
            "session.hits": s["session_hits"],
            "session.misses": s["session_misses"],
            "session.evictions": s["session_evictions"],
            "server.coalesced_share": ratio(s["coalesced"], s["requests"]),
            "gc.major_collections": gc.get("major_collections", 0),
            "gc.top_heap_mb": gc.get("top_heap_words", 0) * 8 / 2**20,
            "trace.batch_s": r["batch_s"],
        })
        result["per_layer"] = layers
    return result


# ---------------------------------------------------------------- command line


WORKLOADS = ["paper_seq"] + list(SERVE)


def run(workload, seed, seconds, trace, **kw):
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    if workload == "paper_seq":
        return run_paper(seconds, trace, **kw)
    return run_serve(workload, seed, seconds, trace, **kw)


def report(workload, result, trace):
    names = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    print("%s (%s): %d attempted, %d failed" % (
        workload, "per layer" if trace else "end to end", result["attempted"], result["failed"]))
    for f in result["failures"]:
        print("  failed: %s" % f)
    for name, unit in names:
        print("  %-28s %16.6g %s" % (name, values.get(name, 0), unit))
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in names}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------- smoke


def smoke():
    """Each workload at a tiny size, both modes, plus one run whose
    answers are deliberately shifted: the checks must reject it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, "workload names"
    tiny = {
        "paper_seq": ({"artifacts": ["table1", "fig3", "fig11"], "points": 3}, 3,
                      {"artifacts": ["fig3", "fig11"], "points": 3}, 1),
        "serve_hit": ({"requests": 8}, 8, {"requests": 4}, 4),
        "serve_sweep": ({"requests": 6}, 6, {"requests": 6}, 6),
    }
    for workload, (kw, attempted, bad_kw, bad_failed) in tiny.items():
        for trace in (0, 1):
            out = report(workload, run(workload, 7, 1, trace, **kw), trace)
            got = [(k, v["unit"]) for k, v in out["metrics"].items()]
            assert got == declared[trace], "%s: metric names/units differ from BENCHMARK.json" % workload
            assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
            assert out["correct"] and out["failed"] == 0, "%s: checks failed" % workload
            assert out["attempted"] == attempted, "%s: attempted %d" % (workload, out["attempted"])
        out = report(workload, run(workload, 7, 1, 0, perturb=True, **bad_kw), 0)
        assert not out["correct"] and out["failed"] == bad_failed, \
            "%s: shifted answers gave %d failures, expected %d" % (workload, out["failed"], bad_failed)
        log("smoke: %s ok" % workload)
    for workload in ("serve_hit", "serve_sweep"):
        a = run(workload, 7, 1, 1, **tiny[workload][0])["per_layer"]
        b = run(workload, 7, 1, 1, **tiny[workload][0])["per_layer"]
        for k in ("mixture.passes", "mixture.steps", "semantics.states", "solver.iterations",
                  "session.hits", "session.misses", "session.evictions", "server.coalesced_share"):
            assert a[k] == b[k], "%s: %s differs between runs (%s, %s)" % (workload, k, a[k], b[k])
        log("smoke: %s counts repeat" % workload)
    print("smoke: all checks passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")
    try:
        build()
        if a.smoke:
            smoke()
            return 0
        out = report(a.workload, run(a.workload, a.seed, a.seconds, a.trace), a.trace)
    except (BenchError, AssertionError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
