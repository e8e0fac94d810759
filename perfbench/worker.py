"""Answers one workload's query list in a process of its own and times it.

run.py starts this script; it prints one JSON result on stdout.  The
library workloads run in this process as a closed loop with one caller, so
its own peak RSS is theirs.  graphing-cli starts one fresh
`python -m orbitcost` per query, one at a time, and reports the peak RSS of
those children.  Its untraced run does not import orbitcost here, so this
process stays smaller than any child.

    python3 perfbench/worker.py --plan PLAN.json --seconds S --trace 0|1
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import reference as ref
from tracing import Tracer

MIN_SAMPLES = 100  # so that at least ten query latencies lie above the 90th percentile
CLI_TIMEOUT_S = 60


class Library:
    """Runs library queries through the package namespace, looked up per call."""

    def __init__(self, oc):
        self.oc = oc

    def answer(self, q):
        return getattr(self, q["kind"])(q)

    def eps(self, q):
        oc, n, full = self.oc, q["n"], q["full"]
        system = oc.RotationSystem(n, q["steps"])
        eps = Fraction(q["eps"])
        arc = oc.Arc(0, -(-eps.numerator * n // eps.denominator))
        g = oc.epsilon_graphing(system, full, arc)
        out = [ref.fmt_rational(oc.cost(g)), oc.generates(g, oc.expected_relation(system))]
        for restricted, x in q["paths"]:
            try:
                p = oc.connection_path(system, full, restricted, arc, x)
            except oc.UnreachableArcError:
                out.append(None)
                continue
            out.append([p.start, p.end, p.hit, p.length,
                        [[s.step, s.power, s.count] for s in p.segments]])
        return out

    def rank(self, q):
        spec = self.oc.GroupSpec(tuple(q["spec"]))
        return self.oc.subgroup_rank(self.oc.sample_free_action(spec, q["index"], q["seed"]))

    def compress(self, q):
        spec = self.oc.GroupSpec(tuple(q["spec"]))
        return [ref.fmt_rational(side)
                for side in self.oc.compression_check(spec, q["index"], q["seed"])]

    def coincidence(self, q):
        rows = self.oc.coincidence_report([tuple(s) for s in q["specs"]], q["max_index"], q["seed"])
        f = ref.fmt_rational
        return [[list(r.factor_orders), r.rank, f(r.predicted_cost), f(r.beta1), r.index,
                 f(r.measured_cost), [f(c) for c in r.factor_costs],
                 [f(c) for c in r.modeled_factor_costs], r.match] for r in rows]


def expected(q, a):
    """The reference answer in the form Library.answer returns."""
    if q["kind"] == "eps":
        n, steps, full = q["n"], q["steps"], q["full"]
        out = [a["cost"], a["generates"]]
        for (restricted, x), m in zip(q["paths"], a["hits"]):
            if m is None:
                out.append(None)
                continue
            segments = [[restricted, 1, 1]]
            if m:
                segments = [[full, 1, m], *segments, [full, -1, m]]
            out.append([x, (x + steps[restricted]) % n, (x + m * steps[full]) % n, 2 * m + 1,
                        segments])
        return out
    if q["kind"] == "compress":
        return [a["lhs"], a["rhs"]]
    return a["rank"] if q["kind"] == "rank" else a["rows"]


def own_peak_rss_kib() -> int:
    """This process's own peak RSS (VmHWM).

    Not ru_maxrss: a spawned process starts with its parent's peak there, so
    it would also count the set-up that run.py did before starting this one.
    """
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def judge_cli(a, code: int, out: bytes, err: bytes) -> str:
    """ok, wrong (a claimed success that is not the reference) or crash (anything else)."""
    if code == 0:
        if a["exit"] != 0 or ref.digest(out.decode()) != a["stdout_sha256"]:
            return "wrong"
        return "ok" if not err else "crash"
    lines = err.decode(errors="replace").splitlines()
    if code == a["exit"] == 1 and not out and len(lines) == 1 and lines[0].startswith("error: "):
        return "ok"
    return "crash"


class Runner:
    def __init__(self, plan):
        self.root = plan["root"]
        self.queries = plan["queries"]
        self.cli = plan["workload"] == "graphing-cli"
        src = os.path.join(self.root, "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        found = importlib.util.find_spec("orbitcost")  # locates the package without running it
        if found is None or not os.path.abspath(found.origin).startswith(src + os.sep):
            raise SystemExit(f"orbitcost not found under {src}")
        self.oc = None if self.cli else importlib.import_module("orbitcost")
        self.library = None if self.cli else Library(self.oc)
        self.tracer = None
        self.tracing = False
        self.outcomes = {"ok": 0, "wrong": 0, "crash": 0}
        self.unexpected = 0  # failures other than a crash on a known traceback trigger
        self.failures: dict[str, int] = {}  # first lines of failed queries, with counts
        self.fresh_stdout: dict[int, str] = {}  # query -> stdout digest of the fresh process

    def record(self, i: int, outcome: str, detail: str):
        self.outcomes[outcome] += 1
        if outcome != "ok":
            key = f"query {i} {outcome}: {detail}"
            self.failures[key] = self.failures.get(key, 0) + 1
            if outcome == "wrong" or not self.queries[i][0].get("trigger"):
                self.unexpected += 1

    def fresh(self, i, q, a) -> float:
        cmd = [sys.executable, "-m", "orbitcost", *q["argv"]]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record(i, "crash", " ".join(q["argv"]) + f" -> no exit in {CLI_TIMEOUT_S} s")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.fresh_stdout[i] = ref.digest(proc.stdout.decode())
        outcome = judge_cli(a, proc.returncode, proc.stdout, proc.stderr)
        self.record(i, outcome, " ".join(q["argv"]) + " -> exit %d %s" % (
            proc.returncode, proc.stderr.decode(errors="replace").strip().splitlines()[-1:]))
        return elapsed

    def replay(self, i, q, a) -> float:
        """The same command through cli.main in this process; stdout must match the fresh run."""
        if i not in self.fresh_stdout:  # the fresh process timed out: nothing to compare with
            self.record(i, "crash", " ".join(q["argv"]) + " (in-process) -> no fresh run")
            return 0.0
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.oc.cli.main(q["argv"])
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # the interpreter would print it and exit 1
                traceback.print_exc()
                code = 1
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if self.tracing:
            self.tracer.counts["cli.bytes_out"] = (self.tracer.counts.get("cli.bytes_out", 0)
                                                   + len(text.encode()))
        outcome = judge_cli(a, code, text.encode(), err.getvalue().encode())
        if outcome != "wrong" and ref.digest(text) != self.fresh_stdout[i]:
            outcome = "wrong"  # not byte-identical to the fresh process
        self.record(i, outcome, " ".join(q["argv"]) + f" (in-process) -> exit {code}")
        return elapsed

    def library_query(self, i, q, a) -> float:
        start = time.perf_counter()
        try:
            got = self.library.answer(q)
        except Exception as e:  # a crash of the code under test is a failed query
            self.record(i, "crash", f"{q['kind']}: {type(e).__name__}: {e}"[:300])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if got == expected(q, a):
            self.record(i, "ok", "")
        else:
            self.record(i, "wrong", f"{q['kind']}: got {got!r:.200}")
        return elapsed

    def run_pass(self, query_fn, traced: bool = False) -> tuple[float, list[float]]:
        gc.collect()
        if traced:
            self.tracer.install()
        self.tracing = traced
        latencies = []
        start = time.perf_counter()
        try:
            for i, (q, a) in enumerate(self.queries):
                if traced:
                    self.tracer.query, self.tracer.query_classes = i, a.get("classes", 0)
                latencies.append(query_fn(i, q, a) * 1e3)
        finally:
            if traced:
                self.tracer.uninstall()
            self.tracing = False
        return time.perf_counter() - start, latencies

    def timed(self, seconds: float) -> dict:
        query_fn = self.fresh if self.cli else self.library_query
        min_passes = -(-MIN_SAMPLES // len(self.queries))
        walls, latencies = [], []
        start = time.perf_counter()
        while True:
            wall, lat = self.run_pass(query_fn)
            walls.append(wall)
            latencies += lat
            elapsed = time.perf_counter() - start
            if len(walls) >= min_passes and elapsed + wall > seconds:
                break
        if self.cli:  # the largest child; its ru_maxrss also holds this small process's peak
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kib = own_peak_rss_kib()
        return {"walls": walls, "latencies_ms": latencies, "peak_rss_mb": peak_kib / 1024}

    def traced(self, seconds: float, spans_path: str) -> dict:
        """Untraced and traced passes in turn.

        graphing-cli makes one pass of fresh processes first, then replays in process.
        """
        self.tracer = Tracer()
        start = time.perf_counter()
        if self.cli:
            self.run_pass(self.fresh)
            self.oc = importlib.import_module("orbitcost")
            importlib.import_module("orbitcost.cli")
        query_fn = self.replay if self.cli else self.library_query
        plain, traced = [], []
        while not plain or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
            plain.append(self.run_pass(query_fn)[0])
            traced.append(self.run_pass(query_fn, traced=True)[0])
        self.tracer.write(spans_path)
        layers = self.tracer.layer_metrics(len(traced))
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        layers["cli.interp_ms"] = self.probe([sys.executable, "-c", "pass"])
        layers["cli.import_ms"] = self.probe([sys.executable, "-c", "import orbitcost.cli"])
        return {"layers": layers, "plain_walls": plain, "traced_walls": traced,
                "spans": len(self.tracer.spans)}

    def probe(self, cmd: list[str], repeats: int = 7) -> float:
        """Median wall milliseconds of a fresh process."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(cmd, cwd=self.root, env=self.env, check=True, capture_output=True)
            times.append((time.perf_counter() - start) * 1e3)
        return statistics.median(times)

    def warm_up(self):
        """One untimed answer to the first query, which is the smallest."""
        q, a = self.queries[0]
        (self.fresh if self.cli else self.library_query)(0, q, a)
        self.outcomes = {"ok": 0, "wrong": 0, "crash": 0}
        self.unexpected = 0
        self.failures.clear()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup-only", action="store_true")
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    runner = Runner(plan)
    runner.warm_up()
    if args.warmup_only:
        return
    if args.trace:
        spans_path = os.path.join(os.path.dirname(args.plan), "spans.jsonl")
        result = runner.traced(args.seconds, spans_path)
    else:
        result = runner.timed(args.seconds)
    result.update(outcomes=runner.outcomes, unexpected=runner.unexpected,
                  failures=runner.failures)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
