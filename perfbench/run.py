"""orbitcost benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload eps-rotation --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the root of a checkout; it imports orbitcost from ./src.  Set-up
(inputs, reference answers and a warm-up in a fresh process) runs three
times and reports its median as setup_s.  A separate worker process then
answers the workload's fixed query list in passes until --seconds are used.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric.  Inputs, plans and the span file go to .perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import COMPUTED  # noqa: E402

WORKLOADS = ["eps-rotation", "graphing-cli", "schreier-sampling"]
SETUP_REPEATS = 3


def build_plan(name: str, seed: int, smoke: bool, work: str) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name == "eps-rotation":
        plan = workloads.eps_rotation(rng, smoke)
    elif name == "schreier-sampling":
        plan = workloads.schreier_sampling(rng, smoke)
    else:
        plan = workloads.graphing_cli(rng, ROOT, os.path.relpath(os.path.join(work, "in"), ROOT),
                                      smoke)
    plan.update(workload=name, root=ROOT)
    return plan


def worker(plan_path: str, *flags: str) -> str:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path, *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup(name: str, seed: int, smoke: bool, work: str) -> tuple[dict, str, list[float]]:
    """Generate inputs and reference answers, then warm up in a fresh worker; repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        plan = build_plan(name, seed, smoke, work)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        worker(plan_path, "--warmup-only")
        times.append(time.perf_counter() - start)
    return plan, plan_path, times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    work = os.path.join(ROOT, ".perfbench", name)
    plan, plan_path, setup_times = setup(name, seed, smoke, work)
    result = json.loads(worker(plan_path, "--seconds", str(seconds), "--trace", str(int(trace))))
    outcomes = result["outcomes"]
    attempted = sum(outcomes.values())
    failed = outcomes["wrong"] + outcomes["crash"]
    queries = len(plan["queries"])
    print(f"== {name}  seed {seed}  {queries} queries per pass  "
          f"shares {json.dumps({k: round(v, 4) for k, v in plan['shares'].items()})}")
    for line, count in result["failures"].items():
        print(f"   failed {count}x {line}")
    if trace:
        values = result["layers"]
        spans = os.path.relpath(os.path.join(work, "spans.jsonl"), ROOT)
        print(f"   traced: {len(result['traced_walls'])} traced and {len(result['plain_walls'])} "
              f"untraced passes, {result['spans']} spans in {spans}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for key, m in metrics.items():
            label = "  (computed)" if key in COMPUTED else ""
            print(f"   {key:40s} {m['value']:14.4f} {m['unit']}{label}")
    else:
        walls, lat = result["walls"], result["latencies_ms"]
        p90 = percentile(lat, 90)
        values = {"wall_s": statistics.median(walls),
                  "query_p50_ms": statistics.median(lat),
                  "query_p90_ms": p90,
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(setup_times)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        notes = {"wall_s": f"median of {len(walls)} passes over the fixed query list",
                 "query_p50_ms": f"{len(lat)} samples",
                 "query_p90_ms": f"{len(lat)} samples, {sum(v > p90 for v in lat)} above it",
                 "peak_rss_mb": "the largest CLI child" if name == "graphing-cli"
                 else "the worker process",
                 "setup_s": f"median of {len(setup_times)} set-ups"}
        for key, m in metrics.items():
            print(f"   {key:14s} {m['value']:12.4f} {m['unit']:6s} {notes[key]}")
        print(f"   {'fail_ratio':14s} {failed / attempted:12.4f} {'ratio':6s} "
              f"{failed} failed of {attempted} attempted")
    # Only a crash on a known traceback trigger (ROADMAP 4(a)/4(b)) fails a query without
    # making the run incorrect; it still counts in `failed`.
    return {"correct": result["unexpected"] == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick self-test")
    args = parser.parse_args()
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
