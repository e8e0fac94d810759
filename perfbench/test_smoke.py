"""Tiny-size smoke run of the benchmark, and checks of its reference oracles.

    python3 -m pytest -q perfbench
"""
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _walk(n, step, x, start, length):
    for m in range(n):
        if (x + m * step - start) % n < length:
            return m
    return None


def test_hitting_time_matches_walking():
    for n in range(1, 19):
        for step in range(n):
            for x in range(n):
                for start in range(n):
                    for length in range(n + 1):
                        assert ref.hitting_time(n, step, x, start, length) == _walk(
                            n, step, x, start, length)
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 3000)
        args = (n, rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randint(0, n))
        assert ref.hitting_time(*args) == _walk(*args)


def test_rotation_classes_match_full_union_find():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(2, 60)
        steps = {"a": rng.randrange(n), "b": rng.randrange(n), "c": rng.randrange(n)}
        arc_len = rng.randint(0, n)
        pairs = [(x, (x + steps["a"]) % n) for x in range(n)]
        pairs += [(x, (x + steps[s]) % n) for s in "bc" for x in range(arc_len)]
        classes = len(set(ref.classes_of(n, pairs)))
        assert ref.rotation_classes(n, steps, "a", arc_len) == classes


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["eps-rotation", "graphing-cli", "schreier-sampling"])
def test_smoke_run(workload, trace):
    proc = subprocess.run([*RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    if workload != "graphing-cli":  # graphing-cli carries the known traceback triggers
        assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _checkout(tmp_path, with_src=True):
    """A copy of the benchmark, and of src/ unless told otherwise, to run or break."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=ignore)


# A query that raises, or a valid command that exits 1 with a clean `error:` line,
# must make the run incorrect: only the known traceback triggers may fail.
@pytest.mark.parametrize("workload, module, breakage", [
    ("schreier-sampling", "schreier.py", "def subgroup_rank(*args, **kwargs):\n"
                                         "    raise RuntimeError('broken')\n"),
    ("graphing-cli", "relcore.py", "def cost(g):\n    raise ModelError('broken')\n"),
])
def test_failure_outside_triggers_is_incorrect(tmp_path, workload, module, breakage):
    _checkout(tmp_path)
    with open(tmp_path / "src" / "orbitcost" / module, "a") as fh:
        fh.write("\n\n" + breakage)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_without_sources(tmp_path):
    _checkout(tmp_path, with_src=False)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eps-rotation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
