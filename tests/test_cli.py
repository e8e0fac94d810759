"""Command line: one smoke per verb, exit codes, byte-stable reports."""
import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitcost
from orbitcost import cli, relcore, rotation, schreier
from orbitcost.cli import main
from orbitcost.files import MAX_INPUT_CHARS, fmt_rational
from test_relcore import graphings
from test_rotation import fibonacci


# the documents the golden commands read, by the name their argv templates give them
GOLDEN_DOCS = {
    "graphing": {"space": {"n": 10},
                 "maps": [{"name": "a", "rotation": 1, "domain": "all"},
                          {"name": "b", "rotation": 3, "domain": {"arc": [0, 2]}}]},
    "rotation": {"n": 1000, "steps": {"a": 1, "b": 357}, "full": "a",
                 "eps": ["1/10", "1/100", "1/1000"], "arc": [0, 10]},
    "small": {"space": {"n": 6}, "maps": [{"name": "a", "pairs": [[0, 1], [1, 2]]},
                                          {"name": "b", "pairs": [[3, 4], [2, 0]]}]},
    "relation": {"n": 5, "classes": [[0, 3, 1]]},
    "mixed": {"space": {"n": 12}, "maps": [{"name": "a", "rotation": 8, "domain": "all"},
                                           {"name": "b", "pairs": [[1, 6], [5, 5], [3, 2]]}]},
    "mixed_classes": {"n": 12, "classes": [[0, 4, 8], [1, 2, 3, 5, 6, 7, 9, 10, 11]]},
    "one_class": {"n": 12, "classes": [list(range(12))]},
    "schreier": {"factors": [2, 3], "indices": [6, 12], "seed": 3},
}


def write_doc(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def graphing_file(tmp_path):
    return write_doc(tmp_path / "g.json", GOLDEN_DOCS["graphing"])


@pytest.fixture
def relation_file(tmp_path):
    return write_doc(tmp_path / "r.json", {"n": 10, "classes": [[0, 1, 2, 3], [4, 5, 6]]})


@pytest.fixture
def rotation_file(tmp_path):
    return write_doc(tmp_path / "rot.json", GOLDEN_DOCS["rotation"])


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    return json.loads(out)


def test_cost(capsys, graphing_file):
    assert run_json(capsys, ["cost", graphing_file])["cost"] == "6/5"


def test_nu(capsys, graphing_file):
    assert run_json(capsys, ["nu", graphing_file])["nu"] == "6/5"


def test_gen_check(capsys, graphing_file, tmp_path):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 10, "classes": [list(range(10))]}))
    assert run_json(capsys, ["gen-check", graphing_file, str(one)])["generates"] is True


def test_treeing(capsys, graphing_file):
    assert run_json(capsys, ["treeing", graphing_file])["is_treeing"] is False


def test_min_cost(capsys, relation_file):
    report = run_json(capsys, ["min-cost", relation_file])
    assert report["min_cost"] == "1/2"
    assert report["classes"] == 5


def test_reduce(capsys, graphing_file):
    report = run_json(capsys, ["reduce", graphing_file])
    assert report["cost"] == "9/10"
    assert report["is_treeing"] is True
    assert report["graphing"]["space"]["n"] == 10


def test_single_gen(capsys, relation_file):
    report = run_json(capsys, ["single-gen", relation_file])
    assert report["cost"] == "1"
    assert [0, 1] in report["map"]["pairs"]
    assert len(report["map"]["pairs"]) == 10


def test_first_return(capsys, graphing_file):
    report = run_json(capsys, ["first-return", graphing_file,
                               "--map", "a", "--members", "0,5"])
    assert report["map"]["pairs"] == [[0, 5], [5, 0]]


def test_first_return_needs_unique_map(capsys, graphing_file):
    code, _ = run(capsys, ["first-return", graphing_file, "--members", "0,5"])
    assert code == 1


def test_compress(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 6, "classes": [list(range(6))]}))
    report = run_json(capsys, ["compress", str(path), "--members", "0,1,2"])
    assert (report["lhs"], report["rhs"], report["equal"]) == ("-1/3", "-1/12", False)
    report = run_json(capsys, ["compress", str(path), "--arc", "0:6"])
    assert report["equal"] is True


def test_brute_min(capsys, relation_file):
    assert run_json(capsys, ["brute-min", relation_file])["min_cost"] == "1/2"


def test_rotation_demo(capsys, rotation_file):
    report = run_json(capsys, ["rotation-demo", rotation_file, "--x", "500"])
    assert report["length"] == 1001
    assert report["end"] == (500 + 357) % 1000
    assert report["segments"][0] == {"step": "a", "power": 1, "count": 500}


def test_eps_curve(capsys, rotation_file):
    report = run_json(capsys, ["eps-curve", rotation_file])
    assert [row["cost"] for row in report["rows"]] == ["11/10", "101/100", "1001/1000"]
    assert all(row["generates"] for row in report["rows"])
    assert report["infimum"] == "1"


def test_invariants(capsys, graphing_file):
    report = run_json(capsys, ["invariants", graphing_file])
    assert report["ok"] is True
    assert report["checks"]["transversal_identity"] is True


def test_schreier_rank(capsys):
    report = run_json(capsys, ["schreier-rank", "--factors", "2,3", "--index", "6"])
    assert report["rank"] == 2


def test_rank_gradient_inline(capsys):
    report = run_json(capsys, ["rank-gradient", "--factors", "2,3", "--indices", "6:36:6"])
    assert len(report["rows"]) == 6
    assert {row["gradient"] for row in report["rows"]} == {"1/6"}
    assert report["all_match"] is True


def test_rank_gradient_from_file(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"factors": [0, 0], "indices": [1, 2, 3], "seed": 9}))
    report = run_json(capsys, ["rank-gradient", str(path)])
    assert [row["rank"] for row in report["rows"]] == [2, 3, 4]
    assert {row["gradient"] for row in report["rows"]} == {"1"}


def test_compress_check(capsys):
    report = run_json(capsys, ["compress-check", "--factors", "0,0,0", "--index", "4"])
    assert (report["lhs"], report["rhs"], report["equal"]) == ("8", "8", True)


def test_coincidence(capsys):
    report = run_json(capsys, ["coincidence", "--specs", "2,3;0,0;2,2"])
    rows = {row["factors"]: row for row in report["rows"]}
    assert rows["2,3"]["measured_cost"] == "7/6"
    assert rows["2,3"]["modeled_costs"] == "1/2,2/3"
    assert report["all_match"] is True


def test_member_and_arc_flags():
    assert cli._members("3,1,2") == [3, 1, 2]
    assert cli._arc("5:3").start == 5
    with pytest.raises(argparse.ArgumentTypeError):
        cli._members("1,x")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._arc("5")


@pytest.mark.parametrize("flag, value, message", [
    ("--members", "1,x", "argument --members: cannot read '1,x' as a comma-separated atom list"),
    ("--arc", "5", "argument --arc: an arc is written start:length, got '5'"),
])
def test_bad_subset_flag_shows_its_format_error(capsys, relation_file, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["compress", relation_file, flag, value])
    lines = capsys.readouterr().err.splitlines()
    assert (exc.value.code, lines[-1]) == (2, "orbitcost compress: error: " + message)


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cost"])
    assert exc.value.code == 2


def test_domain_error_exits_one(capsys, relation_file):
    code, _ = run(capsys, ["min-cost", "/nonexistent.json"])
    assert code == 1
    code, _ = run(capsys, ["compress", relation_file, "--members", "0"])
    assert code == 1
    code, _ = run(capsys, ["schreier-rank", "--factors", "2,3", "--index", "7"])
    assert code == 1


def run_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


def test_non_utf8_file_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"space": {"n": 3}, "maps": [{"name": "\xff"}]}')
    code, lines = run_error(capsys, ["cost", str(path)])
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: not valid UTF-8")


def test_huge_eps_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "eps": [1e5000]}')
    code, lines = run_error(capsys, ["eps-curve", str(path)])
    assert code == 1
    assert lines == ["error: eps must lie in (0, 1], got a ratio above 1"]


def test_text_and_json_are_both_deterministic(capsys, graphing_file, rotation_file):
    invocations = [
        ["cost", graphing_file],
        ["eps-curve", rotation_file],
        ["rank-gradient", "--factors", "2,3", "--indices", "6:24:6"],
        ["coincidence", "--specs", "2,3;0,0"],
    ]
    for argv in invocations:
        for fmt in ("text", "json"):
            first = run(capsys, argv + ["--format", fmt])
            second = run(capsys, argv + ["--format", fmt])
            assert first == second
            assert first[0] == 0


def write_large_relation(tmp_path) -> str:
    """10^5 atoms in two classes; single-gen's JSON report of it is about 4.5 MB."""
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"n": 100_000, "classes": [list(range(0, 100_000, 2))]}))
    return str(path)


# the child's stdout is a buffered writer without the variable and the raw file with it
BUFFERING_ENVS = {
    "buffered": {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "unbuffered": {**os.environ, "PYTHONUNBUFFERED": "1"},
}


@pytest.mark.parametrize("argv, code", [
    (["rank-gradient", "--factors", "2,3", "--indices", "6:24:6", "--format", "json"], 0),
    # far past a pipe buffer: the process must flush all of it before it exits
    (["single-gen", "{large}", "--format", "json"], 0),
    (["min-cost", "{missing}"], 1),
], ids=["rank-gradient", "past-a-pipe-buffer", "error-line"])
def test_subprocess_matches_in_process(capsys, tmp_path, argv, code):
    large = write_large_relation(tmp_path) if "{large}" in argv else None
    argv = [a.format(large=large, missing=tmp_path / "no.json") for a in argv]
    assert main(argv) == code
    inner = capsys.readouterr()
    for env in BUFFERING_ENVS.values():
        proc = subprocess.run([sys.executable, "-m", "orbitcost"] + argv,
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, inner.out, inner.err)
    assert code == 0 or inner.err == f"error: {tmp_path / 'no.json'}: No such file or directory\n"


@pytest.mark.parametrize("verb", ["min-cost", "single-gen"])
def test_a_closed_stdout_is_one_error_line(tmp_path, verb):
    # the read end is closed before the child starts, so its first write to stdout fails
    path = write_large_relation(tmp_path)
    for env in BUFFERING_ENVS.values():
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orbitcost", verb, path, "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (
            1, "error: cannot write the report: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffering", list(BUFFERING_ENVS))
def test_a_full_stdout_is_one_error_line(relation_file, buffering):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "orbitcost", "min-cost", relation_file],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=BUFFERING_ENVS[buffering], timeout=60)
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write the report: No space left on device\n")


@pytest.mark.parametrize("buffering", list(BUFFERING_ENVS))
def test_a_full_non_blocking_stdout_is_one_error_line(tmp_path, buffering):
    # the pipe is filled before the child starts and never read, so its first write finds
    # no room; a buffered and a raw stdout must report that alike
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)
        with contextlib.suppress(BlockingIOError):
            while True:
                os.write(write_end, b"x" * 65536)
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcost", "single-gen", write_large_relation(tmp_path),
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=BUFFERING_ENVS[buffering],
            timeout=60)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write the report: Resource temporarily unavailable\n")


@pytest.mark.parametrize("buffering", list(BUFFERING_ENVS))
def test_a_reader_that_leaves_mid_report_gets_one_error_line(tmp_path, buffering):
    # about 4.5 MB in one write, far past a pipe buffer: the reader takes one byte and
    # closes, so the write returns short; the rest must fail loudly, not vanish
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitcost", "single-gen", write_large_relation(tmp_path),
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERING_ENVS[buffering])
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b"error: cannot write the report: Broken pipe\n"
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def unreachable_after_main(argv) -> int:
    """Objects gc.collect() finds unreachable after cli.main ran with the collector off."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
    finally:
        gc.enable()
    return gc.collect()


def test_garbage_cycles_of_a_command_do_not_grow_with_its_input(capsys, golden_files, tmp_path):
    # the process entry point runs a command with the collector off; what that leaves
    # uncollected is argparse's parser tree, the same for n = 5 as for n = 10^5
    counts = [unreachable_after_main(argv) for argv in (
        ["min-cost", golden_files["relation"]],
        ["eps-curve", golden_files["rotation"], "--format", "json"],
        ["single-gen", write_large_relation(tmp_path), "--format", "json"])]
    capsys.readouterr()
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


# Exact reports pinned from the previous release, so a byte change between
# versions fails here and not only between two runs of the same code.
GOLDEN_STDOUT = [
    (["coincidence", "--specs", "2,3;0,0;2,2"], """\
command: coincidence
rows:
  factors  rank  predicted_cost  beta1  index  measured_cost  factor_costs  modeled_costs  match
  2,3      2     7/6             1/6    120    7/6            1/2,2/3       1/2,2/3        true
  0,0      2     2               1      120    2              1,1           1,1            true
  2,2      2     1               0      120    1              1/2,1/2       1/2,1/2        true
all_match: true
"""),
    (["coincidence", "--specs", "0;3,0", "--max-index", "12", "--format", "json"], """\
{
  "all_match": true,
  "command": "coincidence",
  "rows": [
    {
      "beta1": "0",
      "factor_costs": "1",
      "factors": "0",
      "index": 12,
      "match": true,
      "measured_cost": "1",
      "modeled_costs": "1",
      "predicted_cost": "1",
      "rank": 1
    },
    {
      "beta1": "2/3",
      "factor_costs": "2/3,1",
      "factors": "3,0",
      "index": 12,
      "match": true,
      "measured_cost": "5/3",
      "modeled_costs": "2/3,1",
      "predicted_cost": "5/3",
      "rank": 2
    }
  ]
}
"""),
    (["rank-gradient", "--factors", "2,3", "--indices", "6:18:6"], """\
command: rank-gradient
factors: 2,3
beta1: 1/6
rows:
  index  rank  gradient  beta1  match
  6      2     1/6       1/6    true
  12     3     1/6       1/6    true
  18     4     1/6       1/6    true
all_match: true
"""),
    (["schreier-rank", "--factors", "0,0,2", "--index", "8"], """\
command: schreier-rank
factors: 0,0,2
index: 8
rank: 13
"""),
    # a lone infinite factor draws one 4000-cycle instead of rejecting ~4000 times
    (["schreier-rank", "--factors", "0", "--index", "4000"], """\
command: schreier-rank
factors: 0
index: 4000
rank: 1
"""),
    (["invariants", "{small}"], """\
command: invariants
cost: 2/3
nu: 2/3
min_cost: 1/2
reduced_cost: 1/2
brute_min_cost: 1/2
checks:
  cost_ge_nu: true
  nu_ge_min_cost: true
  reduced_is_treeing: true
  reduced_generates: true
  reduced_cost_is_min: true
  spanning_cost_is_min: true
  transversal_identity: true
  brute_force_agrees: true
ok: true
"""),
    (["invariants", "{small}", "--edge-budget", "1"], """\
command: invariants
cost: 2/3
nu: 2/3
min_cost: 1/2
reduced_cost: 1/2
brute_min_cost: null
checks:
  cost_ge_nu: true
  nu_ge_min_cost: true
  reduced_is_treeing: true
  reduced_generates: true
  reduced_cost_is_min: true
  spanning_cost_is_min: true
  transversal_identity: true
ok: true
"""),
    (["reduce", "{graphing}"], """\
command: reduce
cost: 9/10
is_treeing: true
graphing:
  space: {"n": 10}
  maps: [{"name": "a", "pairs": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [8, 9]]}, {"name": "b", "pairs": []}]
"""),
    (["single-gen", "{relation}"], """\
command: single-gen
cost: 1
map:
  name: cycles
  pairs: [[0, 1], [1, 3], [2, 2], [3, 0], [4, 4]]
"""),
    (["eps-curve", "{rotation}"], """\
command: eps-curve
rows:
  eps     arc_len  cost       generates
  1/10    100      11/10      true
  1/100   10       101/100    true
  1/1000  1        1001/1000  true
infimum: 1
"""),
    # a full view whose step shares gcd 4 with n beside a pairs map
    (["gen-check", "{mixed}", "{mixed_classes}"], """\
command: gen-check
generates: true
"""),
    (["gen-check", "{mixed}", "{one_class}"], """\
command: gen-check
generates: false
"""),
    (["treeing", "{mixed}"], """\
command: treeing
is_treeing: false
"""),
    (["invariants", "{mixed}"], """\
command: invariants
cost: 5/4
nu: 5/4
min_cost: 5/6
reduced_cost: 5/6
brute_min_cost: null
checks:
  cost_ge_nu: true
  nu_ge_min_cost: true
  reduced_is_treeing: true
  reduced_generates: true
  reduced_cost_is_min: true
  spanning_cost_is_min: true
  transversal_identity: true
ok: true
"""),
    (["reduce", "{mixed}"], """\
command: reduce
cost: 5/6
is_treeing: true
graphing:
  space: {"n": 12}
  maps: [{"name": "a", "pairs": [[0, 8], [1, 9], [2, 10], [3, 11], [4, 0], [5, 1], [6, 2], [7, 3]]}, {"name": "b", "pairs": [[1, 6], [3, 2]]}]
"""),
    # every verb has a text golden above or here, and each one a JSON golden
    (["cost", "{graphing}"], """\
command: cost
cost: 6/5
"""),
    (["nu", "{graphing}"], """\
command: nu
nu: 6/5
"""),
    (["min-cost", "{relation}"], """\
command: min-cost
min_cost: 2/5
classes: 3
"""),
    (["first-return", "{graphing}", "--map", "a", "--arc", "8:4"], """\
command: first-return
map:
  name: a_return
  pairs: [[0, 1], [1, 8], [8, 9], [9, 0]]
"""),
    (["compress", "{relation}", "--members", "0,2,4"], """\
command: compress
lhs: -1
rhs: -9/25
equal: false
"""),
    (["compress", "{relation}", "--arc", "2:3"], """\
command: compress
lhs: -1
rhs: -9/25
equal: false
"""),
    (["brute-min", "{relation}"], """\
command: brute-min
min_cost: 2/5
edge_budget: 20
"""),
    (["rotation-demo", "{rotation}", "--x", "5"], """\
command: rotation-demo
start: 5
end: 362
length: 1
hit: 5
segments:
  step  power  count
  b     1      1
"""),
    (["compress-check", "--factors", "2,3", "--index", "6"], """\
command: compress-check
lhs: 1
rhs: 1
equal: true
"""),
    (["rank-gradient", "{schreier}"], """\
command: rank-gradient
factors: 2,3
beta1: 1/6
rows:
  index  rank  gradient  beta1  match
  6      2     1/6       1/6    true
  12     3     1/6       1/6    true
all_match: true
"""),
    (["cost", "{graphing}", "--format", "json"], """\
{
  "command": "cost",
  "cost": "6/5"
}
"""),
    (["nu", "{mixed}", "--format", "json"], """\
{
  "command": "nu",
  "nu": "5/4"
}
"""),
    (["gen-check", "{mixed}", "{mixed_classes}", "--format", "json"], """\
{
  "command": "gen-check",
  "generates": true
}
"""),
    (["treeing", "{mixed}", "--format", "json"], """\
{
  "command": "treeing",
  "is_treeing": false
}
"""),
    (["min-cost", "{mixed_classes}", "--format", "json"], """\
{
  "classes": 2,
  "command": "min-cost",
  "min_cost": "5/6"
}
"""),
    (["reduce", "{small}", "--format", "json"], """\
{
  "command": "reduce",
  "cost": "1/2",
  "graphing": {
    "maps": [
      {
        "name": "a",
        "pairs": [
          [
            0,
            1
          ],
          [
            1,
            2
          ]
        ]
      },
      {
        "name": "b",
        "pairs": [
          [
            3,
            4
          ]
        ]
      }
    ],
    "space": {
      "n": 6
    }
  },
  "is_treeing": true
}
"""),
    (["single-gen", "{relation}", "--format", "json"], """\
{
  "command": "single-gen",
  "cost": "1",
  "map": {
    "name": "cycles",
    "pairs": [
      [
        0,
        1
      ],
      [
        1,
        3
      ],
      [
        2,
        2
      ],
      [
        3,
        0
      ],
      [
        4,
        4
      ]
    ]
  }
}
"""),
    (["first-return", "{graphing}", "--map", "a", "--members", "0,4", "--format", "json"], """\
{
  "command": "first-return",
  "map": {
    "name": "a_return",
    "pairs": [
      [
        0,
        4
      ],
      [
        4,
        0
      ]
    ]
  }
}
"""),
    (["compress", "{relation}", "--arc", "2:3", "--format", "json"], """\
{
  "command": "compress",
  "equal": false,
  "lhs": "-1",
  "rhs": "-9/25"
}
"""),
    (["brute-min", "{relation}", "--edge-budget", "10", "--format", "json"], """\
{
  "command": "brute-min",
  "edge_budget": 10,
  "min_cost": "2/5"
}
"""),
    (["rotation-demo", "{rotation}", "--x", "5", "--restricted", "b", "--format", "json"], """\
{
  "command": "rotation-demo",
  "end": 362,
  "hit": 5,
  "length": 1,
  "segments": [
    {
      "count": 1,
      "power": 1,
      "step": "b"
    }
  ],
  "start": 5
}
"""),
    (["eps-curve", "{rotation}", "--format", "json"], """\
{
  "command": "eps-curve",
  "infimum": "1",
  "rows": [
    {
      "arc_len": 100,
      "cost": "11/10",
      "eps": "1/10",
      "generates": true
    },
    {
      "arc_len": 10,
      "cost": "101/100",
      "eps": "1/100",
      "generates": true
    },
    {
      "arc_len": 1,
      "cost": "1001/1000",
      "eps": "1/1000",
      "generates": true
    }
  ]
}
"""),
    (["invariants", "{small}", "--edge-budget", "1", "--format", "json"], """\
{
  "brute_min_cost": null,
  "checks": {
    "cost_ge_nu": true,
    "nu_ge_min_cost": true,
    "reduced_cost_is_min": true,
    "reduced_generates": true,
    "reduced_is_treeing": true,
    "spanning_cost_is_min": true,
    "transversal_identity": true
  },
  "command": "invariants",
  "cost": "2/3",
  "min_cost": "1/2",
  "nu": "2/3",
  "ok": true,
  "reduced_cost": "1/2"
}
"""),
    (["schreier-rank", "--factors", "2,3", "--index", "6", "--format", "json"], """\
{
  "command": "schreier-rank",
  "factors": "2,3",
  "index": 6,
  "rank": 2
}
"""),
    (["rank-gradient", "{schreier}", "--format", "json"], """\
{
  "all_match": true,
  "beta1": "1/6",
  "command": "rank-gradient",
  "factors": "2,3",
  "rows": [
    {
      "beta1": "1/6",
      "gradient": "1/6",
      "index": 6,
      "match": true,
      "rank": 2
    },
    {
      "beta1": "1/6",
      "gradient": "1/6",
      "index": 12,
      "match": true,
      "rank": 3
    }
  ]
}
"""),
    (["compress-check", "--factors", "0,0", "--index", "4", "--format", "json"], """\
{
  "command": "compress-check",
  "equal": true,
  "lhs": "4",
  "rhs": "4"
}
"""),
]


@pytest.fixture
def golden_files(tmp_path):
    return {name: write_doc(tmp_path / f"{name}.json", doc) for name, doc in GOLDEN_DOCS.items()}


@pytest.mark.parametrize("argv, expected", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, golden_files, argv, expected):
    code = main([a.format(**golden_files) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


class ReadRecorder:
    """A parsed namespace that notes the name of every attribute a command reads."""

    def __init__(self, ns, reads: set):
        self._values = vars(ns)
        self._reads = reads

    def __getattr__(self, name):
        self._reads.add(name)
        return self._values[name]


def test_every_flag_of_every_verb_is_read(capsys, golden_files, monkeypatch):
    # a flag that no golden case reads is parsed, checked and then dropped: it cannot
    # change what its verb prints
    parse = cli.build_parser
    reads = {}

    def recording_parser():
        parser = parse()
        parse_args = parser.parse_args
        parser.parse_args = lambda argv: ReadRecorder(parse_args(argv),
                                                      reads.setdefault(argv[0], set()))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    for argv, expected in GOLDEN_STDOUT:
        assert main([a.format(**golden_files) for a in argv]) == 0
        assert capsys.readouterr().out == expected
    (verbs,) = [a for a in parse()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {verb: {a.dest for a in p._actions} - {"help"} for verb, p in verbs.choices.items()}
    unread = {verb: dests[verb] - reads.get(verb, set()) for verb in dests}
    assert unread == dict.fromkeys(dests, set())


SCHREIER_GOLDENS = [(argv, expected) for argv, expected in GOLDEN_STDOUT
                    if argv[0] in ("schreier-rank", "rank-gradient", "compress-check",
                                   "coincidence")]


@pytest.mark.parametrize("argv, expected", SCHREIER_GOLDENS,
                         ids=[" ".join(argv) for argv, _ in SCHREIER_GOLDENS])
def test_schreier_verbs_answer_without_a_draw(capsys, golden_files, monkeypatch, argv,
                                              expected):
    # every draw of the sampler takes its factor permutations, and each of those shuffles
    def no_draws(*args):
        raise AssertionError("drew a permutation")
    monkeypatch.setattr(schreier, "_sample_factor_perm", no_draws)
    monkeypatch.setattr(schreier, "_shuffle", no_draws)
    code = main([a.format(**golden_files) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


COINCIDENCE_GOLDENS = [(argv, expected) for argv, expected in SCHREIER_GOLDENS
                       if argv[0] == "coincidence"]


@pytest.mark.parametrize("argv, expected", COINCIDENCE_GOLDENS,
                         ids=[" ".join(argv) for argv, _ in COINCIDENCE_GOLDENS])
def test_coincidence_answers_without_the_existence_rule(capsys, golden_files, monkeypatch, argv,
                                                        expected):
    # the report picks an index every torsion order divides, so no rule is asked of it
    def asked(*args):
        raise AssertionError("asked the existence rule about an index the report picked")
    monkeypatch.setattr(schreier, "_require_action", asked)
    code = main([a.format(**golden_files) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


HELD_GOLDENS = [(argv, expected) for argv, expected in GOLDEN_STDOUT
                if argv[0] in ("compress", "reduce", "invariants", "single-gen")]


@pytest.mark.parametrize("argv, expected", HELD_GOLDENS,
                         ids=[" ".join(argv) for argv, _ in HELD_GOLDENS])
def test_compress_and_reduce_answer_from_what_they_hold(capsys, golden_files, monkeypatch, argv,
                                                        expected):
    # compress counts the trace's classes without building it, reduce keeps a forest,
    # invariants reads the reduction's, the spanning treeing's and the transversal's
    # identities from the class count, and single-gen prices its permutation by its
    # entries, with no graphing around it
    def rebuilt(*args):
        raise AssertionError("re-derived a value the verb already holds")
    monkeypatch.setattr(relcore, "restrict_relation", rebuilt)
    monkeypatch.setattr(relcore, "is_treeing", rebuilt)
    monkeypatch.setattr(relcore, "generates", rebuilt)
    monkeypatch.setattr(relcore, "spanning_treeing", rebuilt)
    monkeypatch.setattr(relcore, "transversal", rebuilt)
    if argv[0] == "invariants":  # reduce's own output is the reduction
        monkeypatch.setattr(relcore, "reduce_to_treeing", rebuilt)
    if argv[0] == "single-gen":  # the only one of these verbs that loads no graphing file
        monkeypatch.setattr(relcore.Graphing, "__init__", rebuilt)
    code = main([a.format(**golden_files) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


def invariants_oracle(g: relcore.Graphing, edge_budget: int) -> dict:
    """invariants' report with its reduction run and its treeing and transversal built."""
    total, nu = relcore.cost(g), relcore.nu(g)
    r = relcore.generated_relation(g)
    floor = relcore.min_cost(r)
    reduced = relcore.reduce_to_treeing(g)
    reduced_cost = relcore.cost(reduced)
    reduced_r = relcore.generated_relation(reduced)
    checks = {
        "cost_ge_nu": total >= nu,
        "nu_ge_min_cost": nu >= floor,
        "reduced_is_treeing": reduced_cost == relcore.min_cost(reduced_r),
        "reduced_generates": reduced_r == r,
        "reduced_cost_is_min": reduced_cost == floor,
        "spanning_cost_is_min": relcore.cost(relcore.spanning_treeing(r)) == floor,
        "transversal_identity": floor == 1 - relcore.transversal(r).measure,
    }
    try:
        brute = relcore.brute_force_min_cost(r, edge_budget)
        checks["brute_force_agrees"] = brute == floor
    except relcore.EdgeBudgetError:
        brute = None
    return {"command": "invariants", "cost": total, "nu": nu, "min_cost": floor,
            "reduced_cost": reduced_cost, "brute_min_cost": brute, "checks": checks,
            "ok": all(checks.values())}


def graphing_doc(g: relcore.Graphing) -> dict:
    """g as a graphing file: each view by its step and arc, each dict map by its pairs."""
    maps = []
    for m in g.maps:
        v = m.mapping
        if isinstance(v, relcore.ShiftMapping):
            maps.append({"name": m.name, "rotation": v.step,
                         "domain": {"arc": [v.start, v.length]}})
        else:
            maps.append({"name": m.name, "pairs": [list(pair) for pair in m.pairs()]})
    return {"space": {"n": g.space.n}, "maps": maps}


@settings(max_examples=200, deadline=None)
@given(graphings(), st.integers(1, relcore.MAX_EDGE_BUDGET))
def test_invariants_matches_the_report_built_from_its_reduction(tmp_path_factory, g, budget):
    path = write_doc(tmp_path_factory.getbasetemp() / "invariants.json", graphing_doc(g))
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["invariants", path, "--edge-budget", str(budget), "--format", fmt])
        assert (code, out.getvalue()) == (0, cli.render(invariants_oracle(g, budget), fmt))


CURVE_GOLDENS = [(argv, expected) for argv, expected in GOLDEN_STDOUT if argv[0] == "eps-curve"]


@pytest.mark.parametrize("argv, expected", CURVE_GOLDENS,
                         ids=[" ".join(argv) for argv, _ in CURVE_GOLDENS])
def test_eps_curve_answers_without_a_rotation_relation(capsys, golden_files, monkeypatch, argv,
                                                       expected):
    # the generates column is gcd arithmetic and a class count: nothing listed or compared
    def built(*args):
        raise AssertionError("built or compared a rotation relation")
    monkeypatch.setattr(rotation, "expected_relation", built)
    monkeypatch.setattr(relcore, "generates", built)
    monkeypatch.setattr(relcore, "generated_relation", built)
    code = main([a.format(**golden_files) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_rank_too_long_to_print_is_one_error_line(capsys, fmt):
    # eleven free factors: rank 1 + 10 * index has 4301 digits, one past what str() prints
    code, lines = run_error(capsys, ["schreier-rank", "--factors", ",".join(["0"] * 11),
                                     "--index", "9" * 4300, "--format", fmt])
    assert (code, lines) == (1, ["error: a ratio whose numerator or denominator passes "
                                 f"{sys.get_int_max_str_digits()} digits cannot be printed"])


# JSON texts that json.dumps cannot write, so the loader-error cases take them as raw text:
# 100000 nested arrays (3.13 parses 2000) and a 5000-digit integer literal
DEEP = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5000
DEEP_GRAPHING = '{"space": {"n": 3}, "maps": ' + DEEP + "}"
DEEP_RELATION = '{"n": 3, "classes": ' + DEEP + "}"
LONG_INT_GRAPHING = '{"space": {"n": ' + LONG_INT + '}, "maps": []}'
LONG_INT_RELATION = '{"n": ' + LONG_INT + ', "classes": [[0]]}'
ROTATION_AB = {"n": 10, "steps": {"a": 1, "b": 3}}


@pytest.mark.parametrize("argv, doc, message", [
    (["cost"], {"space": {"n": 3}}, "{path}: missing 'maps' (a list of map objects)"),
    (["min-cost"], {"n": 3}, "{path}: missing 'classes' (a list of atom lists)"),
    (["rank-gradient"], {"factors": [2], "indices": "x"},
     "{path}: indices must be a list of integers"),
    (["eps-curve"], {"n": 10, "steps": {}},
     "{path}: steps must be a nonempty object of named integers"),
    (["eps-curve"], {"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "eps": ["x"]},
     "cannot read 'x' as an exact ratio"),
    (["cost"], {"space": {"n": 10}, "maps": [{"name": "b", "rotation": 3, "domain": {"arc": [0]}}]},
     "{path}: map 'b': an arc domain is a [start, length] pair"),
    (["cost"], {"space": {"n": 10},
                "maps": [{"name": "b", "rotation": 3, "domain": {"arc": [11, 2]}}]},
     "{path}: arc start 11 outside 0..9"),
    (["eps-curve"], {"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "arc": [1]},
     "{path}: arc must be a [start, length] pair"),
    (["eps-curve"], {"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "arc": [11, 1]},
     "{path}: arc start 11 outside 0..9"),
    (["cost"], {"space": {"n": 10},
                "maps": [{"name": "b", "rotation": 3, "domain": {"arc": [0, 11]}}]},
     "{path}: arc length 11 outside 0..10"),
    (["cost"], {"space": {"n": 3}, "maps": {}}, "{path}: maps must be a list"),
    (["cost"], {"space": {"n": 3}, "maps": [1]}, "{path}: maps[0] must be an object"),
    (["cost"], {"space": {"n": 3}, "maps": [{"pairs": []}]}, "{path}: maps[0] needs a nonempty name"),
    (["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "pairs": {}}]},
     "{path}: map 'a': pairs must be a list"),
    (["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [[0]]}]},
     "{path}: map 'a': each pair must be a two-atom list"),
    (["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "rotation": 1, "domain": "some"}]},
     """{path}: map 'a': domain must be "all", an arc object or an atom list"""),
    (["min-cost"], {"n": 3, "classes": {}}, "{path}: classes must be a list of atom lists"),
    (["min-cost"], {"n": 3, "classes": [[]]}, "{path}: classes[0] must be a nonempty atom list"),
    (["rank-gradient"], {"factors": 2, "indices": [1]}, "{path}: factors must be a list of integers"),
    pytest.param(["cost"], DEEP_GRAPHING, "{path}: JSON nests too deeply", id="cost-deep"),
    pytest.param(["min-cost"], DEEP_RELATION, "{path}: JSON nests too deeply", id="min-cost-deep"),
    pytest.param(["cost"], LONG_INT_GRAPHING, "{path}: an integer literal passes 4300 digits",
                 id="cost-long-int"),
    pytest.param(["min-cost"], LONG_INT_RELATION, "{path}: an integer literal passes 4300 digits",
                 id="min-cost-long-int"),
    # eps must be a list, not anything iterable
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": 5},
                 "{path}: eps must be a list of ratios", id="eps-int"),
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": None},
                 "{path}: eps must be a list of ratios", id="eps-null"),
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": "1"},
                 "{path}: eps must be a list of ratios", id="eps-string"),
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": {"1/2": 0}},
                 "{path}: eps must be a list of ratios", id="eps-object"),
    # the pairs reach the map as they are read, so a duplicate source is found first
    pytest.param(["cost"],
                 {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [[0, 1], [0, 2], [1]]}]},
                 "{path}: map 'a': duplicate source atom 0", id="pairs-duplicate-then-malformed"),
    # a list the bulk check refuses is read again pair by pair, which names the fault
    pytest.param(["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [[True, 1]]}]},
                 "{path}: map 'a' source must be an integer, got True", id="pairs-bool-atom"),
    pytest.param(["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [[0.5, 1]]}]},
                 "{path}: map 'a' source must be an integer, got '0.5'", id="pairs-decimal-atom"),
    pytest.param(["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [[0, 1, 2]]}]},
                 "{path}: map 'a': each pair must be a two-atom list", id="pairs-three-atoms"),
    pytest.param(["cost"], {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [{"0": 1}]}]},
                 "{path}: map 'a': each pair must be a two-atom list", id="pairs-object"),
    pytest.param(["cost"], {"space": {"n": 2000}, "maps": [
        {"name": "a", "pairs": [[x, x] for x in range(1000)] + [[5, 1500]]}]},
                 "{path}: map 'a': duplicate source atom 5", id="pairs-late-duplicate"),
    pytest.param(["min-cost"], {"n": 3, "classes": [[0, "1"]]},
                 "{path}: classes[0] member must be an integer, got '1'", id="classes-string-member"),
])
def test_golden_loader_errors(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, lines = run_error(capsys, argv + [str(path)])
    assert (code, lines) == (1, ["error: " + message.format(path=path)])


ONE_CLASS = {"n": 4, "classes": [[0, 1]]}


@pytest.mark.parametrize("argv, doc, code, line", [
    (["eps-curve", "{path}"], ROTATION_AB, 1, "error: the rotation file must name a full step"),
    (["rotation-demo", "{path}", "--x", "0"], {**ROTATION_AB, "arc": [0, 2]}, 1,
     "error: the rotation file must name a full step"),
    (["eps-curve", "{path}"], {**ROTATION_AB, "full": "a"}, 1,
     "error: the rotation file must list eps values"),
    (["rotation-demo", "{path}", "--x", "0"], {**ROTATION_AB, "full": "a"}, 1,
     "error: give an arc, in the file or with --arc"),
    (["rotation-demo", "{path}", "--x", "0"], {"n": 10, "steps": {"a": 1}, "full": "a", "arc": [0, 2]},
     1,
     "error: no restricted step to demonstrate"),
    (["rank-gradient", "--factors", "2,3"], None, 1,
     "error: give factors and indices, by file or by flag"),
    (["compress", "{path}"], ONE_CLASS, 1, "error: give exactly one of --members or --arc"),
    (["compress", "{path}", "--members", "0", "--arc", "0:1"], ONE_CLASS, 1,
     "error: give exactly one of --members or --arc"),
    # the verbs draw nothing, so no verb takes a --seed and rank-gradient no --samples
    (["schreier-rank", "--factors", "2,3", "--index", "6", "--seed", "5"], None, 2,
     "orbitcost: error: unrecognized arguments: --seed 5"),
    (["brute-min", "{path}", "--edge-budget", "0"], ONE_CLASS, 2,
     "orbitcost brute-min: error: argument --edge-budget: value must be positive"),
    (["schreier-rank", "--factors", "2,x", "--index", "6"], None, 2,
     "orbitcost schreier-rank: error: argument --factors: "
     "factors are a comma-separated order list, got '2,x'"),
    (["rank-gradient", "--factors", "2,3", "--indices", "1:5:0"], None, 2,
     "orbitcost rank-gradient: error: argument --indices: "
     "indices are a comma list or start:stop:step, got '1:5:0'"),
    (["coincidence", "--specs", "2,x"], None, 2,
     "orbitcost coincidence: error: argument --specs: "
     "specs are semicolon-separated factor lists, got '2,x'"),
    (["min-cost", "{path}", "--seed", "5"], ONE_CLASS, 2,
     "orbitcost: error: unrecognized arguments: --seed 5"),
    # the usage surface of every flag converter, pinned line by line
    (["schreier-rank", "--factors", "2,3", "--index", "x"], None, 2,
     "orbitcost schreier-rank: error: argument --index: expected an integer, got 'x'"),
    (["compress-check", "--factors", "2,3", "--index", "0"], None, 2,
     "orbitcost compress-check: error: argument --index: value must be positive"),
    # the 2 is read as the optional schreier file, so only the flag is left over
    (["rank-gradient", "--factors", "2,3", "--indices", "6", "--samples", "2"], None, 2,
     "orbitcost: error: unrecognized arguments: --samples"),
    (["rank-gradient", "{path}", "--samples", "2"], {"factors": [2, 3], "indices": [6]}, 2,
     "orbitcost: error: unrecognized arguments: --samples 2"),
    (["coincidence", "--specs", "2,3", "--max-index", "ten"], None, 2,
     "orbitcost coincidence: error: argument --max-index: expected an integer, got 'ten'"),
    (["coincidence", "--specs", "2,3", "--max-index", "0"], None, 2,
     "orbitcost coincidence: error: argument --max-index: value must be positive"),
    (["invariants", "{path}", "--edge-budget", "x"], ONE_CLASS, 2,
     "orbitcost invariants: error: argument --edge-budget: expected an integer, got 'x'"),
    (["rank-gradient", "--factors", "2,3", "--indices", "1:2:3:4"], None, 2,
     "orbitcost rank-gradient: error: argument --indices: "
     "indices are a comma list or start:stop:step, got '1:2:3:4'"),
    (["rank-gradient", "--factors", "2,3", "--indices", ":"], None, 2,
     "orbitcost rank-gradient: error: argument --indices: "
     "indices are a comma list or start:stop:step, got ':'"),
    (["rank-gradient", "--factors", "2,3", "--indices", "6,,12"], None, 2,
     "orbitcost rank-gradient: error: argument --indices: "
     "indices are a comma list or start:stop:step, got '6,,12'"),
    (["first-return", "{path}", "--members", "0;1"], ONE_CLASS, 2,
     "orbitcost first-return: error: argument --members: "
     "cannot read '0;1' as a comma-separated atom list"),
    (["first-return", "{path}", "--arc", "0:1:2"], ONE_CLASS, 2,
     "orbitcost first-return: error: argument --arc: an arc is written start:length, got '0:1:2'"),
    (["rotation-demo", "{path}", "--x", "0", "--arc", "a:1"], ROTATION_AB, 2,
     "orbitcost rotation-demo: error: argument --arc: an arc is written start:length, got 'a:1'"),
    (["rotation-demo", "{path}", "--x", "q"], ROTATION_AB, 2,
     "orbitcost rotation-demo: error: argument --x: invalid int value: 'q'"),
])
def test_cli_error_lines(capsys, tmp_path, argv, doc, code, line):
    # exit 1 is the one error line of main; exit 2 is argparse's usage text ending in its line
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    try:
        got = main([a.format(path=path) for a in argv])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (got, captured.out) == (code, "")
    assert (lines if code == 1 else lines[-1:]) == [line]


GOLDEN_HELP = json.loads((Path(__file__).parent / "golden_help.json").read_text())
if sys.version_info >= (3, 13):
    # argparse 3.13 counts the subcommand indent in the help column, so the top-level
    # text has its own layout; every verb's text is alike
    GOLDEN_HELP.update(json.loads((Path(__file__).parent / "golden_help_3.13.json").read_text()))


@pytest.mark.parametrize("verb", list(GOLDEN_HELP), ids=lambda verb: verb or "orbitcost")
def test_golden_help(capsys, monkeypatch, verb):
    # argparse wraps help to the terminal width, which it reads from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"] if verb else ["--help"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (0, GOLDEN_HELP[verb], "")


@pytest.mark.parametrize("argv, doc", [
    (["brute-min"], {"n": 12, "classes": [list(range(12))]}),
    (["invariants"], {"space": {"n": 12}, "maps": [{"name": "a", "rotation": 1}]}),
], ids=["brute-min", "invariants"])
def test_edge_budget_past_the_ceiling_is_one_error_line(capsys, tmp_path, monkeypatch, argv, doc):
    # one class of 12 atoms has 66 pairs; scanning them would not end, so the scan raises here
    def no_scan(size):
        raise AssertionError("the exhaustive scan ran")
    monkeypatch.setattr(relcore, "_fewest_connecting_pairs", no_scan)
    path = tmp_path / "one_class.json"
    path.write_text(json.dumps(doc))
    code, lines = run_error(capsys, argv + [str(path), "--edge-budget", "100"])
    assert (code, lines) == (1, ["error: the edge budget is at most 28 pairs, got 100"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_tiny_eps_is_one_error_line(capsys, tmp_path, fmt):
    # the ratio is computed, then refused by render; run_error checks that stdout stays empty
    path = tmp_path / "tiny.json"
    path.write_text('{"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "eps": ["1e-5000"]}')
    code, lines = run_error(capsys, ["eps-curve", str(path), "--format", fmt])
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("digits cannot be printed")


def test_coincidence_above_ten_thousand_atoms(capsys):
    report = run_json(capsys, ["coincidence", "--specs", "10007", "--max-index", "10007"])
    assert report["rows"][0]["modeled_costs"] == "10006/10007"
    assert report["all_match"] is True


def test_lone_torsion_factor_at_another_index_is_one_error_line(capsys):
    code, lines = run_error(capsys, ["rank-gradient", "--factors", "2", "--indices", "4"])
    assert (code, lines) == (1, ["error: no transitive action exists for orders [2] at index 4: "
                                 "a lone order-2 factor acts transitively only at index 2"])


@pytest.mark.parametrize("seed", [-5, 2**64 + 5], ids=["seed-negative", "seed-past-64-bits"])
def test_a_schreier_file_seed_is_ignored(capsys, tmp_path, seed):
    # the table draws nothing, so a file's "seed" is one more unknown key, whatever its value
    path = tmp_path / "s.json"
    outputs = []
    for extra in ({}, {"seed": seed}):
        path.write_text(json.dumps({"factors": [2, 3], "indices": [6, 12], **extra}))
        outputs.append(run(capsys, ["rank-gradient", str(path)]))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_rank_gradient_rejects_empty_indices(capsys, tmp_path):
    code, lines = run_error(capsys, ["rank-gradient", "--factors", "2,3", "--indices", "6:3"])
    assert (code, lines) == (1, ["error: rank gradient needs at least one index"])
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"factors": [2, 3], "indices": []}))
    code, lines = run_error(capsys, ["rank-gradient", str(path)])
    assert (code, lines) == (1, ["error: rank gradient needs at least one index"])


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped_python(args):
    """Run Python with args in a child with 1 GiB of address space; (code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcost.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          preexec_fn=_cap_address_space, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_capped(argv):
    """Run the CLI in a capped child; (code, stdout, stderr)."""
    return run_capped_python(["-m", "orbitcost", *argv])


TRILLION_VIEWS = {"space": {"n": 10**12}, "maps": [
    {"name": "a", "rotation": 1, "domain": "all"},
    {"name": "b", "rotation": 357913, "domain": {"arc": [0, 1000]}},
    {"name": "c", "rotation": 357913, "domain": {"arc": [500, 1000]}}]}
TRILLION_ROTATION = {"n": 10**12, "steps": {"a": 4, "b": 6, "c": 357913}, "full": "a",
                     "eps": ["1/10", "3/1000000000000"]}
# the full step's cosets are the gcd cosets, so no rotation relation is listed or compared
TRILLION_HALF = {"n": 10**12, "steps": {"a": 5 * 10**11, "b": 0}, "full": "a", "eps": ["1/2"]}
TRILLION_ZEROS = {**TRILLION_HALF, "steps": {"a": 0, "b": 0}}
TRILLION_EPS2 = {**TRILLION_HALF, "eps": ["2"]}
HALF_CURVE = ("command: eps-curve\nrows:\n  eps  arc_len       cost  generates\n"
              "  1/2  500000000000  3/2   true\ninfimum: null\n")
TRILLION_RELATION = {"n": 10**12, "classes": []}
TRILLION_PAIRS = {"space": {"n": 10**12}, "maps": [{"name": "a", "pairs": [[0, 1]]}]}
RELATION_CAP_LINE = (f"error: {{relation}}: a relation read from classes has at most "
                     f"{relcore.MAX_RELATION_ATOMS} atoms, got n=1000000000000\n")
INVARIANTS_CHECKS = ("brute_min_cost: null\nchecks:\n  cost_ge_nu: true\n  nu_ge_min_cost: true\n"
                     "  reduced_is_treeing: true\n  reduced_generates: true\n"
                     "  reduced_cost_is_min: true\n  spanning_cost_is_min: true\n"
                     "  transversal_identity: true\nok: true\n")
TRILLION_INVARIANTS = ("command: invariants\ncost: 500000001/500000000\n"
                       "nu: 2000000003/2000000000\nmin_cost: 999999999999/1000000000000\n"
                       "reduced_cost: 999999999999/1000000000000\n" + INVARIANTS_CHECKS)
UNION_FIND_CAP_LINE = (f"error: a union-find or per-atom list holds at most "
                       f"{relcore.MAX_RELATION_ATOMS} atoms, got 1000000000000\n")
WALK_CAP_LINE = (f"error: a cycle walk visits at most {relcore.MAX_RELATION_ATOMS} atoms, "
                 f"got n=1000000000000\n")


TRILLION_ROWS = [
    (["cost", "{views}"], 0, "command: cost\ncost: 500000001/500000000\n"),
    (["nu", "{views}"], 0, "command: nu\nnu: 2000000003/2000000000\n"),
    (["treeing", "{views}"], 0, "command: treeing\nis_treeing: false\n"),
    (["invariants", "{views}"], 0, TRILLION_INVARIANTS),
    (["eps-curve", "{rotation}"], 0,
     "command: eps-curve\nrows:\n"
     "  eps              arc_len       cost                       generates\n"
     "  1/10             100000000000  6/5                        true\n"
     "  3/1000000000000  3             500000000003/500000000000  true\n"
     "infimum: null\n"),
    (["eps-curve", "{half}"], 0, HALF_CURVE),
    (["eps-curve", "{zeros}"], 0, HALF_CURVE),
    (["eps-curve", "{eps2}"], 1, "error: eps must lie in (0, 1], got 2\n"),
    (["rotation-demo", "{rotation}", "--x", "123456789", "--arc", "10:1000"], 0,
     "command: rotation-demo\nstart: 123456789\nend: 123456795\nlength: 499938271613\n"
     "hit: 13\nsegments:\n  step  power  count\n  a     1      249969135806\n"
     "  b     1      1\n  a     -1     249969135806\n"),
    (["gen-check", "{views}", "{relation}"], 1, RELATION_CAP_LINE),
    (["min-cost", "{relation}"], 1, RELATION_CAP_LINE),
    (["single-gen", "{relation}"], 1, RELATION_CAP_LINE),
    (["compress", "{relation}", "--members", "0,1"], 1, RELATION_CAP_LINE),
    (["brute-min", "{relation}"], 1, RELATION_CAP_LINE),
    # a dict graphing has no full view, so its quotient is all n atoms
    (["treeing", "{pairs}"], 1, UNION_FIND_CAP_LINE),
    (["reduce", "{views}"], 1, UNION_FIND_CAP_LINE),
    # a cycle walk may visit all n atoms
    (["first-return", "{views}", "--map", "a", "--arc", "0:10"], 1, WALK_CAP_LINE),
    (["first-return", "{views}", "--map", "a", "--members", "0,5"], 1, WALK_CAP_LINE),
]


@pytest.mark.parametrize("argv, code, expected", TRILLION_ROWS,
                         ids=[argv[0] + ("" if argv[1] in ("{views}", "{rotation}", "{relation}")
                                         else "-" + argv[1].strip("{}"))
                              + ("-" + argv[-2].lstrip("-") if argv[0] == "first-return" else "")
                              for argv, _, _ in TRILLION_ROWS])
def test_trillion_atom_commands_in_bounded_memory(tmp_path, argv, code, expected):
    """Each verb that reads n at n = 10**12 answers (exit 0) or is one error line (exit 1).

    Each row runs as one child under the memory and time limits of run_capped.  The
    views and the rotation answer from their arcs and a Z/p quotient with p | 4, never
    from n entries.  eps-curve checks every eps first and answers by gcd arithmetic:
    with steps 5*10**11 and 0, or 0 and 0, the full step's cosets are already the gcd
    cosets, so no relation is listed.  A relation file is refused before its atoms are
    listed, and a union-find on more than MAX_RELATION_ATOMS atoms (the dict graphing's
    quotient, and reduce's n) before it is allocated, and a cycle walk over more atoms
    than that (first-return) before it starts.  invariants reads its reduction's
    checks from the class count, so it answers on the views.  reduce answers on them
    once it works on the quotient (ROADMAP item 4), and then needs item 9's cap on
    output pairs.
    """
    paths = {}
    for name, doc in (("views", TRILLION_VIEWS), ("rotation", TRILLION_ROTATION),
                      ("half", TRILLION_HALF), ("zeros", TRILLION_ZEROS),
                      ("eps2", TRILLION_EPS2), ("relation", TRILLION_RELATION),
                      ("pairs", TRILLION_PAIRS)):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    expected = expected.format(**paths)
    assert run_capped([a.format(**paths) for a in argv]) == (
        (0, expected, "") if code == 0 else (1, "", expected))


MAXSIZE_VIEW = {"space": {"n": 2**63}, "maps": [{"name": "a", "rotation": 1, "domain": "all"}]}
MAXSIZE_ROTATION = {"n": 2**63, "steps": {"a": 1, "b": 3}, "full": "a", "eps": ["1/2"]}


@pytest.mark.parametrize("argv, code, expected", [
    (["cost", "{view}"], 0, "command: cost\ncost: 1\n"),
    (["treeing", "{view}"], 0, "command: treeing\nis_treeing: false\n"),
    (["eps-curve", "{rotation}"], 0,
     "command: eps-curve\nrows:\n  eps  arc_len              cost  generates\n"
     "  1/2  4611686018427387904  3/2   true\ninfimum: 1\n"),
    (["invariants", "{view}"], 0,
     "command: invariants\ncost: 1\nnu: 1\nmin_cost: 9223372036854775807/9223372036854775808\n"
     "reduced_cost: 9223372036854775807/9223372036854775808\n" + INVARIANTS_CHECKS),
    (["first-return", "{view}", "--members", "0,5"], 1,
     WALK_CAP_LINE.replace("1000000000000", str(2**63))),
], ids=["cost", "treeing", "eps-curve", "invariants", "first-return"])
def test_views_of_sys_maxsize_atoms_are_counted_by_their_arcs(tmp_path, argv, code, expected):
    # len() of a view cannot pass sys.maxsize, so the entries of a view are its arc length
    paths = {"view": write_doc(tmp_path / "view.json", MAXSIZE_VIEW),
             "rotation": write_doc(tmp_path / "rotation.json", MAXSIZE_ROTATION)}
    assert run_capped([a.format(**paths) for a in argv]) == (
        (0, expected, "") if code == 0 else (1, "", expected))


def test_expected_relation_past_the_atom_cap_is_refused_before_listing():
    # g = gcd(10**12, 0) = 10**12 cosets; the child's memory limit stops a regression
    code, out, err = run_capped_python([
        "-c", "from orbitcost import RotationSystem, expected_relation\n"
              "expected_relation(RotationSystem(10**12, {'a': 0}))"])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == ("orbitcost.relcore.ModelError: "
                                  + UNION_FIND_CAP_LINE.removeprefix("error: ").rstrip())


def test_restrict_map_of_a_trillion_atom_view_reads_only_the_subset():
    code, out, err = run_capped_python([
        "-c", "from orbitcost import *\n"
              "n = 10**12\n"
              "space = FiniteSpace(n)\n"
              "g = Graphing(space, [PartialMap('a', space, ShiftMapping(n, 1, 0, n))])\n"
              "print(restrict_map(g, 'a', Subset(space, {0, 5, 999})).maps[0].pairs())"])
    assert (code, out, err) == (0, "[(0, 1), (5, 6), (999, 1000)]\n", "")


ARC_SUBSETS_PAST_MAXSIZE = """
from orbitcost import *
n = 2**63
space = FiniteSpace(n)
a = Subset(space, Arc(0, n))
psi = PartialMap('a', space, ShiftMapping(n, 1, 0, n))
r = Relation(space, [0, 1])
for call in (lambda: first_return_map(psi, a),
             lambda: restrict_map(Graphing(space, [psi]), 'a', a),
             lambda: restrict_relation(r, a),
             lambda: compression_sides(Relation(FiniteSpace(2), [0, 1]), a)):
    try:
        call()
    except ModelError as e:
        print(e)
print(a.measure, n - 1 in a, n in a, *compression_sides(r, a))
trillion = Relation(FiniteSpace(10**12), [0, 1, 0, 3])
print(*compression_sides(trillion, Subset(trillion.space, Arc(5, 10**12))))
try:
    compression_sides(trillion, Subset(trillion.space, Arc(10**12 - 2, 3)))
except ModelError as e:
    print(e)
"""


def test_arc_subsets_past_sys_maxsize_are_read_by_arithmetic():
    # each listing function refuses a 2**63-atom arc by its size, read without len(), and
    # compression_sides reads p atoms of it; the child's memory limit stops a regression
    cap = f"a restricted relation has at most {relcore.MAX_DERIVED_ATOMS} atoms, got {2**63}\n"
    assert run_capped_python(["-c", ARC_SUBSETS_PAST_MAXSIZE]) == (0, cap * 3 + (
        "relation and subset live on different spaces\n"
        "1 True False -1/4611686018427387904 -1/4611686018427387904\n"
        "-3/1000000000000 -3/1000000000000\n"
        "subset misses the class of atom 1\n"), "")


def test_trillion_atom_views_and_relations_compare_by_what_they_store():
    # views compare their fields; relations compare their bases on Z/gcd(p, q), where the
    # lift to lcm(4096, 5**9) = 8 * 10**9 entries runs out of memory
    code, out, err = run_capped_python([
        "-c", "from orbitcost import *\n"
              "n = 10**12\n"
              "print(full_graphing(RotationSystem(n, {'a': 1})) == "
              "full_graphing(RotationSystem(n, {'a': 1})))\n"
              "space = FiniteSpace(n)\n"
              "twos = Relation(space, [0] * 4096)\n"
              "fives = Relation(space, [x % 5 for x in range(5**9)])\n"
              "print(twos == fives, fives == twos)\n"
              "print(twos == Relation(space, [0]), fives == Relation(space, list(range(5))))\n"
              "print(twos == Relation(space, twos.base * 5), fives == Relation(space, fives.base * 2))"])
    assert (code, out, err) == (0, "True\nFalse False\nTrue True\nTrue True\n", "")


TEN_MILLION_ONE_PAIR = {"space": {"n": 10**7}, "maps": [{"name": "a", "pairs": [[1000000, 1000001]]}]}
TEN_MILLION_INVARIANTS = (
    "command: invariants\ncost: 1/10000000\nnu: 1/10000000\nmin_cost: 1/10000000\n"
    "reduced_cost: 1/10000000\nbrute_min_cost: 1/10000000\nchecks:\n  cost_ge_nu: true\n"
    "  nu_ge_min_cost: true\n  reduced_is_treeing: true\n  reduced_generates: true\n"
    "  reduced_cost_is_min: true\n  spanning_cost_is_min: true\n  transversal_identity: true\n"
    "  brute_force_agrees: true\nok: true\n")


@pytest.mark.parametrize("argv, expected", [
    (["invariants", "{pairs}"], TEN_MILLION_INVARIANTS),
    (["gen-check", "{pairs}", "{relation}"], "command: gen-check\ngenerates: false\n"),
], ids=["invariants", "gen-check"])
def test_ten_million_atom_pairs_answer_in_bounded_memory(tmp_path, argv, expected):
    # a dict graphing's quotient is all 10**7 atoms: its union-find holds one n-entry list and
    # canonical() one copy, and two bases of one period compare without a slice
    paths = {"pairs": write_doc(tmp_path / "pairs.json", TEN_MILLION_ONE_PAIR),
             "relation": write_doc(tmp_path / "rel.json", {"n": 10**7, "classes": []})}
    assert run_capped([a.format(**paths) for a in argv]) == (0, expected, "")


def test_eps_past_the_row_cap_is_one_error_line(tmp_path):
    # eps 1 in a file just under the input cap: about 8 * 10**6 values, refused by their count
    # before any is parsed; a row more than the cap is refused alike
    cap = rotation.MAX_CURVE_ROWS
    head = '{"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "eps": ['
    paths = [str(tmp_path / name) for name in ("full.json", "past.json")]
    Path(paths[0]).write_text(head + ",".join(["1"] * ((MAX_INPUT_CHARS - len(head) - 1) // 2))
                              + "]}")
    assert MAX_INPUT_CHARS - 2 <= os.path.getsize(paths[0]) <= MAX_INPUT_CHARS
    Path(paths[1]).write_text(head + ",".join(["1"] * (cap + 1)) + "]}")
    for path in paths:
        assert run_capped(["eps-curve", path]) == (
            1, "", f"error: {path}: an eps curve takes at most {cap} eps values\n")


def test_eps_curve_reads_twenty_thousand_short_rows_from_one_threshold(tmp_path):
    # p = gcd(10**6, 0) = 10**6 against g = 1: 20002 distinct lengths below p, bisected in at
    # most 15 union-finds on Z/p, where one such union-find per row ran past the time limit
    n = 10**6
    eps = [f"{i}/{n}" for i in range(1, 20001)] + [f"{n - 2}/{n}", f"{n - 1}/{n}", "1"]
    path = write_doc(tmp_path / "curve.json",
                     {"n": n, "steps": {"a": n, "b": 1}, "full": "a", "eps": eps})
    code, out, err = run_capped(["eps-curve", path, "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["arc_len"] for row in rows] == [*range(1, 20001), n - 2, n - 1, n]
    assert all(row["generates"] == (row["arc_len"] >= n - 1) for row in rows)


def test_rotation_demo_answers_at_a_208_digit_fibonacci_modulus(capsys, tmp_path):
    # consecutive Fibonacci numbers take the most Euclid levels for their size: about 500
    # here, each two frames deep in a solver that recursed once per level
    n, step = fibonacci(993), fibonacci(992)
    path = write_doc(tmp_path / "fib.json",
                     {"n": n, "steps": {"a": step, "b": 1}, "full": "a", "arc": [0, 1]})
    m = n - pow(step, -1, n)  # 1 + m*step = 0 (mod n)
    assert len(str(n)) == 208
    assert run(capsys, ["rotation-demo", path, "--x", "1"]) == (0, (
        f"command: rotation-demo\nstart: 1\nend: 2\nlength: {2 * m + 1}\nhit: 0\nsegments:\n"
        f"  step  power  count\n  a     1      {m}\n  b     1      1\n  a     -1     {m}\n"))


@pytest.mark.parametrize("argv", [["eps-curve", "{rotation}"],
                                  ["rotation-demo", "{rotation}", "--x", "1"]],
                         ids=["eps-curve", "rotation-demo"])
def test_a_rotation_file_past_the_row_cap_is_refused_before_an_eps_is_read(
        capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(rotation, "MAX_CURVE_ROWS", 3)
    doc = {"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "arc": [0, 2]}
    path = write_doc(tmp_path / "rot.json", {**doc, "eps": ["1/2", "1/5", "x", "1/10"]})
    assert run_error(capsys, [a.format(rotation=path) for a in argv]) == (
        1, [f"error: {path}: an eps curve takes at most 3 eps values"])
    path = write_doc(tmp_path / "rot.json", {**doc, "eps": ["1/2", "1/5", "1/10"]})
    assert main([a.format(rotation=path) for a in argv]) == 0


def test_infinite_dihedral_at_a_million_cosets_in_bounded_memory():
    # (2,2) is drawn as one shuffled cycle, so no attempt cap stops it at any even index
    assert run_capped(["schreier-rank", "--factors", "2,2", "--index", "1000000"]) == (
        0, "command: schreier-rank\nfactors: 2,2\nindex: 1000000\nrank: 1\n", "")


def test_index_range_past_the_row_cap_is_one_error_line():
    # the range is never listed: its length is read from a slice of at most cap + 1 entries;
    # each runs in a child with a memory and a time limit, so a lost cap fails, not hangs
    assert isinstance(cli._indices("1:100000000000:1"), range)
    message = f"error: rank gradient takes at most {schreier.MAX_GRADIENT_ROWS} indices\n"
    for spec in ("1:100000000000:1", "1:" + "9" * 40,
                 ",".join(["6"] * (schreier.MAX_GRADIENT_ROWS + 1))):
        assert run_capped(["rank-gradient", "--factors", "0,0", "--indices", spec]) == (
            1, "", message)


def test_rank_gradient_reports_a_bad_factor_before_the_row_cap():
    assert run_capped(["rank-gradient", "--factors", "1", "--indices", "1:100000000000:1"]) == (
        1, "", "error: factor order 1 must be 0 or at least 2\n")


def test_factor_repricing_at_a_trillion_atoms_in_bounded_memory():
    # one class on 10**12 atoms is priced on its period; a listed relation fails the child at once
    code = "from schreier_oracles import modeled_factor_cost; print(modeled_factor_cost(10**12))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(orbitcost.__file__).parents[1]), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          preexec_fn=_cap_address_space, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "999999999999/1000000000000\n", "")


@pytest.mark.parametrize("doc, message", [
    (DEEP_GRAPHING, "JSON nests too deeply"),
    (LONG_INT_GRAPHING, "an integer literal passes 4300 digits"),
], ids=["deep", "long-int"])
def test_json_past_the_parser_limits_is_one_error_line(tmp_path, doc, message):
    # json raises RecursionError and ValueError here; the loader makes each one error line
    path = tmp_path / "limit.json"
    path.write_text(doc)
    assert run_capped(["cost", str(path)]) == (1, "", f"error: {path}: {message}\n")


FUZZ_CHILD = """
import contextlib, io, json, signal, sys, traceback
from orbitcost.cli import main

def on_alarm(*args):
    raise TimeoutError("the case ran past its alarm")

signal.signal(signal.SIGALRM, on_alarm)
for line in sys.stdin:
    argv, encoding = json.loads(line)
    out, err = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
    signal.alarm(20)
    try:  # main encodes the report to out's buffer, as it does to a process's stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code or 0
        answer = {"code": code, "err": err.getvalue()}
    except Exception:  # a traceback, the alarm or a MemoryError: the case fails
        answer = {"crash": traceback.format_exc()}
    finally:
        signal.alarm(0)
    print(json.dumps(answer), flush=True)
"""


@pytest.fixture(scope="module")
def fuzz_child():
    """One child running main() on each argv line it reads, with the memory cap of run_capped."""
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcost.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-c", FUZZ_CHILD], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=env,
                          preexec_fn=_cap_address_space) as proc:
        yield proc  # leaving the block closes stdin, which ends the child, and waits for it


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


# what a number or a string turns into: huge, negative, bool, float or str
SWAPPED_SCALARS = [10**12, 2**64, 10**40, -1, -10**12, True, False, 0.5, 1e300, "7", "x"]


@st.composite
def mutated_docs(draw, doc):
    """doc after up to three mutations: a scalar swapped, a list truncated or nested, a key
    dropped or renamed to a name an encoding may lack (step names are keys)."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, list):
            node = draw(st.sampled_from([node[:draw(st.integers(0, len(node)))], [node]]))
        elif isinstance(node, dict):
            picked = draw(st.sampled_from(list(node))) if node else None
            name = draw(st.sampled_from([None, "\ud800", "é"]))  # None drops the key
            node = {name if k == picked else k: v for k, v in node.items() if k != picked or name}
        else:
            node = draw(st.sampled_from(SWAPPED_SCALARS))
        if not path:
            doc = node
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = node
    return doc


FLAG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "1000000000000", "x", "", "0:0", "1:2:3", "0,1,1",
                     "2;2", "-5:3", "0:1000000000000", "1:1000000000000"]),
    st.text("0123456789,:;-x", max_size=8))


@st.composite
def fuzzed_commands(draw):
    """A golden argv with its flag values swapped, its flags dropped and its files mutated,
    and the encoding of the stdout it is written to."""
    argv, _ = draw(st.sampled_from(GOLDEN_STDOUT))
    out, files = [], {}
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("--"):  # every golden flag takes a value
            value = next(tokens)
            if draw(st.integers(0, 3)):  # else the flag and its value are dropped
                out += [token, draw(st.one_of(st.just(value), FLAG_VALUES))]
            continue
        if token.startswith("{"):
            name = token.strip("{}")
            files[name] = draw(mutated_docs(GOLDEN_DOCS[name]))
        out.append(token)
    return out, files, draw(st.sampled_from(["utf-8", "ascii"]))


def rotation_with_step(name) -> dict:
    return {"n": 5, "steps": {"a": 1, name: 2}, "full": "a", "arc": [0, 2]}


@settings(max_examples=300, deadline=None)
@given(fuzzed_commands())
@example((["rotation-demo", "{rotation}", "--x", "1"], {"rotation": rotation_with_step("\ud800")},
          "utf-8"))
@example((["rotation-demo", "{rotation}", "--x", "1"], {"rotation": rotation_with_step("é")},
          "ascii"))
def test_fuzzed_verbs_flags_and_files_exit_cleanly(tmp_path_factory, fuzz_child, case):
    """Every verb, with mutated flags and golden files, answers or refuses in one clean way.

    Exit 0 writes nothing to stderr, exit 1 writes one error line and exit 2 is argparse's
    usage text.  A traceback, a run past the alarm or a memory error fails the case.
    """
    argv, docs, encoding = case
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: write_doc(root / f"{name}.json", doc) for name, doc in docs.items()}
    assert_exits_cleanly(fuzz_child, [a.format(**paths) for a in argv], encoding)


def assert_exits_cleanly(fuzz_child, argv, encoding):
    """Run argv in the fuzz child: exit 0 and no stderr, 1 and one error line, or 2 and usage."""
    fuzz_child.stdin.write(json.dumps([argv, encoding]) + "\n")
    fuzz_child.stdin.flush()
    answer = json.loads(fuzz_child.stdout.readline() or '{"crash": "the child died"}')
    assert "crash" not in answer, answer["crash"]
    code, err = answer["code"], answer["err"]
    kind = ("empty" if not err else "usage" if err.startswith("usage: ")
            else "error line" if err.startswith("error: ") and err.count("\n") == 1 else err)
    assert (code, kind) in {(0, "empty"), (1, "error line"), (2, "usage")}


# what a digit run turns into: a float past the double range, an int past 64 bits, or an
# unclosed nesting
DIGIT_RUN_SWAPS = [b"1e400", b"18446744073709551616", b"[[["]


@st.composite
def mutated_bytes(draw, data):
    """data after one to three mutations of its bytes: a bit flipped, the tail cut off, a
    stray 0xff inserted or a digit run replaced."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "cut", "xff", "digits"]))
        runs = list(re.finditer(rb"[0-9]+", data))
        if kind == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1:]
        elif kind == "cut":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "xff":
            i = draw(st.integers(0, len(data)))
            data = data[:i] + b"\xff" + data[i:]
        elif runs:
            run = draw(st.sampled_from(runs))
            data = data[:run.start()] + draw(st.sampled_from(DIGIT_RUN_SWAPS)) + data[run.end():]
    return data


@st.composite
def byte_mutated_commands(draw):
    """A golden argv and the serialized bytes of each file it reads, mutated."""
    argv, _ = draw(st.sampled_from(GOLDEN_STDOUT))
    names = sorted({token.strip("{}") for token in argv if token.startswith("{")})
    return argv, {name: draw(mutated_bytes(json.dumps(GOLDEN_DOCS[name]).encode()))
                  for name in names}


@settings(max_examples=300, deadline=None)
@given(byte_mutated_commands())
def test_fuzzed_file_bytes_exit_cleanly(tmp_path_factory, fuzz_child, case):
    """Every verb on golden files whose raw bytes were mutated answers or refuses in one
    clean way, by the rule of test_fuzzed_verbs_flags_and_files_exit_cleanly."""
    argv, data = case
    root = tmp_path_factory.mktemp("bytes")
    paths = {}
    for name, raw in data.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_bytes(raw)
    assert_exits_cleanly(fuzz_child, [a.format(**paths) for a in argv], "utf-8")


def run_in_shell(argv, redirect="", **env):
    """Run `sh -c 'exec python -m orbitcost ARGV REDIRECT'`, one process; (code, out, err) bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcost.__file__).parents[1]), **env}
    proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                           "orbitcost", *argv], capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# the first golden argv of each verb; every golden answers, so each has a report to write
FIRST_GOLDENS = {argv[0]: argv for argv, _ in reversed(GOLDEN_STDOUT)}


@pytest.mark.parametrize("argv", [*FIRST_GOLDENS.values(), ["cost", "{missing}"]],
                         ids=[*FIRST_GOLDENS, "cost-missing-file"])
def test_a_stdout_closed_at_start_is_one_error_line(golden_files, tmp_path, argv):
    # fd 1 is closed before the interpreter starts, so sys.stdout is None: a report is
    # one write error, and a refusal is its own error line alone
    missing = tmp_path / "missing.json"
    code, out, err = run_in_shell([a.format(missing=missing, **golden_files) for a in argv], ">&-")
    line = (f"error: {missing}: No such file or directory\n" if "{missing}" in argv
            else "error: cannot write the report: Bad file descriptor\n")
    assert (code, out, err) == (1, b"", line.encode())


@pytest.mark.parametrize("name, encoding, shown", [
    ("\ud800", "utf-8:strict", rb"\ud800"),
    ("é", "ascii", rb"\xe9"),
    # surrogateescape wrote this one as the raw byte 0xff; it is escaped like the rest now
    ("\udcff", "utf-8:surrogateescape", rb"\udcff"),
], ids=["lone-surrogate", "e-acute-on-ascii", "escaped-byte"])
def test_a_name_stdout_cannot_encode_prints_its_escape(tmp_path, name, encoding, shown):
    path = write_doc(tmp_path / "rot.json", rotation_with_step(name))
    code, out, err = run_in_shell(["rotation-demo", path, "--x", "1"], PYTHONIOENCODING=encoding)
    assert (code, err) == (0, b"")
    # the step column is as wide as the escape it prints
    width = max(len(b"step"), len(shown))
    assert out == (b"command: rotation-demo\nstart: 1\nend: 3\nlength: 1\nhit: 1\nsegments:\n"
                   b"  " + b"step".ljust(width) + b"  power  count\n  "
                   + shown.ljust(width) + b"  1      1\n")


def test_cli_runs_on_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so an import from outside the stdlib fails here
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "orbitcost", "schreier-rank", "--factors", "2,3",
         "--index", "6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "rank: 2"


@pytest.mark.parametrize("argv, expected", [
    (["schreier-rank", "--factors", "2,3", "--index", "600000000"],
     "command: schreier-rank\nfactors: 2,3\nindex: 600000000\nrank: 100000001\n"),
    (["compress-check", "--factors", "0,0", "--index", "600000000"],
     "command: compress-check\nlhs: 600000000\nrhs: 600000000\nequal: true\n"),
    (["coincidence", "--specs", "0,0", "--max-index", "600000000"],
     "command: coincidence\nrows:\n"
     "  factors  rank  predicted_cost  beta1  index      measured_cost  factor_costs"
     "  modeled_costs  match\n"
     "  0,0      2     2               1      600000000  2              1,1"
     "           1,1            true\n"
     "all_match: true\n"),
], ids=["schreier-rank", "compress-check", "coincidence"])
def test_verbs_past_the_sampler_cap_answer_in_bounded_memory(argv, expected):
    # 600000000 x 2 cosets is 300 times the sampler's cap, and the verbs answer by formula;
    # a draw would build index-sized lists, and the child's memory limit stops that regression
    assert 600_000_000 * 2 > schreier.MAX_SAMPLER_COSETS
    assert run_capped(argv) == (0, expected, "")


def test_relation_file_past_the_atom_cap_is_one_error_line(tmp_path):
    # from_classes would list 10**9 atoms first; the child's memory limit stops a regression
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10**9, "classes": []}))
    assert run_capped(["min-cost", str(path)]) == (
        1, "", f"error: {path}: a relation read from classes has at most "
               f"{relcore.MAX_RELATION_ATOMS} atoms, got n=1000000000\n")


@pytest.mark.parametrize("argv, message", [
    (["single-gen"], "a single full generator is built on at most {cap} atoms, got n={n}"),
], ids=["single-gen"])
def test_derived_map_past_the_atom_cap_is_one_error_line(tmp_path, argv, message):
    # one atom past the cap: the child reads a relation of cap + 1 atoms and derives nothing
    cap = relcore.MAX_DERIVED_ATOMS
    n = cap + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "classes": []}))
    argv = [argv[0], str(path), *(a.format(n=n) for a in argv[1:])]
    assert run_capped(argv) == (1, "", f"error: {message.format(cap=cap, n=n)}\n")


ONE_CLASS_10M = {"n": 10000000, "classes": [[0, 5, 9999999]]}


def test_compress_arc_past_the_derived_cap_answers_in_bounded_memory(tmp_path):
    # the arc stays a view and compression_sides reads its first p atoms, so the one
    # allocation left is the relation file's own, which min-cost on it makes too
    path = write_doc(tmp_path / "one.json", ONE_CLASS_10M)
    assert run_capped(["compress", path, "--arc", "0:10000000"]) == (
        0, "command: compress\nlhs: -4999999/5000000\nrhs: -4999999/5000000\nequal: true\n", "")


def run_unlisted(capsys, tmp_path, monkeypatch, verb, doc):
    """Run verb on doc with --arc 0:6 past a derived cap of 5; iterating any view fails."""
    def no_listing(self):
        raise AssertionError("a view's atoms were listed")
    monkeypatch.setattr(relcore, "MAX_DERIVED_ATOMS", 5)
    monkeypatch.setattr(relcore.ShiftMapping, "__iter__", no_listing)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code = main([verb, str(path), "--arc", "0:6"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compress_arc_past_the_derived_cap_answers_without_listing_its_atoms(
        capsys, tmp_path, monkeypatch):
    # atoms 6..9 join atom 0's class, which the arc 0..5 meets: 6 classes on 6 atoms
    doc = {"n": 10, "classes": [[0, 6, 7, 8, 9]]}
    assert run_unlisted(capsys, tmp_path, monkeypatch, "compress", doc) == (
        0, "command: compress\nlhs: -1\nrhs: -9/25\nequal: false\n", "")


def test_first_return_arc_past_the_cap_is_refused_before_its_atoms_are_listed(
        capsys, tmp_path, monkeypatch):
    # a first-return map generates the relation restricted to the subset, so the same cap holds;
    # it is the first check, so a map that is no permutation still gets the cap line
    capped = (1, "", "error: a restricted relation has at most 5 atoms, got 6\n")
    for domain in ("all", {"arc": [0, 3]}):
        doc = {"space": {"n": 10}, "maps": [{"name": "a", "rotation": 1, "domain": domain}]}
        assert run_unlisted(capsys, tmp_path, monkeypatch, "first-return", doc) == capped


def test_first_return_arc_past_the_cap_is_one_error_line(tmp_path):
    # the view file lists nothing, so only the arc could exhaust the child's memory
    path = tmp_path / "views.json"
    path.write_text(json.dumps({"space": {"n": 10000000}, "maps": [{"name": "a", "rotation": 1}]}))
    cap = relcore.MAX_DERIVED_ATOMS
    assert run_capped(["first-return", str(path), "--arc", f"0:{cap + 1}"]) == (
        1, "", f"error: a restricted relation has at most {cap} atoms, got {cap + 1}\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_input_past_the_character_cap_is_one_error_line(tmp_path):
    # /dev/zero never ends, and the sparse files hold only NUL bytes: the first two are
    # refused after MAX_INPUT_CHARS + 1 characters, before json.loads, and the child's
    # memory limit stops a regression; a file of exactly the cap is read and parsed
    cap = MAX_INPUT_CHARS
    paths = [str(tmp_path / name) for name in ("past.json", "at.json")]
    for path, size in zip(paths, (cap + 1, cap)):
        open(path, "wb").close()
        os.truncate(path, size)
    refusal = "error: {}: an input file holds at most %d characters\n" % cap
    assert run_capped(["cost", "/dev/zero"]) == (1, "", refusal.format("/dev/zero"))
    assert run_capped(["min-cost", paths[0]]) == (1, "", refusal.format(paths[0]))
    assert run_capped(["eps-curve", paths[1]]) == (1, "", f"error: {paths[1]}:1:1: Expecting value\n")


def test_eps_exponent_past_the_bound_is_one_error_line(tmp_path):
    # Fraction would build 10**999999999999 first; the child's memory limit stops a regression
    path = tmp_path / "exp.json"
    path.write_text('{"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "eps": [1e-999999999999]}')
    assert run_capped(["eps-curve", str(path)]) == (
        1, "", "error: cannot read '1e-999999999999' as an exact ratio: "
               "its decimal exponent passes 10000 in size\n")


# sorted(dir(orbitcost)) of a fresh `import orbitcost`: the public names of relcore,
# rotation and schreier, those submodules and unionfind, and the module attributes
PACKAGE_NAMES = [
    "Arc", "CostCurve", "CurveRow", "EdgeBudgetError", "EdgeSet", "FiniteSpace", "Graphing",
    "GroupInvariants", "GroupSpec", "ModelError", "NotInSameCycleError", "PartialMap", "Path",
    "PermAction", "Relation", "RotationSystem", "Segment", "ShiftMapping", "Subset",
    "UnreachableArcError", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__", "__version__", "brute_force_min_cost",
    "coincidence_report", "compression_check", "compression_sides", "connection_path", "cost",
    "cost_epsilon_curve", "derive_seed", "epsilon_graphing", "expected_relation", "factor_cost",
    "first_hitting_time", "first_return_map", "full_graphing", "generated_relation", "generates",
    "group_invariants", "is_treeing", "min_cost", "mix64", "nu", "nu_measure", "orbit_exponent",
    "rank_gradient", "reduce_to_treeing", "relcore", "restrict_map", "restrict_relation",
    "rotation", "sample_free_action", "schreier", "single_full_generator", "spanning_treeing",
    "subgroup_rank", "to_edge_set", "transversal", "unionfind",
]


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcost.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("code", [
    "import orbitcost; print(sorted(dir(orbitcost)))",
    "import orbitcost; orbitcost.cost; print(sorted(set(vars(orbitcost))"
    " - {'_bind', '__getattr__', '__dir__'}))",
    "from orbitcost import *; print(sorted(name for name in dir() if not name.startswith('__')))",
], ids=["dir", "vars-after-lookup", "star-import"])
def test_package_namespace_is_unchanged(code):
    # each in a fresh process: this one has already bound the namespace and imported cli
    names = PACKAGE_NAMES if "import *" not in code else [
        name for name in PACKAGE_NAMES if not name.startswith("__")]
    assert run_child(code).stdout == f"{names}\n"


# python -m orbitcost ARGV, then on the last stderr line the orbitcost submodules it loaded,
# and dataclasses or inspect if it loaded them (their import chain costs every process).
# The CLI ends with os._exit, which skips a finally clause, so the list also prints there.
RUN_MAIN = """
import os, runpy, sys
def report():
    print(sorted(m for m in sys.modules
                 if m.startswith("orbitcost.") or m in ("dataclasses", "inspect")),
          file=sys.stderr, flush=True)
def report_then_exit(code, _exit=os._exit):
    report()
    _exit(code)
os._exit = report_then_exit
sys.argv = ["orbitcost", *sys.argv[1:]]
try:
    runpy.run_module("orbitcost", run_name="__main__", alter_sys=True)
finally:
    report()
"""


@pytest.mark.parametrize("argv, loaded", [
    (["cost", "{small}"], ["cli", "files", "relcore", "unionfind"]),
    (["reduce", "{small}", "--format", "json"], ["cli", "files", "relcore", "unionfind"]),
    (["eps-curve", "{rotation}"], ["cli", "files", "relcore", "rotation", "unionfind"]),
    (["schreier-rank", "--factors", "2,3", "--index", "6"],
     ["cli", "files", "relcore", "schreier", "unionfind"]),
], ids=["cost", "reduce-json", "eps-curve", "schreier-rank"])
def test_a_verb_imports_only_its_own_modules(golden_files, argv, loaded):
    proc = run_child(RUN_MAIN, *[a.format(**golden_files) for a in argv])
    assert proc.stderr.splitlines()[-1] == str([f"orbitcost.{m}" for m in loaded])


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.fractions(),
    st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=5),
    st.lists(st.lists(st.booleans(), min_size=2, max_size=2), max_size=3))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=5))
@example({"graphing": {"maps": [{"pairs": [[x, -x] for x in range(2500)]}]},
          "one_block": [[x, x + 1] for x in range(1024)], "past_a_block": [[0, 1]] * 1025})
def test_json_render_matches_indented_dumps(report):
    expected = json.dumps(report, indent=2, sort_keys=True, default=fmt_rational) + "\n"
    assert cli.render(report, "json") == expected
