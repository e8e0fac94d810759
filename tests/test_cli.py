"""Command line: one smoke per verb, exit codes, byte-stable reports."""
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcost
from orbitcost import cli, relcore, schreier
from orbitcost.cli import main


@pytest.fixture
def graphing_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "space": {"n": 10},
        "maps": [{"name": "a", "rotation": 1, "domain": "all"},
                 {"name": "b", "rotation": 3, "domain": {"arc": [0, 2]}}],
    }))
    return str(path)


@pytest.fixture
def relation_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"n": 10, "classes": [[0, 1, 2, 3], [4, 5, 6]]}))
    return str(path)


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({
        "n": 1000, "steps": {"a": 1, "b": 357}, "full": "a",
        "eps": ["1/10", "1/100", "1/1000"], "arc": [0, 10],
    }))
    return str(path)


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
    report = run_json(capsys, ["schreier-rank", "--factors", "2,3",
                               "--index", "6", "--seed", "42"])
    assert report["rank"] == 2


def test_rank_gradient_inline(capsys):
    report = run_json(capsys, ["rank-gradient", "--factors", "2,3",
                               "--indices", "6:36:6", "--seed", "1"])
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
    report = run_json(capsys, ["coincidence", "--specs", "2,3;0,0;2,2", "--seed", "2"])
    rows = {row["factors"]: row for row in report["rows"]}
    assert rows["2,3"]["measured_cost"] == "7/6"
    assert rows["2,3"]["modeled_costs"] == "1/2,2/3"
    assert report["all_match"] is True


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
        ["rank-gradient", "--factors", "2,3", "--indices", "6:24:6", "--seed", "5"],
        ["coincidence", "--specs", "2,3;0,0", "--seed", "3"],
    ]
    for argv in invocations:
        for fmt in ("text", "json"):
            first = run(capsys, argv + ["--format", fmt])
            second = run(capsys, argv + ["--format", fmt])
            assert first == second
            assert first[0] == 0


def test_subprocess_matches_in_process(capsys, tmp_path):
    argv = ["rank-gradient", "--factors", "2,3", "--indices", "6:24:6",
            "--seed", "7", "--format", "json"]
    _, inner = run(capsys, argv)
    proc = subprocess.run([sys.executable, "-m", "orbitcost"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == inner


# Exact reports pinned from the previous release, so a byte change between
# versions fails here and not only between two runs of the same code.
GOLDEN_STDOUT = [
    (["coincidence", "--specs", "2,3;0,0;2,2", "--seed", "2"], """\
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
    (["rank-gradient", "--factors", "2,3", "--indices", "6:18:6", "--seed", "5"], """\
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
    (["schreier-rank", "--factors", "0,0,2", "--index", "8", "--seed", "11"], """\
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
    (["compress-check", "--factors", "2,3", "--index", "6", "--seed", "1"], """\
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
    (["schreier-rank", "--factors", "2,3", "--index", "6", "--seed", "4", "--format", "json"], """\
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
def golden_files(tmp_path, graphing_file, rotation_file):
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"space": {"n": 6}, "maps": [
        {"name": "a", "pairs": [[0, 1], [1, 2]]}, {"name": "b", "pairs": [[3, 4], [2, 0]]}]}))
    relation = tmp_path / "r5.json"
    relation.write_text(json.dumps({"n": 5, "classes": [[0, 3, 1]]}))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"space": {"n": 12}, "maps": [
        {"name": "a", "rotation": 8, "domain": "all"},
        {"name": "b", "pairs": [[1, 6], [5, 5], [3, 2]]}]}))
    mixed_classes = tmp_path / "mixed_classes.json"
    mixed_classes.write_text(json.dumps(
        {"n": 12, "classes": [[0, 4, 8], [1, 2, 3, 5, 6, 7, 9, 10, 11]]}))
    one_class = tmp_path / "one_class.json"
    one_class.write_text(json.dumps({"n": 12, "classes": [list(range(12))]}))
    schreier_doc = tmp_path / "schreier.json"
    schreier_doc.write_text(json.dumps({"factors": [2, 3], "indices": [6, 12], "seed": 3}))
    return {"small": str(small), "graphing": graphing_file,
            "rotation": rotation_file, "relation": str(relation), "mixed": str(mixed),
            "mixed_classes": str(mixed_classes), "one_class": str(one_class),
            "schreier": str(schreier_doc)}


@pytest.mark.parametrize("argv, expected", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, golden_files, argv, expected):
    code = main([a.format(**golden_files) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


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
    # eps must be a list, not anything iterable; a file seed obeys the --seed rule
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": 5},
                 "{path}: eps must be a list of ratios", id="eps-int"),
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": None},
                 "{path}: eps must be a list of ratios", id="eps-null"),
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": "1"},
                 "{path}: eps must be a list of ratios", id="eps-string"),
    pytest.param(["eps-curve"], {**ROTATION_AB, "full": "a", "eps": {"1/2": 0}},
                 "{path}: eps must be a list of ratios", id="eps-object"),
    pytest.param(["rank-gradient"], {"factors": [2, 3], "indices": [6], "seed": -5},
                 "{path}: seed must fit in 64 unsigned bits", id="seed-negative"),
    pytest.param(["rank-gradient"], {"factors": [2, 3], "indices": [6], "seed": 2**64 + 5},
                 "{path}: seed must fit in 64 unsigned bits", id="seed-past-64-bits"),
    # the pairs reach the map as they are read, so a duplicate source is found first
    pytest.param(["cost"],
                 {"space": {"n": 3}, "maps": [{"name": "a", "pairs": [[0, 1], [0, 2], [1]]}]},
                 "{path}: map 'a': duplicate source atom 0", id="pairs-duplicate-then-malformed"),
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
    (["schreier-rank", "--factors", "2,3", "--index", "6", "--seed", "x"], None, 2,
     "orbitcost schreier-rank: error: argument --seed: seed must be an integer, got 'x'"),
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
    (["schreier-rank", "--factors", "2,3", "--index", "6", "--seed", str(2**64 + 5)], None, 2,
     "orbitcost schreier-rank: error: argument --seed: seed must fit in 64 unsigned bits"),
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


def test_rank_gradient_rejects_empty_indices(capsys, tmp_path):
    code, lines = run_error(capsys, ["rank-gradient", "--factors", "2,3", "--indices", "6:3"])
    assert (code, lines) == (1, ["error: rank gradient needs at least one index"])
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"factors": [2, 3], "indices": []}))
    code, lines = run_error(capsys, ["rank-gradient", str(path)])
    assert (code, lines) == (1, ["error: rank gradient needs at least one index"])


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(argv):
    """Run the CLI in a child process with 1 GiB of address space; (code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcost.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "orbitcost", *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=_cap_address_space, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_treeing_at_a_trillion_atoms_in_bounded_memory(tmp_path):
    # a full coprime view makes the quotient one atom, so 1 GiB of address space is plenty
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"space": {"n": 10**12}, "maps": [
        {"name": "a", "rotation": 1, "domain": "all"},
        {"name": "b", "rotation": 357913, "domain": {"arc": [0, 1000]}}]}))
    assert run_capped(["treeing", str(path)]) == (0, "command: treeing\nis_treeing: false\n", "")


TRILLION_VIEWS = {"space": {"n": 10**12}, "maps": [
    {"name": "a", "rotation": 1, "domain": "all"},
    {"name": "b", "rotation": 357913, "domain": {"arc": [0, 1000]}},
    {"name": "c", "rotation": 357913, "domain": {"arc": [500, 1000]}}]}
TRILLION_ROTATION = {"n": 10**12, "steps": {"a": 4, "b": 6, "c": 357913}, "full": "a",
                     "eps": ["1/10", "3/1000000000000"]}


@pytest.mark.parametrize("argv, doc, expected", [
    (["cost"], TRILLION_VIEWS, "command: cost\ncost: 500000001/500000000\n"),
    (["nu"], TRILLION_VIEWS, "command: nu\nnu: 2000000003/2000000000\n"),
    (["eps-curve"], TRILLION_ROTATION,
     "command: eps-curve\nrows:\n"
     "  eps              arc_len       cost                       generates\n"
     "  1/10             100000000000  6/5                        true\n"
     "  3/1000000000000  3             500000000003/500000000000  true\n"
     "infimum: null\n"),
], ids=["cost", "nu", "eps-curve"])
def test_trillion_atom_commands_in_bounded_memory(tmp_path, argv, doc, expected):
    # the treeing case is the test above; every answer here comes from the views and a
    # Z/p quotient with p | 4, never from n entries
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run_capped(argv + [str(path)]) == (0, expected, "")


def test_index_range_past_the_row_cap_is_one_error_line():
    # the range is never listed: its length is read from a slice of at most cap + 1 entries;
    # each runs in a child with a memory and a time limit, so a lost cap fails, not hangs
    assert isinstance(cli._indices("1:100000000000:1"), range)
    message = (f"error: rank gradient samples at most {schreier.MAX_GRADIENT_ROWS} rows "
               "(indices times samples)\n")
    for flags in (["--indices", "1:100000000000:1"], ["--indices", "1:" + "9" * 40],
                  ["--indices", "6,12", "--samples", str(schreier.MAX_GRADIENT_ROWS)]):
        assert run_capped(["rank-gradient", "--factors", "0,0", *flags]) == (1, "", message)


def test_rank_gradient_reports_a_bad_factor_before_the_row_cap():
    assert run_capped(["rank-gradient", "--factors", "1", "--indices", "1:100000000000:1"]) == (
        1, "", "error: factor order 1 must be 0 or at least 2\n")


def test_factor_repricing_at_a_trillion_atoms_in_bounded_memory():
    # one class on 10**12 atoms is priced on its period; a listed relation fails the child at once
    code = ("from orbitcost.schreier import _modeled_factor_cost; "
            "print(_modeled_factor_cost(10**12))")
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcost.__file__).parents[1])}
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


def test_cli_runs_on_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so an import from outside the stdlib fails here
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "orbitcost", "schreier-rank", "--factors", "2,3",
         "--index", "6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "rank: 2"


@pytest.mark.parametrize("argv", [
    ["schreier-rank", "--factors", "2,3", "--index", "600000000"],
    ["compress-check", "--factors", "0,0", "--index", "600000000"],
    ["coincidence", "--specs", "0,0", "--max-index", "600000000"],
], ids=["schreier-rank", "compress-check", "coincidence"])
def test_sampler_past_the_coset_cap_is_one_error_line(argv):
    # each draw would build index-sized lists; the child's memory limit stops a regression
    assert run_capped(argv) == (
        1, "", f"error: the sampler draws at most {schreier.MAX_SAMPLER_COSETS} cosets "
               "(index times factors), got 600000000 x 2\n")


def test_relation_file_past_the_atom_cap_is_one_error_line(tmp_path):
    # from_classes would list 10**9 atoms first; the child's memory limit stops a regression
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10**9, "classes": []}))
    assert run_capped(["min-cost", str(path)]) == (
        1, "", f"error: {path}: a relation read from classes has at most "
               f"{relcore.MAX_RELATION_ATOMS} atoms, got n=1000000000\n")


def test_eps_exponent_past_the_bound_is_one_error_line(tmp_path):
    # Fraction would build 10**999999999999 first; the child's memory limit stops a regression
    path = tmp_path / "exp.json"
    path.write_text('{"n": 10, "steps": {"a": 1, "b": 3}, "full": "a", "eps": [1e-999999999999]}')
    assert run_capped(["eps-curve", str(path)]) == (
        1, "", "error: cannot read '1e-999999999999' as an exact ratio: "
               "its decimal exponent passes 10000 in size\n")
