"""File schemas: round trips, shorthand expansion, diagnostics."""
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcost import (
    FiniteSpace,
    Graphing,
    ModelError,
    PartialMap,
    Relation,
    ShiftMapping,
    Subset,
    relcore,
)
from orbitcost.cli import main
from orbitcost.files import (
    MAX_DECIMAL_EXPONENT,
    FormatError,
    dump_graphing,
    dump_relation,
    fmt_rational,
    load_graphing,
    load_relation,
    load_rotation,
    load_schreier,
    parse_arc,
    parse_members,
    parse_rational,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


def test_rational_formatting():
    assert fmt_rational(Fraction(3, 4)) == "3/4"
    assert fmt_rational(Fraction(8, 4)) == "2"
    assert fmt_rational(Fraction(-1, 6)) == "-1/6"
    assert fmt_rational(0) == "0"


def test_rational_formatting_refuses_unprintable_ratios():
    with pytest.raises(FormatError, match="cannot be printed"):
        fmt_rational(Fraction(1, 10 ** 5000))


def test_rational_parsing():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("5") == 5
    assert parse_rational("0.125") == Fraction(1, 8)
    with pytest.raises(FormatError):
        parse_rational("seven")
    with pytest.raises(FormatError):
        parse_rational("1/0")


def test_rational_exponent_bound():
    # the bound is checked on the text, so an exponent past it costs nothing
    assert parse_rational(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(1, 10**MAX_DECIMAL_EXPONENT)
    assert parse_rational("2.5E+0_03") == 2500
    for text in (f"1e{MAX_DECIMAL_EXPONENT + 1}", "1e-" + "9" * 5000, " 7E+0000010001 "):
        with pytest.raises(FormatError, match=f"passes {MAX_DECIMAL_EXPONENT} in size$"):
            parse_rational(text)


def test_member_and_arc_flags():
    assert parse_members("3,1,2") == [3, 1, 2]
    assert parse_arc("5:3").start == 5
    with pytest.raises(FormatError):
        parse_members("1,x")
    with pytest.raises(FormatError):
        parse_arc("5")


def test_graphing_round_trip(tmp_path):
    space = FiniteSpace(6)
    g = Graphing(space, [PartialMap("a", space, {0: 1, 4: 5}),
                         PartialMap("b", space, {2: 2})])
    path = write(tmp_path, "g.json", dump_graphing(g))
    again = load_graphing(path)
    assert again == g


def test_rotation_shorthand_expands(tmp_path):
    path = write(tmp_path, "g.json", {
        "space": {"n": 6},
        "maps": [{"name": "a", "rotation": 2, "domain": "all"},
                 {"name": "b", "rotation": 1, "domain": {"arc": [4, 3]}},
                 {"name": "c", "rotation": 5, "domain": [1, 3]}],
    })
    g = load_graphing(path)
    assert g.map_named("a").pairs() == [(0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1)]
    assert g.map_named("b").pairs() == [(0, 1), (4, 5), (5, 0)]
    assert g.map_named("c").pairs() == [(1, 0), (3, 2)]
    assert isinstance(g.map_named("a").mapping, ShiftMapping)
    assert isinstance(g.map_named("b").mapping, ShiftMapping)
    assert type(g.map_named("c").mapping) is dict


@st.composite
def shorthand_graphings(draw):
    """A graphing file of "rotation" maps, plus a nonempty subset for first returns."""
    n = draw(st.integers(1, 12))
    maps = []
    for k in range(draw(st.integers(1, 3))):
        entry = {"name": f"m{k}", "rotation": draw(st.integers(-2 * n, 2 * n))}
        kind = draw(st.sampled_from(["default", "all", "arc", "atoms"]))
        if kind == "all":
            entry["domain"] = "all"
        elif kind == "arc":
            length = draw(st.sampled_from([0, n]) | st.integers(0, n))
            entry["domain"] = {"arc": [draw(st.integers(0, n - 1)), length]}
        elif kind == "atoms":
            entry["domain"] = draw(st.lists(st.integers(0, n - 1), unique=True))
        maps.append(entry)
    members = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return {"space": {"n": n}, "maps": maps}, sorted(members)


def explicit_twin(doc):
    """The same graphing with every map written out as explicit pairs."""
    n = doc["space"]["n"]
    maps = []
    for entry in doc["maps"]:
        domain = entry.get("domain", "all")
        if domain == "all":
            sources = range(n)
        elif isinstance(domain, dict):
            start, length = domain["arc"]
            sources = [(start + i) % n for i in range(length)]
        else:
            sources = domain
        maps.append({"name": entry["name"],
                     "pairs": [[x, (x + entry["rotation"]) % n] for x in sources]})
    return {"space": doc["space"], "maps": maps}


def outcome(f):
    try:
        return f()
    except ModelError as e:
        return f"error: {e}"


def cli_outcome(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + [path])
    return code, out.getvalue(), err.getvalue().replace(path, "FILE")


@settings(max_examples=60, deadline=None)
@given(shorthand_graphings())
@example(({"space": {"n": 6}, "maps": [
    {"name": "m0", "rotation": -1, "domain": "all"},
    {"name": "m1", "rotation": 7, "domain": {"arc": [4, 3]}},
    {"name": "m2", "rotation": 2, "domain": {"arc": [2, 0]}}]}, [0, 3, 5]))
@example(({"space": {"n": 5}, "maps": [
    {"name": "m0", "rotation": 2, "domain": {"arc": [3, 5]}},
    {"name": "m1", "rotation": -6, "domain": [4, 0, 2]},
    {"name": "m2", "rotation": 5}]}, [1, 2]))
@example(({"space": {"n": 1}, "maps": [{"name": "m0", "rotation": 3, "domain": "all"}]}, [0]))
def test_rotation_shorthand_matches_explicit_pairs(case):
    doc, members = case
    with tempfile.TemporaryDirectory() as tmp:
        short = write(Path(tmp), "short.json", doc)
        pairs = write(Path(tmp), "pairs.json", explicit_twin(doc))
        g, h = load_graphing(short), load_graphing(pairs)
        assert [m.pairs() for m in g.maps] == [m.pairs() for m in h.maps]
        assert relcore.cost(g) == relcore.cost(h)
        assert (relcore.nu_measure(relcore.to_edge_set(g))
                == relcore.nu_measure(relcore.to_edge_set(h)))
        assert relcore.generated_relation(g).parent == relcore.generated_relation(h).parent
        assert relcore.is_treeing(g) == relcore.is_treeing(h)
        assert (dump_graphing(relcore.reduce_to_treeing(g))
                == dump_graphing(relcore.reduce_to_treeing(h)))
        subset = Subset(g.space, frozenset(members))
        for m, twin in zip(g.maps, h.maps):
            ours = outcome(lambda: relcore.first_return_map(m, subset).pairs())
            assert ours == outcome(lambda: relcore.first_return_map(twin, subset).pairs())
        flags = ["--members", ",".join(map(str, members))]
        for argv in (["cost"], ["nu"], ["treeing"], ["reduce"], ["invariants"],
                     ["invariants", "--format", "json"], ["reduce", "--format", "json"],
                     ["first-return", "--map", "m0"] + flags, ["first-return"] + flags):
            assert cli_outcome(argv, short) == cli_outcome(argv, pairs)


def test_graphing_diagnostics_name_map_and_atom(tmp_path):
    path = write(tmp_path, "g.json", {
        "space": {"n": 4},
        "maps": [{"name": "a", "pairs": [[0, 1], [0, 2]]}],
    })
    with pytest.raises(FormatError, match="map 'a': duplicate source atom 0"):
        load_graphing(path)


def test_graphing_rejects_pair_and_rotation_together(tmp_path):
    path = write(tmp_path, "g.json", {
        "space": {"n": 4},
        "maps": [{"name": "a", "pairs": [[0, 1]], "rotation": 1}],
    })
    with pytest.raises(FormatError, match="exactly one of"):
        load_graphing(path)


def test_malformed_json_reports_position(tmp_path):
    path = write(tmp_path, "bad.json", '{"space": {"n": 4}\n "maps": []}')
    with pytest.raises(FormatError, match=r"bad\.json:2:2"):
        load_graphing(path)


def test_missing_file_is_a_domain_error():
    with pytest.raises(FormatError):
        load_graphing("/nonexistent/g.json")


def test_relation_round_trip_and_singletons(tmp_path):
    path = write(tmp_path, "r.json", {"n": 5, "classes": [[4, 0]]})
    r = load_relation(path)
    assert r.classes() == [[0, 4], [1], [2], [3]]
    assert dump_relation(r) == {"n": 5, "classes": [[0, 4], [1], [2], [3]]}


def test_relation_rejects_overlap(tmp_path):
    path = write(tmp_path, "r.json", {"n": 4, "classes": [[0, 1], [1, 2]]})
    with pytest.raises(FormatError, match="two classes"):
        load_relation(path)


def test_rotation_doc_floats_stay_decimal(tmp_path):
    path = write(tmp_path, "rot.json", {
        "n": 1000, "steps": {"a": 1, "b": 357}, "full": "a",
        "eps": [0.001, "1/10", 1],
    })
    doc = load_rotation(path)
    assert doc.eps == [Fraction(1, 1000), Fraction(1, 10), Fraction(1)]
    assert doc.system.steps == {"a": 1, "b": 357}
    assert doc.full == "a"


def test_rotation_doc_validates_full_and_arc(tmp_path):
    path = write(tmp_path, "rot.json", {"n": 10, "steps": {"a": 1}, "full": "zz"})
    with pytest.raises(FormatError, match="full must name"):
        load_rotation(path)
    path = write(tmp_path, "rot2.json", {"n": 10, "steps": {"a": 1}, "arc": [11, 1]})
    with pytest.raises(FormatError):
        load_rotation(path)


def test_schreier_doc(tmp_path):
    path = write(tmp_path, "s.json", {"factors": [2, 3], "indices": [6, 12], "seed": 42})
    doc = load_schreier(path)
    assert doc.factors == (2, 3)
    assert doc.indices == [6, 12]
    assert doc.seed == 42
    path = write(tmp_path, "s2.json", {"factors": [0], "indices": [1]})
    assert load_schreier(path).seed is None


def test_booleans_are_not_integers(tmp_path):
    path = write(tmp_path, "r.json", {"n": True, "classes": []})
    with pytest.raises(FormatError, match="must be an integer"):
        load_relation(path)
