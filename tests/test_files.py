"""File schemas: round trips, shorthand expansion, diagnostics."""
import json
from fractions import Fraction

import pytest

from orbitcost import FiniteSpace, Graphing, PartialMap, Relation
from orbitcost.files import (
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
