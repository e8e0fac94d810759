"""JSON readers and writers for graphings, relations and rotation systems.

Quantities that carry measure-theoretic meaning travel as exact ratio
strings: "p/q" in lowest terms, with the "/q" dropped when q is 1.  Floats
in input files are read as their decimal text, never as binary floats.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import chain

from .relcore import (MAX_DECIMAL_EXPONENT, Arc, FiniteSpace, FormatError,  # noqa: F401
                      Graphing, ModelError, PartialMap, Relation, ShiftMapping,
                      _Record, parse_rational)

# Characters read from one input: the worst verb on the largest file peaks under 1 GiB.
MAX_INPUT_CHARS = 16_000_000


def fmt_rational(value) -> str:
    f = Fraction(value)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # str() of an int refuses more than sys.get_int_max_str_digits() digits
        raise FormatError("a ratio whose numerator or denominator passes "
                          f"{sys.get_int_max_str_digits()} digits cannot be printed") from None


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:  # read(k) sizes its buffer by k: the size bounds k
            text = fh.read(min(os.path.getsize(path) or MAX_INPUT_CHARS, MAX_INPUT_CHARS) + 1)
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not valid UTF-8 ({e.reason})") from None
    if len(text) > MAX_INPUT_CHARS:
        raise FormatError(f"{path}: an input file holds at most {MAX_INPUT_CHARS} characters")
    try:
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nests too deeply") from None
    except ValueError:  # json.loads raises no other: an int past sys.get_int_max_str_digits()
        raise FormatError(f"{path}: an integer literal passes "
                          f"{sys.get_int_max_str_digits()} digits") from None


def _load(path: str, build):
    """Parse the JSON file at path with build, prefixing schema errors with the path."""
    doc = _load_json(path)
    try:
        return build(doc)
    except FormatError:
        raise
    except ModelError as e:
        raise FormatError(f"{path}: {e}") from None


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return value


def _expect(doc: dict, key: str, what: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ModelError(f"missing {key!r} ({what})")
    return doc[key]


def load_graphing(path: str) -> Graphing:
    """Read a graphing file; see the README for the schema."""
    return _load(path, _build_graphing)


def _build_graphing(doc) -> Graphing:
    space_doc = _expect(doc, "space", "an object holding n")
    n = _as_int(_expect(space_doc, "n", "the atom count"), "space.n")
    space = FiniteSpace(n)
    entries = _expect(doc, "maps", "a list of map objects")
    if not isinstance(entries, list):
        raise ModelError("maps must be a list")
    maps = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ModelError(f"maps[{k}] must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ModelError(f"maps[{k}] needs a nonempty name")
        if ("pairs" in entry) == ("rotation" in entry):
            raise ModelError(f"map {name!r} needs exactly one of pairs or rotation")
        if "pairs" in entry:
            maps.append(_pairs_map(name, space, entry["pairs"]))
        else:
            s = _as_int(entry["rotation"], f"map {name!r} rotation")
            maps.append(_rotation_map(name, space, s, entry.get("domain", "all")))
    return Graphing(space, maps)


def int_lists(raw) -> bool:
    """raw is a nonempty list of nonempty lists of exact ints (so no bool), checked in bulk."""
    return (type(raw) is list and set(map(type, raw)) == {list} and all(raw)
            and set(map(type, chain.from_iterable(raw))) == {int})


def int_pairs(raw) -> bool:
    """raw is a nonempty list of [int, int] lists, checked in bulk."""
    return int_lists(raw) and set(map(len, raw)) == {2}


def _pairs_map(name: str, space: FiniteSpace, raw) -> PartialMap:
    """A pairs list as a map: built by dict() when the list is clean, else pair by pair.

    A fault of the list itself (a bad pair, a duplicate source) is reported by the
    per-pair loop alone, so its message names the first faulty pair.
    """
    if int_pairs(raw):
        mapping = dict(raw)
        if len(mapping) == len(raw):
            return PartialMap(name, space, mapping)
    return PartialMap.from_pairs(name, space, _read_pairs(raw, name))


def _read_pairs(raw, name: str):
    """Yield each (source, target) pair of a pairs list once it is checked."""
    if not isinstance(raw, list):
        raise ModelError(f"map {name!r}: pairs must be a list")
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ModelError(f"map {name!r}: each pair must be a two-atom list")
        yield _as_int(item[0], f"map {name!r} source"), _as_int(item[1], f"map {name!r} target")


def _rotation_map(name: str, space: FiniteSpace, s: int, domain) -> PartialMap:
    n = space.n
    if domain == "all":
        return PartialMap(name, space, ShiftMapping(n, s, 0, n))
    if isinstance(domain, dict) and "arc" in domain:
        start, length = _read_arc(domain["arc"],
                                  f"map {name!r}: an arc domain is a [start, length] pair")
        return PartialMap(name, space, ShiftMapping(n, s, start, length))
    if isinstance(domain, list):
        sources = [_as_int(x, f"map {name!r} domain atom") for x in domain]
        return PartialMap.from_pairs(name, space, ((x, (x + s) % n) for x in sources))
    raise ModelError(f'map {name!r}: domain must be "all", an arc object or an atom list')


def _read_arc(raw, shape_error: str) -> tuple[int, int]:
    """A JSON [start, length] pair of ints, unchecked against n; shape_error names the field."""
    if not isinstance(raw, list) or len(raw) != 2:
        raise ModelError(shape_error)
    return _as_int(raw[0], "arc start"), _as_int(raw[1], "arc length")


def dump_graphing(g: Graphing) -> dict:
    """Schema form with explicit pairs; shorthand is an input convenience only."""
    return {"space": {"n": g.space.n}, "maps": [dump_map(m) for m in g.maps]}


def dump_map(m: PartialMap) -> dict:
    mapping = m.mapping
    return {"name": m.name, "pairs": [[x, mapping[x]] for x in sorted(mapping)]}


def load_relation(path: str) -> Relation:
    """Read {"n": N, "classes": [[...], ...]}; unlisted atoms become singletons."""
    return _load(path, _build_relation)


def _build_relation(doc) -> Relation:
    n = _as_int(_expect(doc, "n", "the atom count"), "n")
    raw = _expect(doc, "classes", "a list of atom lists")
    if not isinstance(raw, list):
        raise ModelError("classes must be a list of atom lists")
    if not int_lists(raw):  # the per-class loop names the first fault
        for k, group in enumerate(raw):
            if not isinstance(group, list) or not group:
                raise ModelError(f"classes[{k}] must be a nonempty atom list")
            for x in group:
                _as_int(x, f"classes[{k}] member")
    return Relation.from_classes(FiniteSpace(n), raw)


def dump_relation(r: Relation) -> dict:
    return {"n": r.space.n, "classes": r.classes()}


class SchreierDoc(_Record):
    """A parsed group-spec file: factor orders and indices."""

    _fields = ("factors", "indices")


def load_schreier(path: str) -> SchreierDoc:
    """Read {"factors": [...], "indices": [...]}; other keys are ignored."""
    return _load(path, _build_schreier)


def _build_schreier(doc) -> SchreierDoc:
    raw_factors = _expect(doc, "factors", "a list of factor orders")
    if not isinstance(raw_factors, list):
        raise ModelError("factors must be a list of integers")
    factors = tuple(_as_int(m, "factor order") for m in raw_factors)
    raw_indices = _expect(doc, "indices", "a list of indices")
    if not isinstance(raw_indices, list):
        raise ModelError("indices must be a list of integers")
    indices = [_as_int(i, "index") for i in raw_indices]
    return SchreierDoc(factors, indices)


class RotationDoc(_Record):
    """A parsed rotation file: the system plus its optional trimmings."""

    _fields = ("system", "full", "eps", "arc")


def load_rotation(path: str) -> RotationDoc:
    """Read {"n": ..., "steps": {...}, "full": ..., "eps": [...], "arc": [...]}."""
    return _load(path, _build_rotation)


def _build_rotation(doc) -> RotationDoc:
    from .rotation import RotationSystem, _curve_eps
    n = _as_int(_expect(doc, "n", "the atom count"), "n")
    steps_doc = _expect(doc, "steps", "an object of named step sizes")
    if not isinstance(steps_doc, dict) or not steps_doc:
        raise ModelError("steps must be a nonempty object of named integers")
    steps = {name: _as_int(s, f"step {name!r}") for name, s in steps_doc.items()}
    system = RotationSystem(n, steps)
    full = doc.get("full")
    if full is not None:
        if not isinstance(full, str) or full not in steps:
            raise ModelError(f"full must name one of the steps, got {full!r}")
    eps = doc.get("eps", [])
    if not isinstance(eps, list):
        raise ModelError("eps must be a list of ratios")
    eps = [parse_rational(v) for v in _curve_eps(eps)]
    arc = None
    if "arc" in doc:
        arc = Arc(*_read_arc(doc["arc"], "arc must be a [start, length] pair"))
        arc.check(n)
    return RotationDoc(system, full, eps, arc)
