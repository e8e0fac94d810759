"""JSON readers and writers for graphings, relations and rotation systems.

Quantities that carry measure-theoretic meaning travel as exact ratio
strings: "p/q" in lowest terms, with the "/q" dropped when q is 1.  Floats
in input files are read as their decimal text, never as binary floats.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .relcore import (MAX_DECIMAL_EXPONENT, Arc, FiniteSpace, FormatError,  # noqa: F401
                      Graphing, ModelError, PartialMap, Relation, ShiftMapping, Subset,
                      parse_rational)
from .rotation import RotationSystem


def fmt_rational(value) -> str:
    f = Fraction(value)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # str() of an int refuses more than sys.get_int_max_str_digits() digits
        raise FormatError("a ratio whose numerator or denominator passes "
                          f"{sys.get_int_max_str_digits()} digits cannot be printed") from None


def parse_members(text: str) -> list[int]:
    """Comma-separated atom list, as used by --members."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise FormatError(f"cannot read {text!r} as a comma-separated atom list") from None


def parse_arc(text: str) -> Arc:
    """start:length, as used by --arc."""
    parts = text.split(":")
    if len(parts) != 2:
        raise FormatError(f"an arc is written start:length, got {text!r}")
    try:
        return Arc(int(parts[0]), int(parts[1]))
    except ValueError:
        raise FormatError(f"an arc is written start:length, got {text!r}") from None


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not valid UTF-8 ({e.reason})") from None
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


def _as_seed(value) -> int:
    """A master seed, from --seed or a Schreier file: an integer in [0, 2**64)."""
    if not 0 <= _as_int(value, "seed") < 1 << 64:
        raise ModelError("seed must fit in 64 unsigned bits")
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
            maps.append(PartialMap.from_pairs(name, space, _read_pairs(entry["pairs"], name)))
        else:
            s = _as_int(entry["rotation"], f"map {name!r} rotation")
            maps.append(_rotation_map(name, space, s, entry.get("domain", "all")))
    return Graphing(space, maps)


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
    return {"name": m.name, "pairs": [[x, y] for x, y in m.pairs()]}


def load_relation(path: str) -> Relation:
    """Read {"n": N, "classes": [[...], ...]}; unlisted atoms become singletons."""
    return _load(path, _build_relation)


def _build_relation(doc) -> Relation:
    n = _as_int(_expect(doc, "n", "the atom count"), "n")
    raw = _expect(doc, "classes", "a list of atom lists")
    if not isinstance(raw, list):
        raise ModelError("classes must be a list of atom lists")
    groups = []
    for k, group in enumerate(raw):
        if not isinstance(group, list) or not group:
            raise ModelError(f"classes[{k}] must be a nonempty atom list")
        groups.append([_as_int(x, f"classes[{k}] member") for x in group])
    return Relation.from_classes(FiniteSpace(n), groups)


def dump_relation(r: Relation) -> dict:
    return {"n": r.space.n, "classes": r.classes()}


def make_subset(space: FiniteSpace, members: list[int] | None, arc: Arc | None) -> Subset:
    """Resolve the --members / --arc pair of flags into a subset."""
    if (members is None) == (arc is None):
        raise ModelError("give exactly one of --members or --arc")
    if members is not None:
        return Subset(space, frozenset(members))
    return arc.subset(space)


@dataclass
class SchreierDoc:
    """A parsed group-spec file: factor orders, indices and an optional seed."""

    factors: tuple[int, ...]
    indices: list[int]
    seed: int | None


def load_schreier(path: str) -> SchreierDoc:
    """Read {"factors": [...], "indices": [...], "seed": ...}."""
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
    seed = _as_seed(doc["seed"]) if "seed" in doc else None
    return SchreierDoc(factors, indices, seed)


@dataclass
class RotationDoc:
    """A parsed rotation file: the system plus its optional trimmings."""

    system: RotationSystem
    full: str | None
    eps: list[Fraction]
    arc: Arc | None


def load_rotation(path: str) -> RotationDoc:
    """Read {"n": ..., "steps": {...}, "full": ..., "eps": [...], "arc": [...]}."""
    return _load(path, _build_rotation)


def _build_rotation(doc) -> RotationDoc:
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
    eps = [parse_rational(v) for v in eps]
    arc = None
    if "arc" in doc:
        arc = Arc(*_read_arc(doc["arc"], "arc must be a [start, length] pair"))
        arc.check(n)
    return RotationDoc(system, full, eps, arc)
