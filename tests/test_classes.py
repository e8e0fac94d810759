"""The value classes of the library: construction, equality, hashing, read-only fields and repr.

Each case gives a class, keyword arguments in constructor order, and for some
fields a second valid value.  Construction by position must equal construction
by keyword, equality must compare the fields and nothing else, the read-only
classes must hash and refuse assignment, and the mutable ones must not hash.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from orbitcost import (
    Arc,
    CostCurve,
    CurveRow,
    EdgeSet,
    FiniteSpace,
    Graphing,
    GroupInvariants,
    GroupSpec,
    ModelError,
    PartialMap,
    Path,
    PermAction,
    Relation,
    RotationSystem,
    Segment,
    ShiftMapping,
    Subset,
)
from orbitcost.files import RotationDoc, SchreierDoc
from orbitcost.relcore import _Record
from orbitcost.schreier import CoincidenceRow, GradientRow

S3, S4 = FiniteSpace(3), FiniteSpace(4)
SEG = Segment("a", 1, 2)
ROW = CurveRow(Fraction(1, 2), 3, Fraction(6, 5), True)
SYSTEM = RotationSystem(5, {"a": 1, "b": 2})

# (class, keyword arguments in constructor order, {field: another valid value})
FROZEN = [
    (FiniteSpace, {"n": 3}, {"n": 4}),
    (Arc, {"start": 1, "length": 2}, {"start": 0, "length": 3}),
    (ShiftMapping, {"n": 5, "step": 1, "start": 2, "length": 3},
     {"n": 6, "step": 2, "start": 1, "length": 2}),
    (Subset, {"space": S3, "members": frozenset({0, 2})},
     {"space": S4, "members": frozenset({1})}),
    (EdgeSet, {"space": S3, "edges": frozenset({(0, 1)})},
     {"space": S4, "edges": frozenset({(1, 0), (2, 2)})}),
    (Segment, {"step": "a", "power": 1, "count": 2}, {"step": "b", "power": -1, "count": 3}),
    (CurveRow, {"eps": Fraction(1, 2), "arc_len": 3, "cost": Fraction(6, 5), "generates": True},
     {"eps": Fraction(1, 3), "arc_len": 4, "cost": Fraction(7, 5), "generates": False}),
    (GroupSpec, {"factor_orders": (2, 3)}, {"factor_orders": (0, 0)}),
    (GroupInvariants, {"factor_costs": (Fraction(1, 2), Fraction(2, 3)),
                       "predicted_cost": Fraction(7, 6), "beta1": Fraction(1, 6), "rank": 2},
     {"factor_costs": (Fraction(1),), "predicted_cost": Fraction(2), "beta1": Fraction(1),
      "rank": 3}),
    (GradientRow, {"index": 6, "rank": 2, "gradient": Fraction(1, 6), "matches_beta1": True},
     {"index": 12, "rank": 3, "gradient": Fraction(1, 12), "matches_beta1": False}),
    (CoincidenceRow, {"factor_orders": (2, 3), "rank": 2, "predicted_cost": Fraction(7, 6),
                      "beta1": Fraction(1, 6), "index": 6, "measured_cost": Fraction(7, 6),
                      "factor_costs": (Fraction(1, 2), Fraction(2, 3)),
                      "modeled_factor_costs": (Fraction(1, 2), Fraction(2, 3)), "match": True},
     {"factor_orders": (0, 0), "rank": 3, "predicted_cost": Fraction(2), "beta1": Fraction(1),
      "index": 12, "measured_cost": Fraction(2), "factor_costs": (Fraction(1),),
      "modeled_factor_costs": (Fraction(1),), "match": False}),
]

MUTABLE = [
    (PartialMap, {"name": "a", "space": S3, "mapping": {0: 1}},
     {"name": "b", "space": S4, "mapping": {0: 1, 1: 0}}),
    (Graphing, {"space": S3, "maps": []},
     {"space": S4, "maps": [PartialMap("a", S3, {0: 1})]}),
    (Relation, {"space": S3, "base": [0, 0, 2]}, {"base": [0, 1, 2]}),
    (RotationSystem, {"n": 5, "steps": {"a": 1, "b": 2}}, {"n": 7, "steps": {"a": 3}}),
    (Path, {"n": 5, "start": 0, "end": 2, "hit": 1, "segments": [SEG]},
     {"n": 6, "start": 1, "end": 3, "hit": 2, "segments": []}),
    (CostCurve, {"rows": [ROW], "infimum": Fraction(1)}, {"rows": [], "infimum": None}),
    (PermAction, {"spec": GroupSpec((0, 0)), "index": 2, "perms": [[1, 0], [0, 1]]},
     {"spec": GroupSpec((2, 0)), "perms": [[0, 1], [1, 0]]}),
    (SchreierDoc, {"factors": (2, 3), "indices": [6]}, {"factors": (0,), "indices": []}),
    (RotationDoc, {"system": SYSTEM, "full": "a", "eps": [Fraction(1, 2)], "arc": Arc(0, 1)},
     {"system": RotationSystem(5, {"a": 1}), "full": None, "eps": [], "arc": None}),
]

CASES = FROZEN + MUTABLE
IDS = [cls.__name__ for cls, _, _ in CASES]

# (class, keyword arguments that break its precondition, the ModelError's message)
REFUSED = [
    (EdgeSet, {"space": S3, "edges": frozenset({(0, 3)})}, "edge (0, 3) leaves 0..2"),
    (EdgeSet, {"space": S3, "edges": frozenset({(-1, 0)})}, "edge (-1, 0) leaves 0..2"),
    (FiniteSpace, {"n": 0}, "a space needs at least one atom, got n=0"),
]


def test_every_class_is_covered():
    assert len(FROZEN) == 11 and len(MUTABLE) == 9 and len(set(IDS)) == 20


@pytest.mark.parametrize("cls, kwargs, others", CASES, ids=IDS)
def test_positional_construction_equals_keyword_construction(cls, kwargs, others):
    by_position = cls(*kwargs.values())
    by_keyword = cls(**kwargs)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, kwargs, others", CASES, ids=IDS)
def test_equality_is_field_wise(cls, kwargs, others):
    obj = cls(**kwargs)
    for name, value in others.items():
        changed = cls(**{**kwargs, name: value})
        assert changed != obj and obj != changed, name
        assert not changed == obj, name
    assert obj != tuple(kwargs.values())
    assert obj.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, kwargs, others", FROZEN, ids=IDS[:len(FROZEN)])
def test_read_only_classes_hash_and_refuse_assignment(cls, kwargs, others):
    obj = cls(**kwargs)
    assert hash(obj) == hash(cls(*kwargs.values()))
    assert len({obj, cls(**kwargs)}) == 1
    for name, value in others.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        assert getattr(obj, name) == kwargs[name]


@pytest.mark.parametrize("cls, kwargs, others", MUTABLE, ids=IDS[len(FROZEN):])
def test_mutable_classes_do_not_hash(cls, kwargs, others):
    with pytest.raises(TypeError):
        hash(cls(**kwargs))


@pytest.mark.parametrize("cls, kwargs, others", CASES, ids=IDS)
def test_repr_lists_the_fields(cls, kwargs, others):
    shown = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, kwargs, others", CASES, ids=IDS)
def test_pickle_and_copy_keep_the_fields(cls, kwargs, others):
    obj = cls(**kwargs)
    for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(again) is cls and again == obj


@pytest.mark.parametrize("cls, kwargs, others", CASES, ids=IDS)
def test_a_missing_repeated_or_unknown_field_is_a_type_error(cls, kwargs, others):
    first, *_ = kwargs
    values = list(kwargs.values())
    calls = [(values[:-1], {}), (values, {first: values[0]}), (values, {"unknown": 0}),
             ([*values, 0], {})]
    for args, extra in calls:
        with pytest.raises(TypeError) as raised:
            cls(*args, **extra)
        if cls.__init__ is _Record.__init__:  # the generic constructor names every field
            assert str(raised.value) == f"{cls.__name__}() takes the fields {', '.join(kwargs)}"


@pytest.mark.parametrize("cls, kwargs, others", FROZEN, ids=IDS[:len(FROZEN)])
def test_read_only_classes_refuse_deletion(cls, kwargs, others):
    obj = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) == value


@pytest.mark.parametrize("cls, kwargs, message", REFUSED, ids=[m for _, _, m in REFUSED])
def test_a_broken_precondition_is_a_model_error(cls, kwargs, message):
    with pytest.raises(ModelError) as raised:
        cls(**kwargs)
    assert str(raised.value) == message
