"""Library builders store what they build unchecked; each result must pass its public constructor.

The public constructors of Relation, PartialMap and PermAction check every
value.  Library code that has just built such a value skips that check, so
each builder's output is passed back through the constructor here: it must
not raise, and the rebuilt object must have the same fields.
"""
import math
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcost import (
    Arc,
    FiniteSpace,
    Graphing,
    GroupSpec,
    PartialMap,
    PermAction,
    Relation,
    RotationSystem,
    Subset,
    epsilon_graphing,
    expected_relation,
    first_return_map,
    generated_relation,
    reduce_to_treeing,
    restrict_map,
    restrict_relation,
    sample_free_action,
    single_full_generator,
    spanning_treeing,
)


def assert_rebuilds(obj):
    """Oracle: the public constructor accepts obj's fields and stores them unchanged."""
    values = [getattr(obj, f.name) for f in fields(obj)]
    assert vars(obj).keys() == {f.name for f in fields(obj)}
    if isinstance(obj, Relation):
        again = Relation(obj.space, obj.parent)
        assert again.parent == obj.parent
        assert Relation.periodic(obj.space, obj.base).base == obj.base
    else:
        again = type(obj)(*values)
        assert [getattr(again, f.name) for f in fields(again)] == values


def assert_graphing_rebuilds(g):
    for m in g.maps:
        assert_rebuilds(m)


@st.composite
def class_lists(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        groups.setdefault(lab, []).append(x)
    return FiniteSpace(n), draw(st.permutations(list(groups.values())))


@st.composite
def relations(draw):
    """From classes, or periodic with a base on Z/p lifted to n = p * copies."""
    if draw(st.booleans()):
        return Relation.from_classes(*draw(class_lists()))
    space, groups = draw(class_lists(max_n=8))
    base = Relation.from_classes(space, groups).base
    return Relation.periodic(FiniteSpace(space.n * draw(st.integers(1, 4))), base)


@st.composite
def graphings(draw, max_n=25, max_maps=3):
    """Dict maps, or shift views of a rotation family with one full step."""
    n = draw(st.integers(1, max_n))
    space = FiniteSpace(n)
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(0, 2 * n), min_size=2, max_size=max_maps))
        sys = RotationSystem(n, {f"s{j}": s for j, s in enumerate(steps)})
        arc = Arc(draw(st.integers(0, n - 1)), draw(st.integers(0, n)))
        return epsilon_graphing(sys, "s0", arc)
    maps = []
    for j in range(draw(st.integers(0, max_maps))):
        perm = draw(st.permutations(list(range(n))))
        dom = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        maps.append(PartialMap(f"m{j}", space, {x: perm[x] for x in dom}))
    return Graphing(space, maps)


def subsets(space, min_size=0):
    atoms = st.lists(st.integers(0, space.n - 1), min_size=min_size, max_size=space.n)
    return atoms.map(lambda xs: Subset(space, frozenset(xs)))


@given(relations())
def test_relation_builders_rebuild(r):
    assert_rebuilds(r)
    assert_graphing_rebuilds(spanning_treeing(r))
    psi = single_full_generator(r)
    assert_rebuilds(psi)
    assert_rebuilds(psi.inverse())


@given(relations(), st.data())
def test_restrict_relation_rebuilds(r, data):
    assert_rebuilds(restrict_relation(r, data.draw(subsets(r.space, min_size=1))))


@given(graphings(), st.data())
def test_graphing_builders_rebuild(g, data):
    assert_rebuilds(generated_relation(g))
    assert_graphing_rebuilds(reduce_to_treeing(g))
    for m in g.maps:
        assert_rebuilds(m.inverse())
        assert_graphing_rebuilds(restrict_map(g, m.name, data.draw(subsets(g.space))))


@given(relations(), st.data())
def test_first_return_map_rebuilds(r, data):
    psi = single_full_generator(r)
    assert_rebuilds(first_return_map(psi, data.draw(subsets(r.space, min_size=1))))


@given(st.integers(1, 60), st.lists(st.integers(-100, 100), max_size=4))
def test_expected_relation_rebuilds(n, steps):
    assert_rebuilds(expected_relation(RotationSystem(n, {f"s{j}": s for j, s in enumerate(steps)})))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (0, 0), (3, 3, 3), (0,), (5,)]),
       st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_sampled_actions_rebuild(orders, scale, seed):
    torsion = math.lcm(*(m for m in orders if m))
    index = torsion if len(orders) == 1 and orders[0] else torsion * scale
    act = sample_free_action(GroupSpec(orders), index, seed)
    assert isinstance(act, PermAction)
    assert_rebuilds(act)
