"""Core calculus: examples with independently derived values, then properties."""
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcost import (
    EdgeBudgetError,
    FiniteSpace,
    Graphing,
    ModelError,
    NotInSameCycleError,
    PartialMap,
    Relation,
    Subset,
    brute_force_min_cost,
    compression_sides,
    cost,
    first_return_map,
    generated_relation,
    generates,
    is_treeing,
    min_cost,
    nu_measure,
    orbit_exponent,
    reduce_to_treeing,
    relcore,
    restrict_map,
    restrict_relation,
    single_full_generator,
    spanning_treeing,
    to_edge_set,
    transversal,
)
from orbitcost.unionfind import UnionFind


def shift_map(n, s=1, name="shift"):
    return PartialMap(name, FiniteSpace(n), {x: (x + s) % n for x in range(n)})


def iterate(psi, k, x):
    backward = {y: z for z, y in psi.mapping.items()}
    for _ in range(abs(k)):
        x = psi.mapping[x] if k > 0 else backward[x]
    return x


# ---------------------------------------------------------------- types

def test_space_rejects_empty():
    with pytest.raises(ModelError):
        FiniteSpace(0)


def test_atom_weight_is_exact():
    assert FiniteSpace(7).measure(1) == Fraction(1, 7)


def test_partial_map_rejects_shared_target():
    with pytest.raises(ModelError, match="share the target"):
        PartialMap("m", FiniteSpace(4), {0: 2, 1: 2})


def test_partial_map_rejects_out_of_range():
    with pytest.raises(ModelError, match="source atom"):
        PartialMap("m", FiniteSpace(4), {9: 0})
    with pytest.raises(ModelError, match="target atom"):
        PartialMap("m", FiniteSpace(4), {0: -1})


def test_from_pairs_rejects_duplicate_source():
    with pytest.raises(ModelError, match="duplicate source atom 1"):
        PartialMap.from_pairs("m", FiniteSpace(4), [(1, 0), (1, 2)])


def test_loops_are_legal():
    m = PartialMap("m", FiniteSpace(3), {0: 0, 1: 2})
    assert m.pairs() == [(0, 0), (1, 2)]


def test_graphing_rejects_duplicate_names_and_foreign_spaces():
    space = FiniteSpace(3)
    m = PartialMap("a", space, {0: 1})
    with pytest.raises(ModelError, match="duplicate map name"):
        Graphing(space, [m, PartialMap("a", space, {})])
    with pytest.raises(ModelError, match="lives on n=4"):
        Graphing(space, [PartialMap("b", FiniteSpace(4), {})])


def test_relation_requires_canonical_parents():
    with pytest.raises(ModelError):
        Relation(FiniteSpace(3), [1, 1, 2])  # 1 is not the least of its class
    with pytest.raises(ModelError):
        Relation(FiniteSpace(3), [0, 2, 2])  # forward reference
    Relation(FiniteSpace(3), [0, 0, 2])


def test_from_classes_fills_singletons_and_rejects_overlap():
    r = Relation.from_classes(FiniteSpace(5), [[3, 1]])
    assert r.classes() == [[0], [1, 3], [2], [4]]
    with pytest.raises(ModelError, match="listed in two classes"):
        Relation.from_classes(FiniteSpace(5), [[0, 1], [1, 2]])


def test_subset_measure():
    a = Subset(FiniteSpace(8), frozenset([1, 5]))
    assert a.measure == Fraction(1, 4)
    with pytest.raises(ModelError, match=r"^subset member 8 outside 0\.\.7$"):
        Subset(FiniteSpace(8), frozenset([2, 8]))
    with pytest.raises(ModelError, match=r"^subset member -1 outside 0\.\.7$"):
        Subset(FiniteSpace(8), frozenset([-1, 3]))


# ---------------------------------------------------------------- cost and nu

def test_cost_counts_domains_with_multiplicity():
    space = FiniteSpace(4)
    g = Graphing(space, [PartialMap("a", space, {0: 1, 1: 2}),
                         PartialMap("b", space, {3: 3})])
    assert cost(g) == Fraction(3, 4)


def test_cost_of_empty_graphing_is_zero():
    assert cost(Graphing(FiniteSpace(5), [])) == 0


def test_nu_collapses_duplicate_maps():
    # two identical full maps: cost 2, but a single set of n pairs
    space = FiniteSpace(5)
    pairs = {x: (x + 1) % 5 for x in range(5)}
    g = Graphing(space, [PartialMap("u", space, dict(pairs)),
                         PartialMap("v", space, dict(pairs))])
    assert cost(g) == 2
    assert nu_measure(to_edge_set(g)) == 1


def test_nu_equals_cost_for_distinct_pairs():
    space = FiniteSpace(6)
    g = Graphing(space, [PartialMap("a", space, {0: 1, 2: 3}),
                         PartialMap("b", space, {4: 5})])
    assert nu_measure(to_edge_set(g)) == cost(g) == Fraction(1, 2)


# ---------------------------------------------------------------- generation

def test_generated_relation_components():
    space = FiniteSpace(4)
    g = Graphing(space, [PartialMap("a", space, {0: 1, 2: 3})])
    assert generated_relation(g).classes() == [[0, 1], [2, 3]]


def test_rotation_by_two_misses_odd_atoms():
    # component count 2, so the one-class relation is not generated
    n = 6
    g = Graphing(FiniteSpace(n), [shift_map(n, 2)])
    one_class = Relation.from_classes(FiniteSpace(n), [list(range(n))])
    assert generated_relation(g).class_count() == 2
    assert not generates(g, one_class)
    assert generates(g, Relation.from_classes(FiniteSpace(n), [[0, 2, 4], [1, 3, 5]]))


def test_loops_never_generate():
    space = FiniteSpace(3)
    g = Graphing(space, [PartialMap("a", space, {0: 0, 1: 1, 2: 2})])
    assert generated_relation(g).class_count() == 3
    assert cost(g) == 1


def test_generates_rejects_mismatched_spaces():
    g = Graphing(FiniteSpace(3), [])
    with pytest.raises(ModelError):
        generates(g, Relation(FiniteSpace(4), [0, 1, 2, 3]))


# ---------------------------------------------------------------- treeings

def test_path_is_treeing():
    space = FiniteSpace(4)
    assert is_treeing(Graphing(space, [PartialMap("a", space, {0: 1, 1: 2, 2: 3})]))


def test_loop_breaks_treeing():
    space = FiniteSpace(2)
    assert not is_treeing(Graphing(space, [PartialMap("a", space, {0: 0})]))


def test_inverse_duplicate_breaks_treeing():
    space = FiniteSpace(2)
    g = Graphing(space, [PartialMap("a", space, {0: 1}),
                         PartialMap("b", space, {1: 0})])
    assert not is_treeing(g)


def test_full_cycle_is_not_a_treeing():
    assert not is_treeing(Graphing(FiniteSpace(5), [shift_map(5)]))


def test_min_cost_frozen_example():
    # brute-force oracle over the 6-pair universe agrees: 2/3
    r = Relation.from_classes(FiniteSpace(6), [[0, 1, 2], [3, 4, 5]])
    assert min_cost(r) == Fraction(2, 3)
    assert brute_force_min_cost(r) == Fraction(2, 3)


def test_min_cost_of_diagonal_is_zero():
    r = Relation(FiniteSpace(4), [0, 1, 2, 3])
    assert min_cost(r) == 0
    assert brute_force_min_cost(r) == 0


def test_spanning_treeing_frozen_example():
    r = Relation.from_classes(FiniteSpace(4), [[0, 1], [2, 3]])
    t = spanning_treeing(r)
    assert t.maps[0].pairs() == [(1, 0), (3, 2)]
    assert cost(t) == min_cost(r) == Fraction(1, 2)


def test_reduce_epsilon_family_to_treeing():
    # a full shift plus a restricted jump costs 1 + eps; the forest costs (n-1)/n
    n = 10
    space = FiniteSpace(n)
    g = Graphing(space, [shift_map(n, 1, "a"),
                         PartialMap("b", space, {0: 3, 1: 4})])
    t = reduce_to_treeing(g)
    assert is_treeing(t)
    assert generates(t, generated_relation(g))
    assert cost(t) == Fraction(n - 1, n)


def test_reduce_keeps_a_treeing_unchanged():
    space = FiniteSpace(5)
    g = Graphing(space, [PartialMap("a", space, {0: 1, 2: 3}),
                         PartialMap("b", space, {3: 4})])
    assert is_treeing(g)
    assert reduce_to_treeing(g) == g


# ---------------------------------------------------------------- single generator

def test_single_full_generator_frozen_example():
    r = Relation.from_classes(FiniteSpace(4), [[0, 1], [2, 3]])
    psi = single_full_generator(r)
    assert psi.pairs() == [(0, 1), (1, 0), (2, 3), (3, 2)]
    assert cost(Graphing(r.space, [psi])) == 1
    assert generates(Graphing(r.space, [psi]), r)


def test_single_full_generator_of_diagonal_is_identity():
    r = Relation(FiniteSpace(3), [0, 1, 2])
    assert single_full_generator(r).pairs() == [(0, 0), (1, 1), (2, 2)]


def test_orbit_exponent_frozen_examples():
    psi = shift_map(10)
    assert orbit_exponent(psi, 0, 3) == 3
    assert orbit_exponent(psi, 0, 9) == -1
    assert orbit_exponent(psi, 0, 5) == 5  # tie resolves forward
    assert orbit_exponent(psi, 4, 4) == 0


def test_orbit_exponent_rejects_disjoint_cycles():
    psi = PartialMap("p", FiniteSpace(4), {0: 1, 1: 0, 2: 3, 3: 2})
    with pytest.raises(NotInSameCycleError):
        orbit_exponent(psi, 0, 2)


def test_orbit_exponent_needs_a_permutation():
    with pytest.raises(ModelError, match="full permutation"):
        orbit_exponent(PartialMap("p", FiniteSpace(3), {0: 1}), 0, 1)


# ---------------------------------------------------------------- first return

def test_first_return_frozen_example():
    psi = shift_map(10)
    a = Subset(psi.space, frozenset(range(5)))
    induced = first_return_map(psi, a)
    assert induced.pairs() == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def test_first_return_time_sums_to_cycle_length():
    # simulation oracle: walk each point until it re-enters the subset
    psi = shift_map(10)
    members = frozenset([0, 1, 2, 3, 4])
    times = {}
    for x in sorted(members):
        z = psi.mapping[x]
        k = 1
        while z not in members:
            z = psi.mapping[z]
            k += 1
        times[x] = k
    assert times[4] == 6
    assert sum(times.values()) == 10


def test_first_return_requires_nonempty_subset():
    with pytest.raises(ModelError):
        first_return_map(shift_map(5), Subset(FiniteSpace(5), frozenset()))


# ---------------------------------------------------------------- restriction

def test_restrict_map_shrinks_one_domain():
    space = FiniteSpace(6)
    g = Graphing(space, [shift_map(6, 1, "a"), shift_map(6, 2, "b")])
    a = Subset(space, frozenset([0, 1]))
    h = restrict_map(g, "b", a)
    assert h.map_named("a").pairs() == g.map_named("a").pairs()
    assert h.map_named("b").pairs() == [(0, 2), (1, 3)]
    with pytest.raises(ModelError, match="^no map named 'zz'$"):
        restrict_map(g, "zz", a)


def test_restrict_relation_reindexes_ascending():
    r = Relation.from_classes(FiniteSpace(6), [[0, 2, 4], [1, 3, 5]])
    a = Subset(FiniteSpace(6), frozenset([0, 1, 2]))
    small = restrict_relation(r, a)
    assert small.space.n == 3
    assert small.classes() == [[0, 2], [1]]
    assert small.space.measure(1) == Fraction(1, 3)


def test_restrict_relation_to_everything_is_identity():
    r = Relation.from_classes(FiniteSpace(5), [[0, 4], [1, 2]])
    full = Subset(r.space, frozenset(range(5)))
    assert restrict_relation(r, full).parent == r.parent


# ---------------------------------------------------------------- compression

def test_compression_frozen_example():
    r = Relation.from_classes(FiniteSpace(6), [list(range(6))])
    a = Subset(r.space, frozenset([0, 1, 2]))
    lhs, rhs = compression_sides(r, a)
    assert (lhs, rhs) == (Fraction(-1, 3), Fraction(-1, 12))
    assert lhs <= rhs


def test_compression_equality_on_full_subset():
    r = Relation(FiniteSpace(3), [0, 1, 2])
    lhs, rhs = compression_sides(r, Subset(r.space, frozenset(range(3))))
    assert lhs == rhs == -1


def test_compression_rejects_missed_class():
    r = Relation.from_classes(FiniteSpace(4), [[0, 1], [2, 3]])
    with pytest.raises(ModelError, match="misses the class of atom 2"):
        compression_sides(r, Subset(r.space, frozenset([0, 1])))


# ---------------------------------------------------------------- transversal

def test_transversal_reps_and_identity():
    r = Relation.from_classes(FiniteSpace(6), [[0, 1, 2], [3, 4, 5]])
    t = transversal(r)
    assert sorted(t.members) == [0, 3]
    assert min_cost(r) == 1 - t.measure


# ---------------------------------------------------------------- brute force

def test_brute_force_frozen_examples():
    one = Relation.from_classes(FiniteSpace(4), [[0, 1, 2, 3]])
    assert brute_force_min_cost(one) == Fraction(3, 4)
    two = Relation.from_classes(FiniteSpace(4), [[0, 1], [2, 3]])
    assert brute_force_min_cost(two) == Fraction(1, 2)


def test_brute_force_respects_budget():
    r = Relation.from_classes(FiniteSpace(10), [list(range(10))])  # 45 pairs
    with pytest.raises(EdgeBudgetError):
        brute_force_min_cost(r)
    assert brute_force_min_cost(r.__class__.from_classes(FiniteSpace(10), [[0, 1]])) == Fraction(1, 10)


def test_brute_force_refuses_a_budget_past_the_ceiling_before_counting(monkeypatch):
    # a plain ModelError, so invariants reports it instead of skipping the brute-force check
    monkeypatch.setattr(relcore, "Counter", None)
    r = Relation.from_classes(FiniteSpace(4), [[0, 1]])
    with pytest.raises(ModelError, match=r"^the edge budget is at most 28 pairs, got 29$") as info:
        brute_force_min_cost(r, relcore.MAX_EDGE_BUDGET + 1)
    assert type(info.value) is ModelError
    monkeypatch.undo()
    assert brute_force_min_cost(r, relcore.MAX_EDGE_BUDGET) == Fraction(1, 4)


def test_brute_force_refuses_a_large_universe_from_the_base(monkeypatch):
    def lifted(*_):
        raise AssertionError("the relation was lifted to its n atoms")
    monkeypatch.setattr(Relation, "classes", lifted)
    monkeypatch.setattr(Relation, "parent", property(lifted))
    r = Relation.periodic(FiniteSpace(10**6), [0])
    with pytest.raises(EdgeBudgetError,
                       match=r"^edge universe has 499999500000 pairs, the budget is 20$"):
        brute_force_min_cost(r)


def brute_force_per_class(r, edge_budget=20):
    """Oracle: the exhaustive search run once for every class of r's n atoms."""
    groups = [c for c in r.classes() if len(c) > 1]
    universe = sum(len(c) * (len(c) - 1) // 2 for c in groups)
    if universe > edge_budget:
        raise EdgeBudgetError(
            f"edge universe has {universe} pairs, the budget is {edge_budget}")
    total = 0
    for group in groups:
        size = len(group)
        pairs = list(combinations(range(size), 2))
        for k in range(size):  # some (size-1)-subset always connects
            found = False
            for combo in combinations(pairs, k):
                uf = UnionFind(size)
                for i, j in combo:
                    uf.union(i, j)
                if uf.components == 1:
                    found = True
                    break
            if found:
                total += k
                break
    return r.space.measure(total)


# ---------------------------------------------------------------- properties

@st.composite
def relations(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        groups.setdefault(lab, []).append(x)
    return Relation.from_classes(FiniteSpace(n), groups.values())


@st.composite
def periodic_relations(draw, max_p=8, max_copies=4):
    p = draw(st.integers(1, max_p))
    labels = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    first: dict[int, int] = {}
    base = [first.setdefault(lab, x) for x, lab in enumerate(labels)]
    return Relation.periodic(FiniteSpace(p * draw(st.integers(1, max_copies))), base)


@st.composite
def graphings(draw, max_n=25, max_maps=3):
    n = draw(st.integers(1, max_n))
    space = FiniteSpace(n)
    maps = []
    for j in range(draw(st.integers(0, max_maps))):
        perm = draw(st.permutations(list(range(n))))
        dom = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        maps.append(PartialMap(f"m{j}", space, {x: perm[x] for x in dom}))
    return Graphing(space, maps)


@st.composite
def relations_with_meeting_subset(draw):
    r = draw(relations(max_n=25))
    members: set[int] = set()
    for group in r.classes():
        members.update(draw(st.lists(st.sampled_from(group), min_size=1, unique=True)))
    return r, Subset(r.space, frozenset(members))


@given(relations())
def test_spanning_treeing_properties(r):
    t = spanning_treeing(r)
    assert is_treeing(t)
    assert generates(t, r)
    assert cost(t) == min_cost(r) == 1 - transversal(r).measure


@given(graphings())
def test_cost_chain(g):
    r = generated_relation(g)
    assert cost(g) >= nu_measure(to_edge_set(g)) >= min_cost(r)


@given(graphings())
def test_reduction_properties(g):
    t = reduce_to_treeing(g)
    assert is_treeing(t)
    assert generates(t, generated_relation(g))
    assert cost(t) == min_cost(generated_relation(g))
    assert reduce_to_treeing(t) == t


@given(graphings(max_n=12, max_maps=2))
def test_adding_inverses_changes_nothing(g):
    doubled = Graphing(g.space, list(g.maps) + [m.inverse() for m in g.maps])
    assert generated_relation(doubled).parent == generated_relation(g).parent


@given(relations(max_n=14))
def test_removing_any_treeing_entry_coarsens(r):
    t = spanning_treeing(r)
    entries = t.maps[0].pairs()
    base = r.class_count()
    for x, y in entries:
        mapping = dict(t.maps[0].mapping)
        del mapping[x]
        cut = Graphing(r.space, [PartialMap("forest", r.space, mapping)])
        assert generated_relation(cut).class_count() == base + 1


@given(relations(max_n=30))
def test_single_full_generator_properties(r):
    psi = single_full_generator(r)
    assert psi.is_full()
    g = Graphing(r.space, [psi])
    assert cost(g) == 1
    assert generates(g, r)


@given(st.one_of(relations(max_n=30), periodic_relations()))
def test_single_full_generator_matches_the_class_list_oracle(r):
    mapping = {}
    for group in r.classes():
        for pos, x in enumerate(group):
            mapping[x] = group[(pos + 1) % len(group)]
    assert single_full_generator(r).mapping == mapping


@given(relations(max_n=16), st.data())
def test_orbit_exponent_resolves_within_classes(r, data):
    psi = single_full_generator(r)
    group = data.draw(st.sampled_from(r.classes()))
    x = data.draw(st.sampled_from(group))
    y = data.draw(st.sampled_from(group))
    k = orbit_exponent(psi, x, y)
    assert iterate(psi, k, x) == y
    assert abs(k) <= (len(group) + 1) // 2
    if k and iterate(psi, -k, x) == y:
        assert k > 0  # ties resolve forward
    for j in range(abs(k)):  # nothing smaller works in either direction
        assert iterate(psi, j, x) != y
        assert j == 0 or iterate(psi, -j, x) != y


@settings(max_examples=60)
@given(st.integers(2, 60), st.data())
def test_kac_return_times_on_a_cycle(n, data):
    order = data.draw(st.permutations(list(range(n))))
    mapping = {order[i]: order[(i + 1) % n] for i in range(n)}
    psi = PartialMap("cycle", FiniteSpace(n), mapping)
    members = frozenset(data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    induced = first_return_map(psi, Subset(psi.space, members))
    assert set(induced.mapping) == members
    assert set(induced.mapping.values()) == members
    total = 0
    for x in members:
        z = psi.mapping[x]
        k = 1
        while z not in members:
            z = psi.mapping[z]
            k += 1
        total += k
    assert total == n


@given(relations_with_meeting_subset())
def test_compression_inequality(pair):
    r, a = pair
    lhs, rhs = compression_sides(r, a)
    assert lhs <= rhs
    assert (lhs == rhs) == (len(a.members) == r.space.n)


@settings(max_examples=40)
@given(relations(max_n=12))
def test_brute_force_agrees_when_budget_permits(r):
    universe = sum(len(c) * (len(c) - 1) // 2 for c in r.classes())
    if universe <= 16:
        assert brute_force_min_cost(r) == min_cost(r)


@settings(max_examples=80, deadline=None)
@given(st.one_of(relations(max_n=12), periodic_relations()), st.integers(0, 20))
def test_brute_force_matches_per_class_oracle(r, edge_budget):
    try:
        expected = brute_force_per_class(r, edge_budget)
    except EdgeBudgetError as e:
        with pytest.raises(EdgeBudgetError, match=f"^{re.escape(str(e))}$"):
            brute_force_min_cost(r, edge_budget)
    else:
        assert brute_force_min_cost(r, edge_budget) == expected
