"""Core calculus: examples with independently derived values, then properties."""
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcost import (
    Arc,
    EdgeBudgetError,
    FiniteSpace,
    Graphing,
    GroupSpec,
    ModelError,
    NotInSameCycleError,
    PartialMap,
    PermAction,
    Relation,
    RotationSystem,
    ShiftMapping,
    Subset,
    brute_force_min_cost,
    compression_sides,
    connection_path,
    cost,
    first_hitting_time,
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
from orbitcost import files
from orbitcost.unionfind import UnionFind


def shift_map(n, s=1, name="shift"):
    return PartialMap(name, FiniteSpace(n), {x: (x + s) % n for x in range(n)})


def arc_atoms(arc, n):
    """Oracle: an arc's atoms, listed one by one from its start and wrapping modulo n."""
    return [(arc.start + i) % n for i in range(arc.length)]


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


def test_cycle_walks_past_the_atom_cap_are_refused_after_their_own_checks():
    n = 10**12
    psi = PartialMap("a", FiniteSpace(n), ShiftMapping(n, 1, 0, n))
    walk = rf"^a cycle walk visits at most {relcore.MAX_RELATION_ATOMS} atoms, got n={n}$"
    assert orbit_exponent(psi, 5, 5) == 0
    with pytest.raises(ModelError, match=walk):
        orbit_exponent(psi, 0, 5)
    with pytest.raises(ModelError, match=rf"^atom {n} outside"):
        orbit_exponent(psi, 0, n)
    with pytest.raises(ModelError, match=walk):
        first_return_map(psi, Subset(psi.space, frozenset([0, 5])))
    with pytest.raises(ModelError, match="nonempty subset"):
        first_return_map(psi, Subset(psi.space, frozenset()))


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
    r = Relation(FiniteSpace(10**6), [0])
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


# ---------------------------------------------------------------- preconditions

S3, S4 = FiniteSpace(3), FiniteSpace(4)
CYCLE3 = PartialMap("a", S3, {0: 1, 1: 2, 2: 0})
SINGLETONS3 = Relation(S3, [0, 1, 2])
ROTATION5 = RotationSystem(5, {"a": 1, "b": 2})


@pytest.mark.parametrize("build, message", [
    (lambda: first_return_map(CYCLE3, Subset(S4, {0})), "map and subset live on different spaces"),
    (lambda: restrict_map(Graphing(S3, [CYCLE3]), "a", Subset(S4, {0})),
     "graphing and subset live on different spaces"),
    (lambda: restrict_relation(SINGLETONS3, Subset(S4, {0})),
     "relation and subset live on different spaces"),
    (lambda: restrict_relation(SINGLETONS3, Subset(S3, set())),
     "cannot restrict to the empty subset"),
    (lambda: compression_sides(SINGLETONS3, Subset(S4, {0})),
     "relation and subset live on different spaces"),
    (lambda: RotationSystem(0, {"a": 1}), "a rotation system needs n >= 1, got 0"),
    (lambda: RotationSystem(5, {"": 1}), "step name '' must be a nonempty string"),
    (lambda: RotationSystem(5, {1: 1}), "step name 1 must be a nonempty string"),
    (lambda: first_hitting_time(0, 1, 0, Arc(0, 0)), "modulus must be positive, got 0"),
    (lambda: connection_path(ROTATION5, "a", "z", Arc(0, 2), 1), "no step named 'z'"),
    (lambda: PermAction(GroupSpec((2, 3)), 0, []), "index must be positive, got 0"),
    (lambda: PermAction(GroupSpec((2, 3)), 6, [[1, 0, 3, 2, 5, 4]]),
     "2 factors but 1 permutations"),
], ids=["first-return-spaces", "restrict-map-spaces", "restrict-relation-spaces",
        "restrict-relation-empty", "compression-spaces", "rotation-n", "rotation-empty-name",
        "rotation-int-name", "hitting-modulus", "path-restricted-step", "action-index",
        "action-perm-count"])
def test_each_precondition_names_its_fault(build, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        build()


# ---------------------------------------------------------------- equality

@st.composite
def view_pairs(draw, max_n=40):
    """Arguments of two shift views on one n; the second often the first's entries again."""
    n = draw(st.integers(1, max_n))
    steps = st.integers(-2 * n, 2 * n)  # negative steps and steps past n too
    length = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    first = (n, draw(steps), draw(st.integers(0, n - 1)), length)
    if draw(st.booleans()):
        # the same entries: the step moved by a multiple of n (any step on an empty arc),
        # and any start on a full or empty arc
        step = first[1] + n * draw(st.integers(-2, 2))
        start = first[2] if 0 < length < n else draw(st.integers(0, n - 1))
        return first, (n, step if length else draw(steps), start, length)
    length = draw(st.one_of(st.just(length), st.integers(0, n)))
    return first, (n, draw(steps), draw(st.integers(0, n - 1)), length)


@given(view_pairs())
@example(((12, 5, 7, 12), (12, -7, 0, 12)))  # full arcs from different starts
@example(((12, 3, 4, 0), (12, 5, 9, 0)))  # empty arcs: no entries, whatever step and start
@example(((1, 0, 0, 1), (1, 7, 0, 1)))  # n = 1
@example(((10, -3, 8, 4), (10, 17, 8, 4)))  # a negative step and a step past n
@example(((10, 3, 8, 4), (10, 3, 9, 4)))
def test_view_equality_is_equality_of_entries(args):
    a, b = ShiftMapping(*args[0]), ShiftMapping(*args[1])
    same = dict(a.items()) == dict(b.items())
    assert (a == b) == (b == a) == (not a != b) == same
    assert (a == dict(b.items())) == (dict(a.items()) == b) == same
    if same:
        assert hash(a) == hash(b)


@st.composite
def relation_pairs(draw, max_n=36):
    """Two relations on one n, each stored at a period dividing n; often one relation twice."""
    n = draw(st.integers(1, max_n))
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    def stored(labels):  # labels repeat with period len(labels); stored at a multiple of it
        p = draw(st.sampled_from([d for d in divisors if d % len(labels) == 0]))
        first: dict[int, int] = {}
        return Relation(FiniteSpace(n), [first.setdefault(labels[x % len(labels)], x)
                                         for x in range(p)])

    def labels():
        t = draw(st.sampled_from(divisors))
        return draw(st.lists(st.integers(0, 3), min_size=t, max_size=t))

    shared = labels()
    return stored(shared), stored(shared if draw(st.booleans()) else labels())


@given(relation_pairs())
@example((Relation(FiniteSpace(12), [0, 1, 0, 1]), Relation(FiniteSpace(12), [0, 1] * 3)))
@example((Relation(FiniteSpace(12), [0, 0, 2, 0]), Relation(FiniteSpace(12), [0, 0, 2, 0, 0, 0])))
@example((Relation(FiniteSpace(12), [0] * 4), Relation(FiniteSpace(12), [0, 1, 0, 1, 0, 1])))
def test_relation_equality_is_equality_of_parents(pair):
    a, b = pair
    assert (a == b) == (b == a) == (not a != b) == (a.parent == b.parent)


def test_relations_on_different_spaces_differ():
    assert Relation(FiniteSpace(2), [0]) != Relation(FiniteSpace(4), [0])


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
def periodic_relations(draw, max_p=8, max_copies=4, min_copies=1):
    p = draw(st.integers(1, max_p))
    labels = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    first: dict[int, int] = {}
    base = [first.setdefault(lab, x) for x, lab in enumerate(labels)]
    return Relation(FiniteSpace(p * draw(st.integers(min_copies, max_copies))), base)


@st.composite
def graphings(draw, max_n=25, max_maps=3):
    """Each map a dict drawn from a permutation, or a shift view on a full or partial arc."""
    n = draw(st.integers(1, max_n))
    space = FiniteSpace(n)
    atoms = st.integers(0, n - 1)
    maps = []
    for j in range(draw(st.integers(0, max_maps))):
        if draw(st.booleans()):  # any step, so gcd(step, n) > 1 comes up often
            length = draw(st.one_of(st.just(n), st.integers(0, n)))
            mapping = ShiftMapping(n, draw(atoms), draw(atoms), length)
        else:
            perm = draw(st.permutations(list(range(n))))
            mapping = {x: perm[x] for x in draw(st.lists(atoms, unique=True, max_size=n))}
        maps.append(PartialMap(f"m{j}", space, mapping))
    return Graphing(space, maps)


@st.composite
def meeting_subsets(draw, r):
    """A subset of r's atoms meeting every class; the whole space about one draw in five."""
    if draw(st.integers(0, 4)) == 0:
        return Subset(r.space, frozenset(range(r.space.n)))
    members: set[int] = set()
    for group in r.classes():
        members.update(draw(st.lists(st.sampled_from(group), min_size=1, unique=True)))
    return Subset(r.space, frozenset(members))


@st.composite
def relations_with_meeting_subset(draw):
    r = draw(relations(max_n=25))
    return r, draw(meeting_subsets(r))


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


@st.composite
def views(draw, max_n=30):
    """A shift view: any step, so step 0 and gcd(step, n) > 1 come up, on any arc."""
    n = draw(st.integers(1, max_n))
    length = draw(st.one_of(st.just(n), st.integers(0, n)))
    return n, draw(st.integers(-2 * n, 2 * n)), draw(st.integers(0, n - 1)), length


@given(views())
@example((12, 5, 9, 6))  # an arc that wraps
@example((12, 7, 4, 12))  # a full arc from a nonzero start
@example((12, 0, 3, 5))  # step 0: every entry a loop
@example((12, 8, 10, 7))  # gcd(8, 12) = 4, wrapping
@example((1, 0, 0, 1))
def test_inverse_of_a_view_is_the_view_of_its_swapped_pairs(view):
    n, step, start, length = view
    m = PartialMap("a", FiniteSpace(n), ShiftMapping(n, step, start, length))
    inverse = m.inverse()
    assert isinstance(inverse.mapping, ShiftMapping)
    assert inverse.name == "a_inv"
    assert inverse.pairs() == sorted((y, x) for x, y in m.pairs())


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


def compression_lhs_by_restriction(r, a):
    """Oracle: the re-indexed trace of r on a, built atom by atom, then its min_cost minus one."""
    return min_cost(restrict_relation(r, a)) - 1


@settings(max_examples=200)
@given(st.one_of(relations(max_n=25), periodic_relations(min_copies=2)), st.data())
def test_compression_lhs_matches_the_restricted_relation(r, data):
    a = data.draw(meeting_subsets(r))
    lhs, rhs = compression_sides(r, a)
    assert lhs == compression_lhs_by_restriction(r, a)
    assert rhs == a.measure * (min_cost(r) - 1)


@settings(max_examples=100)
@given(st.one_of(relations(max_n=25), periodic_relations(min_copies=2)), st.data())
def test_compression_names_the_least_missed_class(r, data):
    a = Subset(r.space, frozenset(data.draw(st.lists(st.integers(0, r.space.n - 1)))))
    missed = [group[0] for group in r.classes() if not a.members.intersection(group)]
    if not missed:
        assert compression_sides(r, a)[0] == compression_lhs_by_restriction(r, a)
        return
    with pytest.raises(ModelError, match=f"^subset misses the class of atom {missed[0]}$"):
        compression_sides(r, a)


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


def brute_force_by_counter(r, edge_budget=20):
    """Oracle: brute_force_min_cost with its class sizes counted per atom by Counter(r.base)."""
    lift = r.space.n // len(r.base)
    sizes = Counter(t * lift for t in Counter(r.base).values() if t * lift > 1)
    universe = sum(count * (size * (size - 1) // 2) for size, count in sizes.items())
    if universe > edge_budget:
        raise EdgeBudgetError(f"edge universe has {universe} pairs, the budget is {edge_budget}")
    return r.space.measure(sum(count * relcore._fewest_connecting_pairs(size)
                               for size, count in sizes.items()))


@st.composite
def relations_of_any_period(draw, max_n=60):
    """A relation on n <= max_n atoms whose base has a period p drawn from the divisors of n."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    labels = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    first: dict[int, int] = {}
    return Relation(FiniteSpace(n), [first.setdefault(lab, x) for x, lab in enumerate(labels)])


def outcome(call, *args):
    """call(*args), or the class and text of the ModelError it raises."""
    try:
        return call(*args)
    except ModelError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(relations_of_any_period(), st.integers(0, 20))
def test_brute_force_sizes_match_the_per_atom_count(r, edge_budget):
    assert (outcome(brute_force_min_cost, r, edge_budget)
            == outcome(brute_force_by_counter, r, edge_budget))


@settings(max_examples=300, deadline=None)
@given(relations_of_any_period(), st.data())
def test_arc_subsets_answer_as_their_listed_atoms(r, data):
    space, n = r.space, r.space.n
    atoms = st.integers(0, n - 1)
    lengths = st.sampled_from([0, n]) | st.integers(0, n)
    arc = Arc(data.draw(atoms), data.draw(lengths))
    by_arc, by_atoms = Subset(space, arc), Subset(space, frozenset(arc_atoms(arc, n)))
    if data.draw(st.booleans()):  # any step, so gcd(step, n) > 1 comes up often
        psi = PartialMap("psi", space, ShiftMapping(n, data.draw(atoms), 0, n))
    else:
        psi = PartialMap("psi", space, dict(enumerate(data.draw(st.permutations(range(n))))))
    view = PartialMap("view", space, ShiftMapping(n, data.draw(atoms), data.draw(atoms),
                                                  data.draw(lengths)))
    g = Graphing(space, [psi, view])
    assert by_arc.measure == by_atoms.measure == Fraction(arc.length, n)
    assert [x in by_arc for x in range(-1, n + 1)] == [x in by_atoms for x in range(-1, n + 1)]
    for call in (lambda a: compression_sides(r, a), lambda a: first_return_map(psi, a),
                 lambda a: restrict_map(g, "psi", a), lambda a: restrict_map(g, "view", a),
                 lambda a: restrict_relation(r, a)):
        assert outcome(call, by_arc) == outcome(call, by_atoms)


def test_an_arc_subset_is_stored_as_its_step_0_view():
    space = FiniteSpace(10)
    assert Subset(space, Arc(3, 4)).members == ShiftMapping(10, 0, 3, 4)
    assert Subset(space, Arc(3, 10)) == Subset(space, ShiftMapping(10, 7, 0, 10))
    assert hash(Subset(space, Arc(3, 0))) == hash(Subset(space, Arc(0, 0)))
    # subsets compare by what they store, as views do: an arc is not its member set
    assert Subset(space, Arc(3, 4)) != Subset(space, frozenset([3, 4, 5, 6]))
    with pytest.raises(ModelError, match="^arc start 10 outside 0..9$"):
        Subset(space, Arc(10, 1))
    with pytest.raises(ModelError, match="^arc length 11 outside 0..10$"):
        Subset(space, Arc(0, 11))


@st.composite
def pair_lists(draw, max_n=30, max_pairs=60):
    n = draw(st.integers(1, max_n))
    atoms = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(atoms, atoms), max_size=max_pairs))


class BySizeUnionFind:
    """Oracle: a union-find that links the smaller set under the larger, with path halving."""

    def __init__(self, size):
        self.parent = list(range(size))
        self.weight = [1] * size
        self.components = size

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.weight[ra] < self.weight[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.weight[ra] += self.weight[rb]
        self.components -= 1
        return True

    def canonical(self):
        least = {}
        return [least.setdefault(self.find(x), x) for x in range(len(self.parent))]


def assert_matches_by_size(n, pairs):
    """union, union_all, components and canonical() against BySizeUnionFind on one sequence."""
    batch, single, oracle = UnionFind(n), UnionFind(n), BySizeUnionFind(n)
    merged = batch.union_all([a for a, _ in pairs], [b for _, b in pairs])
    assert merged == [single.union(a, b) for a, b in pairs] == [oracle.union(a, b)
                                                               for a, b in pairs]
    assert batch.parent == single.parent
    assert batch.components == single.components == oracle.components
    assert batch.canonical() == oracle.canonical()


@settings(max_examples=200)
@given(pair_lists())
def test_union_all_matches_pair_by_pair_union(case):
    assert_matches_by_size(*case)


N_PINNED = 10**5
PINNED_SEQUENCES = {  # each ends with a pair its sequence has already joined
    "descending-chain": [(x, x - 1) for x in range(N_PINNED - 1, 0, -1)] + [(N_PINNED - 1, 0)],
    "fan-into-0": [(x, 0) for x in range(1, N_PINNED)] + [(N_PINNED - 1, 1)],
    "star-onto-largest": [(x, N_PINNED - 1) for x in range(N_PINNED - 1)] + [(0, N_PINNED - 2)],
}


@pytest.mark.parametrize("pairs", PINNED_SEQUENCES.values(), ids=PINNED_SEQUENCES)
def test_union_find_matches_by_size_on_long_sequences(pairs):
    assert_matches_by_size(N_PINNED, pairs)


@given(pair_lists(), st.lists(st.integers(0, 60), max_size=5))
def test_every_parent_is_at_most_its_atom(case, cuts):
    # the larger root goes under the smaller and halving only shortens paths, so every
    # root is the least atom of its set, through any mix of union and union_all
    n, pairs = case
    uf = UnionFind(n)
    bounds = sorted({0, len(pairs), *(c for c in cuts if c < len(pairs))})
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if i % 2:
            for a, b in pairs[lo:hi]:
                uf.union(a, b)
        else:
            uf.union_all([a for a, _ in pairs[lo:hi]], [b for _, b in pairs[lo:hi]])
        assert all(parent <= x for x, parent in enumerate(uf.parent))


@given(st.one_of(relations(max_n=30), periodic_relations()), graphings(max_n=12))
def test_class_count_and_dumped_pairs_match_their_scans(r, g):
    assert r.class_count() == sum(1 for x, rep in enumerate(r.base) if x == rep)
    for m in g.maps:
        assert files.dump_map(m)["pairs"] == [[x, y] for x, y in sorted(m.mapping.items())]
