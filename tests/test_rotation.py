"""Rotation systems: shift views and hitting times against explicit oracles, path identities."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcost import (
    Arc,
    FiniteSpace,
    Graphing,
    ModelError,
    PartialMap,
    Relation,
    RotationSystem,
    ShiftMapping,
    Subset,
    UnreachableArcError,
    compression_sides,
    connection_path,
    cost,
    cost_epsilon_curve,
    epsilon_graphing,
    expected_relation,
    first_hitting_time,
    full_graphing,
    generated_relation,
    generates,
    is_treeing,
    min_cost,
    nu,
    nu_measure,
    reduce_to_treeing,
    restrict_relation,
    single_full_generator,
    spanning_treeing,
    to_edge_set,
    transversal,
)
from orbitcost.files import dump_graphing, dump_relation
from orbitcost.unionfind import UnionFind


def dict_full_graphing(sys):
    """Oracle: every step as an explicit n-entry dict."""
    space, n = sys.space, sys.n
    return Graphing(space, [PartialMap(name, space, {x: (x + s) % n for x in range(n)})
                            for name, s in sys.steps.items()])


def elementary(path, sys):
    """Oracle: walk a path one jump at a time, yielding (step, power, source, target)."""
    z = path.start
    for seg in path.segments:
        delta = sys.steps[seg.step] * seg.power
        for _ in range(seg.count):
            w = (z + delta) % path.n
            yield seg.step, seg.power, z, w
            z = w


def dict_epsilon_graphing(sys, full_step, arc):
    """Oracle: the full step as an n-entry dict, the others as dicts on the arc atoms."""
    space, n = sys.space, sys.n
    maps = []
    for name, s in sys.steps.items():
        sources = range(n) if name == full_step else arc.atoms(n)
        maps.append(PartialMap(name, space, {x: (x + s) % n for x in sources}))
    return Graphing(space, maps)


def dict_relation(g):
    """Oracle: union-find on all n atoms over every entry, views read as pairs."""
    uf = UnionFind(g.space.n)
    for m in g.maps:
        for x, y in m.mapping.items():
            uf.union(x, y)
    return Relation(g.space, uf.canonical())


def entry_forest(g):
    """Oracle: union-find on all n atoms, stopping at the first loop or cycle-closing entry."""
    uf = UnionFind(g.space.n)
    for m in g.maps:
        for x, y in m.mapping.items():
            if x == y or not uf.union(x, y):
                return False
    return True


def hit_by_inverse(n, step, x, arc):
    """Oracle: solve each arc atom through the inverse of step/gcd, O(arc length)."""
    step %= n
    g = math.gcd(step, n)
    span = n // g
    inv = pow(step // g, -1, span) if span > 1 else 0
    best = None
    for t in arc.atoms(n):
        d = (t - x) % n
        if d % g:
            continue
        m = (d // g) * inv % span
        if best is None or m < best:
            best = m
    return best


def hit_by_walking(n, step, x, arc):
    """Oracle: iterate the step until the arc is entered, None if never."""
    z = x
    for m in range(n + 1):
        if arc.contains(z, n):
            return m
        z = (z + step) % n
    return None


def test_steps_reduce_mod_n():
    sys = RotationSystem(10, {"a": 13, "b": -3})
    assert sys.steps == {"a": 3, "b": 7}


def test_arc_wraps():
    arc = Arc(8, 4)
    assert arc.atoms(10) == [8, 9, 0, 1]
    assert arc.contains(1, 10) and not arc.contains(2, 10)


def test_expected_relation_is_gcd_cosets():
    sys = RotationSystem(12, {"a": 8, "b": 6})
    r = expected_relation(sys)
    assert r.class_count() == 2  # gcd(12, 8, 6) = 2
    assert r.classes()[0] == [0, 2, 4, 6, 8, 10]


def test_expected_relation_matches_full_graphing():
    for steps in ({"a": 2}, {"a": 2, "b": 4}, {"a": 3, "b": 5}, {}):
        sys = RotationSystem(12, dict(steps))
        assert expected_relation(sys).parent == generated_relation(full_graphing(sys)).parent


def test_epsilon_graphing_cost_example():
    sys = RotationSystem(10, {"a": 1, "b": 3, "c": 7})
    g = epsilon_graphing(sys, "a", Arc(0, 1))
    assert cost(g) == Fraction(12, 10)
    assert generates(g, expected_relation(sys))
    assert not is_treeing(g)  # the full cycle alone already closes up


def test_epsilon_graphing_needs_two_steps():
    with pytest.raises(ModelError):
        epsilon_graphing(RotationSystem(5, {"a": 1}), "a", Arc(0, 1))
    with pytest.raises(ModelError, match="no step named"):
        epsilon_graphing(RotationSystem(5, {"a": 1, "b": 2}), "zz", Arc(0, 1))


def test_epsilon_graphing_rejects_an_arc_past_n():
    sys = RotationSystem(10, {"a": 1, "b": 3})
    with pytest.raises(ModelError, match=r"^arc length 11 outside 0\.\.10$"):
        epsilon_graphing(sys, "a", Arc(0, 11))


def test_hitting_time_example_and_oracle():
    arc = Arc(0, 1)
    assert first_hitting_time(10, 3, 1, arc) == 3
    assert hit_by_walking(10, 3, 1, arc) == 3


def test_hitting_time_unreachable():
    with pytest.raises(UnreachableArcError):
        first_hitting_time(6, 2, 0, Arc(1, 1))
    assert hit_by_walking(6, 2, 0, Arc(1, 1)) is None


def test_hitting_time_zero_inside_arc():
    assert first_hitting_time(9, 4, 5, Arc(4, 3)) == 0


@settings(max_examples=150)
@given(st.integers(1, 60), st.integers(0, 59), st.integers(0, 59),
       st.integers(0, 59), st.integers(0, 60))
def test_hitting_time_matches_walking_oracle(n, step, x, start, length):
    arc = Arc(start % n, min(length, n))
    expected = hit_by_walking(n, step % n, x % n, arc)
    if expected is None:
        with pytest.raises(UnreachableArcError):
            first_hitting_time(n, step, x % n, arc)
    else:
        assert first_hitting_time(n, step, x % n, arc) == expected


def test_shift_view_is_a_read_only_mapping():
    view = ShiftMapping(10, -3, 8, 4)
    assert len(view) == 4 and view.step == 7
    assert list(view) == [8, 9, 0, 1]
    assert dict(view) == {8: 5, 9: 6, 0: 7, 1: 8}
    assert 9 in view and 2 not in view and -1 not in view and 10 not in view
    with pytest.raises(KeyError):
        view[2]
    assert list(ShiftMapping(5, 1, 3, 0)) == []
    for bad, message in (((0, 1, 0, 0), "a shift view needs n >= 1, got 0"),
                         ((5, 1, 5, 1), r"arc start 5 outside 0\.\.4"),
                         ((5, 1, 0, 6), r"arc length 6 outside 0\.\.5"),
                         ((5, 1, 0, -1), r"arc length -1 outside 0\.\.5")):
        with pytest.raises(ModelError, match=f"^{message}$"):
            ShiftMapping(*bad)


def test_partial_map_rejects_a_view_on_another_space():
    with pytest.raises(ModelError, match="shift view on n=6"):
        PartialMap("a", FiniteSpace(5), ShiftMapping(6, 1, 0, 6))


def test_periodic_relation_lifts_its_base():
    r = Relation.periodic(FiniteSpace(12), [0, 0, 2, 0])
    assert r.base == [0, 0, 2, 0] and r.parent == [0, 0, 2, 0] * 3
    assert r.parent == Relation(FiniteSpace(12), r.parent).parent


@pytest.mark.parametrize("n, base", [
    (12, [0] * 5),       # 5 does not divide 12
    (12, []),            # no period at all
    (12, [0, 0, 1]),     # representative 1 is not its own representative
    (12, [0, 2, 2]),     # representative above its atom
    (12, [1, 1]),        # not the least atom of its class
])
def test_periodic_relation_rejections(n, base):
    with pytest.raises(ModelError):
        Relation.periodic(FiniteSpace(n), base)


def assert_same_as_oracle(g, oracle, sys):
    assert generated_relation(g).parent == dict_relation(oracle).parent
    assert cost(g) == cost(oracle)
    assert generates(g, expected_relation(sys)) == generates(oracle, expected_relation(sys))
    assert dump_graphing(g) == dump_graphing(oracle)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.lists(st.integers(-150, 150), min_size=2, max_size=4),
       st.integers(0, 3), st.integers(0, 59), st.integers(0, 60))
@example(12, [4, 6], 0, 11, 2)        # gcd(full, n) = 4, wrapping arc
@example(12, [-8, 30, 5], 1, 0, 0)    # negative step, step >= n, empty arc
@example(9, [3, 1], 0, 4, 9)          # arc covering all of Z/n
@example(1, [0, 5], 1, 0, 1)          # a single atom
def test_shift_views_match_dict_oracle(n, raw_steps, full, start, length):
    sys = RotationSystem(n, {f"s{i}": s for i, s in enumerate(raw_steps)})
    full_step = f"s{full % len(raw_steps)}"
    arc = Arc(start % n, min(length, n))
    assert_same_as_oracle(epsilon_graphing(sys, full_step, arc),
                          dict_epsilon_graphing(sys, full_step, arc), sys)
    assert_same_as_oracle(full_graphing(sys), dict_full_graphing(sys), sys)
    assert expected_relation(sys).parent == dict_relation(dict_full_graphing(sys)).parent


@st.composite
def mixed_graphings(draw):
    """n <= 40 atoms and up to five maps, each a shift view or an injective pair list.

    A view is (step, start, length); length n makes it a full view.  Pair
    lists may hold loops; the pinned examples add repeated and inverse maps.
    """
    n = draw(st.integers(1, 40))
    atoms = st.integers(0, n - 1)
    maps = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            length = draw(st.one_of(st.just(n), st.integers(0, n)))
            maps.append((draw(st.integers(-50, 50)), draw(atoms), length))
        else:
            sources = draw(st.lists(atoms, unique=True))
            maps.append(list(zip(sources, draw(st.permutations(range(n))))))
    return n, maps


def graphing_of(n, specs):
    """A mixed_graphings draw as a Graphing: tuples become views, pair lists dicts."""
    space = FiniteSpace(n)
    return Graphing(space, [PartialMap(f"m{i}", space,
                                       ShiftMapping(n, *spec) if isinstance(spec, tuple)
                                       else dict(spec))
                            for i, spec in enumerate(specs)])


@settings(max_examples=300, deadline=None)
@given(mixed_graphings())
@example((12, [(4, 0, 12), [(0, 5), (3, 3), (7, 2), (11, 6)]]))  # gcd(full, n) = 4, pairs with a loop
@example((10, [(3, 8, 4), [(1, 1), (2, 6), (9, 0)]]))             # no full view: p = n
@example((12, [(8, 0, 12), (5, 10, 7), [(6, 1)]]))                # partial view longer than p = 4
@example((30, [(12, 0, 30), (18, 0, 30), [(0, 3), (4, 4)]]))      # two full views, p = 6
@example((8, [[(0, 1), (1, 2), (5, 5)], [(1, 0)]]))               # pairs only, with an inverse copy
@example((12, [(4, 0, 12), (3, 2, 5), (3, 2, 5)]))                # views only, one repeated
@example((1, [(0, 0, 1)]))                                        # a full view on one atom: a loop
@example((6, [(1, 0, 5)]))                                        # a path, no full view: a treeing
@example((6, [[(0, 1)], [(0, 1)]]))                               # one pair repeated in two maps
@example((6, [[(0, 1)], [(1, 0)]]))                               # a mutually inverse pair
@example((5, [[]]))                                               # an empty map: a treeing
def test_mixed_view_and_dict_graphing_matches_oracle(case):
    # views and pair lists in any mix take the one Z/p path of generated_relation
    # and is_treeing; the reduction is checked too, since random graphings are seldom forests
    n, specs = case
    g = graphing_of(n, specs)
    assert generated_relation(g).parent == dict_relation(g).parent
    assert cost(g) == Fraction(sum(s[2] if isinstance(s, tuple) else len(s) for s in specs), n)
    for h in (g, reduce_to_treeing(g)):
        assert is_treeing(h) == entry_forest(h)


@settings(max_examples=300, deadline=None)
@given(mixed_graphings())
@example((12, [(5, 10, 4), (5, 0, 3), (17, 1, 2)]))  # one step thrice: a wrapping arc and overlaps
@example((10, [(0, 3, 4), [(4, 4), (5, 5), (1, 2)]]))  # a step-0 view beside dict loops
@example((10, [(3, 8, 4), [(9, 2), (5, 8)]]))          # (9, 2) already lies on the view, (5, 8) not
@example((6, [(2, 0, 6), (2, 3, 6)]))                  # two full views of one step
def test_nu_without_pairs_matches_edge_set_oracle(case):
    g = graphing_of(*case)
    assert nu(g) == nu_measure(to_edge_set(g))


def lift(r):
    """Oracle: the n-entry representative array, read one atom at a time."""
    return [r.base[x % len(r.base)] for x in range(r.space.n)]


def outcome(fn, *args):
    """fn's result, or the text of the ModelError it raised."""
    try:
        return fn(*args)
    except ModelError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(mixed_graphings(), st.integers(0, 20), st.lists(st.integers(0, 7), min_size=1, max_size=40))
@example((12, [(2, 0, 12)]), 3, [0, 1, 2, 1])            # gcd(full, n) = 2 against p = 4
@example((30, [(12, 0, 30), (18, 0, 30)]), 4, list(range(6)))  # two full views, p = 6
@example((12, [(8, 0, 12), (5, 10, 7)]), 5, [0])         # partial view longer than p = 4
@example((12, [(1, 0, 12)]), 0, [0])                     # p = 1 beside its 12-entry twin
@example((6, [[(0, 3)]]), 1, [0, 1])                     # a dict pair: p = n against p = 2
def test_periodic_relation_matches_lifted_oracle(case, period_pick, labels):
    # every reader of a periodic relation agrees with the same relation lifted to n entries
    n, specs = case
    space = FiniteSpace(n)
    g = graphing_of(n, specs)
    periods = [d for d in range(1, n + 1) if n % d == 0]
    p = periods[period_pick % len(periods)]
    first: dict[int, int] = {}
    r = Relation.periodic(space, [first.setdefault(labels[x % len(labels)], x) for x in range(p)])
    parent = lift(r)
    twin = Relation(space, parent)
    reps = [x for x in range(n) if parent[x] == x]
    assert r.parent == parent and r == twin and twin == r
    assert r.class_count() == len(reps)
    assert min_cost(r) == Fraction(n - len(reps), n)
    assert transversal(r).members == frozenset(reps)
    assert r.classes() == [[x for x in range(n) if parent[x] == rep] for rep in reps]
    assert dump_relation(r) == dump_relation(twin)
    oracle = dict_relation(g)
    assert generated_relation(g) == oracle
    assert generates(g, r) == (oracle.parent == parent)
    assert generates(g, oracle)
    assert (generated_relation(g) == r) == (oracle.parent == parent)
    assert dump_graphing(spanning_treeing(r)) == dump_graphing(spanning_treeing(twin))
    assert single_full_generator(r).pairs() == single_full_generator(twin).pairs()
    a = Subset(space, frozenset(x for x in range(n) if x % 3 != 1))
    for fn in (restrict_relation, compression_sides):
        assert outcome(fn, r, a) == outcome(fn, twin, a)


def test_relation_of_wrong_length_keeps_its_message():
    with pytest.raises(ModelError, match=r"^representative array has length 2, space has 3 atoms$"):
        Relation(FiniteSpace(3), [0, 0])


def test_curve_at_a_trillion_atoms_stores_the_period_only():
    sys = RotationSystem(10**12, {"a": 4, "b": 6})
    assert expected_relation(sys).base == [0, 1]
    g = epsilon_graphing(sys, "a", Arc(0, 3))
    assert generated_relation(g).base == [0, 1, 0, 1]
    assert generates(g, expected_relation(sys))
    assert not generates(epsilon_graphing(sys, "a", Arc(0, 1)), expected_relation(sys))


@st.composite
def big_rotations(draw):
    """n up to 10**18 with arcs of 1 to 1000 atoms; half the steps share a large gcd with n."""
    g = draw(st.integers(1, 10**9))
    n = g * draw(st.integers(1, 10**9))
    step = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        step = step // g * g  # gcd(step, n) >= g, so small arcs are often unreachable
    x, start = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return n, step, x, start, draw(st.integers(1, min(1000, n)))


@settings(max_examples=400, deadline=None)
@given(big_rotations())
@example((10**18, 2 * 10**17, 3, 5, 1000))     # unreachable: the arc misses the coset of 3
@example((10**18, 999999999999999999, 0, 10**18 - 500, 1000))
@example((10**18, 7, 0, 1, 0))                 # an empty arc is never entered
def test_hitting_time_matches_inverse_oracle_at_scale(case):
    n, step, x, start, length = case
    arc = Arc(start, length)
    expected = hit_by_inverse(n, step, x, arc)
    if expected is None:
        with pytest.raises(UnreachableArcError):
            first_hitting_time(n, step, x, arc)
    else:
        assert first_hitting_time(n, step, x, arc) == expected


def test_connection_path_example():
    sys = RotationSystem(10, {"a": 3, "b": 5})
    path = connection_path(sys, "a", "b", Arc(0, 1), 1)
    assert path.length == 7
    assert path.end == 6
    jumps = list(elementary(path, sys))
    assert [j[:2] for j in jumps] == [("a", 1)] * 3 + [("b", 1)] + [("a", -1)] * 3
    assert jumps[0][2] == 1 and jumps[-1][3] == 6


def test_connection_path_inside_arc_is_one_jump():
    sys = RotationSystem(10, {"a": 3, "b": 5})
    path = connection_path(sys, "a", "b", Arc(0, 5), 2)
    assert path.length == 1
    assert path.end == 7


def test_connection_path_endpoints_by_simulation():
    # walk every elementary jump and compare against x + s_b
    sys = RotationSystem(101, {"a": 1, "b": 39})
    arc = Arc(10, 4)
    rng = random.Random(7)
    for _ in range(100):
        x = rng.randrange(101)
        path = connection_path(sys, "a", "b", arc, x)
        z = x
        for _, _, src, tgt in elementary(path, sys):
            assert src == z
            z = tgt
        assert z == path.end == (x + 39) % 101
        assert path.length % 2 == 1


def test_connection_path_rejects_same_step():
    sys = RotationSystem(10, {"a": 3, "b": 5})
    with pytest.raises(ModelError):
        connection_path(sys, "a", "a", Arc(0, 1), 0)
    with pytest.raises(ModelError, match=r"^atom 10 outside 0\.\.9$"):
        connection_path(sys, "a", "b", Arc(0, 1), sys.n)


def test_curve_rows_are_exact():
    sys = RotationSystem(1000, {"a": 1, "b": 357})
    curve = cost_epsilon_curve(sys, "a", [Fraction(1, 10), "1/100", "1/1000"])
    assert [(row.arc_len, row.cost, row.generates) for row in curve.rows] == [
        (100, Fraction(11, 10), True),
        (10, Fraction(101, 100), True),
        (1, Fraction(1001, 1000), True),
    ]
    assert curve.infimum == 1


def test_curve_decimal_strings_read_exactly():
    sys = RotationSystem(100, {"a": 1, "b": 7})
    curve = cost_epsilon_curve(sys, "a", ["0.25"])
    assert curve.rows[0].eps == Fraction(1, 4)
    assert curve.rows[0].arc_len == 25


def test_curve_rejects_floats_and_bad_ranges():
    sys = RotationSystem(100, {"a": 1, "b": 7})
    with pytest.raises(ModelError, match="float"):
        cost_epsilon_curve(sys, "a", [0.1])
    with pytest.raises(ModelError):
        cost_epsilon_curve(sys, "a", ["0"])
    with pytest.raises(ModelError):
        cost_epsilon_curve(sys, "a", ["3/2"])


def test_curve_reads_eps_through_the_exponent_bound():
    sys = RotationSystem(10, {"a": 1, "b": 3})
    with pytest.raises(ModelError, match=r"^cannot read '1e-20000' as an exact ratio: "
                                         r"its decimal exponent passes 10000 in size$"):
        cost_epsilon_curve(sys, "a", ["1e-20000"])
    row, = cost_epsilon_curve(sys, "a", ["1e-10000"]).rows
    assert (row.eps, row.arc_len, row.cost) == (Fraction(1, 10**10000), 1, Fraction(11, 10))


def test_curve_without_coprime_full_step_claims_no_infimum():
    sys = RotationSystem(100, {"a": 2, "b": 3})
    curve = cost_epsilon_curve(sys, "a", ["1/2"])
    assert curve.infimum is None
    assert curve.rows[0].generates  # b|arc still bridges the even cosets here


def test_curve_detects_lost_generation():
    # with both steps even, tiny arcs cannot reconnect everything
    sys = RotationSystem(12, {"a": 4, "b": 6})
    curve = cost_epsilon_curve(sys, "a", ["1/12"])
    assert not curve.rows[0].generates


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 80), st.integers(1, 79), st.integers(0, 79), st.integers(1, 80))
def test_curve_cost_formula(n, s_full, s_other, length):
    sys = RotationSystem(n, {"u": s_full, "v": s_other})
    eps = Fraction(min(length, n), n)
    curve = cost_epsilon_curve(sys, "u", [eps])
    row = curve.rows[0]
    assert row.cost == 1 + Fraction(row.arc_len, n)
    assert row.arc_len == -(-eps.numerator * n // eps.denominator)


def test_million_atom_curve_values():
    # the classical 1 + eps family at n = 10**6, exact and still generating
    sys = RotationSystem(10**6, {"a": 1, "b": 357913})
    curve = cost_epsilon_curve(sys, "a", ["1/10", "1/100", "1/1000"])
    assert [row.cost for row in curve.rows] == [
        Fraction(11, 10), Fraction(101, 100), Fraction(1001, 1000)]
    assert all(row.generates for row in curve.rows)
    assert curve.infimum == 1
