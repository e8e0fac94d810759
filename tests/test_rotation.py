"""Rotation systems: shift views and hitting times against explicit oracles, path identities."""
import math
import random
import re
from fractions import Fraction
from unittest.mock import patch

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
    Segment,
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
    rotation,
    single_full_generator,
    spanning_treeing,
    to_edge_set,
    transversal,
)
from orbitcost.files import dump_graphing, dump_relation
from orbitcost.relcore import _quotient
from orbitcost.unionfind import UnionFind
from test_relcore import arc_atoms


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
        sources = range(n) if name == full_step else arc_atoms(arc, n)
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
    for t in arc_atoms(arc, n):
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
    assert arc_atoms(arc, 10) == [8, 9, 0, 1]
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
    # the graphing and the curve refuse by one rule, with one text
    for build in (lambda sys, full: epsilon_graphing(sys, full, Arc(0, 1)),
                  lambda sys, full: cost_epsilon_curve(sys, full, ["1/2"])):
        with pytest.raises(ModelError,
                           match="^need at least two steps to restrict against a full one$"):
            build(RotationSystem(5, {"a": 1}), "a")
        with pytest.raises(ModelError, match="^no step named 'zz'$"):
            build(RotationSystem(5, {"a": 1, "b": 2}), "zz")


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


def test_hitting_time_matches_walking_oracle_exhaustively():
    # every step, start offset and arc length up to n = 24, wrapping arcs included
    for n in range(1, 25):
        for step in range(n):
            for start in range(n):
                for length in range(n + 1):
                    arc = Arc(start, length)
                    expected = hit_by_walking(n, step, 0, arc)
                    if expected is None:
                        with pytest.raises(UnreachableArcError):
                            first_hitting_time(n, step, 0, arc)
                    else:
                        assert first_hitting_time(n, step, 0, arc) == expected


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
    r = Relation(FiniteSpace(12), [0, 0, 2, 0])
    assert r.base == [0, 0, 2, 0] and r.parent == [0, 0, 2, 0] * 3
    assert r.parent == Relation(FiniteSpace(12), r.parent).parent
    assert not hasattr(Relation, "periodic")  # the constructor takes any period dividing n


@pytest.mark.parametrize("n, base", [
    (12, [0] * 5),       # 5 does not divide 12
    (12, []),            # no period at all
    (12, [0, 0, 1]),     # representative 1 is not its own representative
    (12, [0, 2, 2]),     # representative above its atom
    (12, [1, 1]),        # not the least atom of its class
])
def test_periodic_relation_rejections(n, base):
    with pytest.raises(ModelError):
        Relation(FiniteSpace(n), base)


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
    r = Relation(space, [first.setdefault(labels[x % len(labels)], x) for x in range(p)])
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


def lifted_relation_check(n, base):
    """Oracle: base lifted to n entries and checked atom by atom; None or the error text."""
    p = len(base)
    if p == 0 or n % p:
        return f"representative array has length {p}, space has {n} atoms"
    parent = [base[x % p] for x in range(n)]
    for x in range(n):
        r = parent[x]
        if not 0 <= r <= x:
            return f"atom {x}: representative {r} is not an atom <= {x}"
        if parent[r] != r:
            return f"atom {x}: representative {r} is not its own representative"
    return None


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 24), st.integers(0, 30), st.lists(st.integers(0, 29), max_size=30),
       st.sampled_from(["divisor", "any length"]),
       st.none() | st.tuples(st.integers(0, 29), st.integers(-1, 30)))
@example(12, 0, [], "any length", None)         # empty: no period
@example(12, 5, [0] * 5, "any length", None)    # 5 does not divide 12
@example(12, 2, [0, 0, 2], "divisor", (1, 2))   # [0, 2, 2]: representative above its atom
@example(12, 2, [0, 0, 2], "divisor", (2, 1))   # [0, 0, 1]: 1 is not its own representative
@example(12, 4, [0, 0, 2, 0], "divisor", None)  # a period dividing n, stored unlifted
def test_relation_accepts_exactly_canonical_bases_of_a_dividing_length(n, pick, labels, length,
                                                                       edit):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    p = divisors[pick % len(divisors)] if length == "divisor" else pick
    first: dict[int, int] = {}
    base = [first.setdefault(labels[x] if x < len(labels) else x, x) for x in range(p)]
    if edit is not None and base:
        base[edit[0] % p] = edit[1]
    expected = lifted_relation_check(n, base)
    if expected is None:
        r = Relation(FiniteSpace(n), base)
        assert r.base is base and r.parent == [base[x % p] for x in range(n)]
    else:
        with pytest.raises(ModelError, match=f"^{re.escape(expected)}$"):
            Relation(FiniteSpace(n), base)


def test_curve_at_a_trillion_atoms_stores_the_period_only():
    sys = RotationSystem(10**12, {"a": 4, "b": 6})
    assert expected_relation(sys).base == [0, 1]
    g = epsilon_graphing(sys, "a", Arc(0, 3))
    assert generated_relation(g).base == [0, 1, 0, 1]
    assert generates(g, expected_relation(sys))
    assert not generates(epsilon_graphing(sys, "a", Arc(0, 1)), expected_relation(sys))


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


FIB_1399, FIB_1400 = fibonacci(1399), fibonacci(1400)


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
@example((10**4000, 3**8000 % 10**4000, 12345, 7, 3))  # thousands of Euclid levels
@example((FIB_1400, FIB_1399, 1, 0, 1))         # consecutive Fibonacci numbers: the most levels
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


@st.composite
def coarse_paths(draw):
    """A full step sharing a factor g > 1 with n, any restricted step, and any arc and atom."""
    g = draw(st.integers(2, 12))
    n = g * draw(st.integers(1, 30))
    sa, sb = g * draw(st.integers(-40, 40)), draw(st.integers(-500, 500))
    arc = Arc(draw(st.integers(0, n - 1)), draw(st.integers(0, n)))
    return RotationSystem(n, {"a": sa, "b": sb}), arc, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(coarse_paths())
@example((RotationSystem(12, {"a": 4, "b": 7}), Arc(10, 4), 3))  # the arc wraps past 11
@example((RotationSystem(12, {"a": 0, "b": 5}), Arc(11, 2), 0))  # s_a = 0: x is in the arc
def test_connection_path_postconditions(case):
    sys, arc, x = case
    n, sa, sb = sys.n, sys.steps["a"], sys.steps["b"]
    try:
        m = first_hitting_time(n, sa, x, arc)
    except UnreachableArcError:
        return
    # arc membership is first_hitting_time's contract, which connection_path does not re-check
    with patch.object(Arc, "contains", side_effect=AssertionError("re-checked the arc")):
        path = connection_path(sys, "a", "b", arc, x)
    assert path.end == (x + sb) % n
    assert path.hit == (x + m * sa) % n and arc.contains(path.hit, n)
    assert path.length == 2 * m + 1
    middle = [Segment("b", 1, 1)]
    assert path.segments == ([Segment("a", 1, m), *middle, Segment("a", -1, m)] if m else middle)
    assert [j[3] for j in elementary(path, sys)][-1] == path.end


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


@pytest.mark.parametrize("eps_values", [
    lambda: (0.5 for _ in range(1000)),
    lambda: [0.5] * 4,
], ids=["generator", "list"])
def test_curve_refuses_past_the_row_cap_before_reading_an_eps(monkeypatch, eps_values):
    # floats are refused as each is parsed, so the cap line shows that none was; the generator
    # is finite, so a lost islice fails on its count instead of reading without end
    monkeypatch.setattr(rotation, "MAX_CURVE_ROWS", 3)
    sys = RotationSystem(10, {"a": 1, "b": 3})
    read = []
    values = (read.append(v) or v for v in eps_values())
    with pytest.raises(ModelError, match=r"^an eps curve takes at most 3 eps values$"):
        cost_epsilon_curve(sys, "a", values)
    assert len(read) == 4
    assert len(cost_epsilon_curve(sys, "a", ["1/2"] * 3).rows) == 3


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


def curve_by_expected_relation(sys, full_step, eps_values):
    """Oracle: each row builds its graphing's relation and compares it with the gcd cosets."""
    expected = expected_relation(sys)
    rows = []
    for value in eps_values:
        eps = Fraction(value)
        arc_len = -(-eps.numerator * sys.n // eps.denominator)
        g = epsilon_graphing(sys, full_step, Arc(0, arc_len))
        rows.append((eps, arc_len, cost(g), generates(g, expected)))
    return rows, Fraction(1) if math.gcd(sys.steps[full_step], sys.n) == 1 else None


@st.composite
def curve_systems(draw):
    """n <= 200 (n = 1 included) with two to four steps, zeros and a common factor frequent."""
    common = draw(st.sampled_from([1, 2, 3, 4, 6]))
    n = common * draw(st.integers(1, 200 // common))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(0, 200).map(lambda s: s * common)),
                          min_size=2, max_size=4))
    sys = RotationSystem(n, {f"s{i}": s for i, s in enumerate(steps)})
    full_step = f"s{draw(st.integers(0, len(steps) - 1))}"
    p = math.gcd(n, sys.steps[full_step])
    lengths = [p - 1, p, p + 1, draw(st.integers(1, n))]
    eps = [Fraction(length, n) for length in lengths if 1 <= length <= n]
    return sys, full_step, eps + [draw(st.fractions(0, 1).filter(bool))]


@settings(max_examples=400, deadline=None)
@given(curve_systems())
@example((RotationSystem(1, {"a": 0, "b": 0}), "a", [Fraction(1)]))
@example((RotationSystem(12, {"a": 4, "b": 6}), "a", [Fraction(3, 12), Fraction(4, 12)]))
@example((RotationSystem(12, {"a": 0, "b": 0, "c": 6}), "b", [Fraction(1, 12)]))
def test_curve_generates_by_gcd_matches_relation_oracle(case):
    sys, full_step, eps = case
    curve = cost_epsilon_curve(sys, full_step, eps)
    rows, infimum = curve_by_expected_relation(sys, full_step, eps)
    assert [(row.eps, row.arc_len, row.cost, row.generates) for row in curve.rows] == rows
    assert curve.infimum == infimum


def test_curve_answers_past_the_atom_cap_when_the_arc_meets_every_coset():
    # p = gcd(10**8, 5 * 10**7) = 5 * 10**7 and g = 1: an arc of p atoms answers by the rule,
    # a shorter one needs the Z/p union-find, which is refused before it is allocated
    sys = RotationSystem(10**8, {"a": 5 * 10**7, "b": 1})
    row, = cost_epsilon_curve(sys, "a", ["1/2"]).rows
    assert (row.arc_len, row.cost, row.generates) == (5 * 10**7, Fraction(3, 2), True)
    with pytest.raises(ModelError, match=r"^a union-find or per-atom list holds at most "
                                         r"10000000 atoms, got 50000000$"):
        cost_epsilon_curve(sys, "a", ["1/100000000"])
    # every eps is checked before the first row asks for that union-find
    with pytest.raises(ModelError, match=r"^eps must lie in \(0, 1\], got 2$"):
        cost_epsilon_curve(sys, "a", ["1/100000000", "2"])


def curve_by_graphing(sys, full_step, epsilons):
    """Oracle: every row builds its epsilon_graphing, then reads its cost and its class count."""
    g = math.gcd(sys.n, *sys.steps.values())
    rows = []
    for eps in epsilons:
        arc_len = -(-eps.numerator * sys.n // eps.denominator)
        graphing = epsilon_graphing(sys, full_step, Arc(0, arc_len))
        rows.append((eps, arc_len, cost(graphing), _quotient(graphing).components == g))
    return rows


@st.composite
def priced_curves(draw):
    """n <= 300 with two or three steps; half the full steps share a factor with n.

    Arcs fall both shorter than p = gcd(n, full step), one to six of them so that the least
    generating length falls among them, and at least p long; the restricted steps are often
    multiples of p, so that g == p as well as g != p.
    """
    if draw(st.booleans()):
        factor = draw(st.sampled_from([2, 3, 4, 5, 6]))
        n = factor * draw(st.integers(1, 300 // factor))
        full = factor * draw(st.integers(0, n))
    else:
        n = draw(st.integers(1, 300))
        full = draw(st.integers(0, 2 * n).filter(lambda s: math.gcd(n, s) == 1))
    p = math.gcd(n, full)
    others = draw(st.lists(st.one_of(st.integers(0, 2 * n), st.integers(0, n).map(p.__mul__)),
                           min_size=1, max_size=2))
    sys = RotationSystem(n, {"full": full, **{f"s{i}": s for i, s in enumerate(others)}})
    lengths = draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6)) if p > 1 else []
    lengths.append(draw(st.integers(min(p, n), n)))
    eps = [Fraction(length, n) for length in lengths]
    return sys, eps + [draw(st.fractions(0, 1, max_denominator=10**4).filter(bool))]


@settings(max_examples=300, deadline=None)
@given(priced_curves())
@example((RotationSystem(1, {"full": 0, "s0": 0}), [Fraction(1)]))
@example((RotationSystem(12, {"full": 4, "s0": 6}), [Fraction(3, 12), Fraction(4, 12)]))
@example((RotationSystem(12, {"full": 4, "s0": 8, "s1": 4}), [Fraction(1, 12)]))  # g == p
def test_curve_prices_by_formula_and_builds_only_the_counted_rows(case):
    sys, eps = case
    with patch.object(rotation, "epsilon_graphing", wraps=epsilon_graphing) as built:
        curve = cost_epsilon_curve(sys, "full", eps)
    rows = [(row.eps, row.arc_len, row.cost, row.generates) for row in curve.rows]
    assert rows == curve_by_graphing(sys, "full", eps)
    # a graphing is built only to bisect the k distinct lengths below p when g != p: at most
    # ceil(log2(k + 1)) of them, each on one of those lengths
    g = math.gcd(sys.n, *sys.steps.values())
    p = math.gcd(sys.n, sys.steps["full"])
    short = {row.arc_len for row in curve.rows if row.arc_len < p}
    calls = [call.args for call in built.call_args_list]
    assert len(calls) <= (0 if g == p else len(short).bit_length())
    assert all(args == (sys, "full", Arc(0, args[2].length)) and args[2].length in short
               for args in calls)


def test_million_atom_curve_values():
    # the classical 1 + eps family at n = 10**6, exact and still generating
    sys = RotationSystem(10**6, {"a": 1, "b": 357913})
    curve = cost_epsilon_curve(sys, "a", ["1/10", "1/100", "1/1000"])
    assert [row.cost for row in curve.rows] == [
        Fraction(11, 10), Fraction(101, 100), Fraction(1001, 1000)]
    assert all(row.generates for row in curve.rows)
    assert curve.infimum == 1
