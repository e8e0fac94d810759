"""Free products of cyclic groups: sampling contract and rank arithmetic."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcost import (
    GroupSpec,
    ModelError,
    PermAction,
    coincidence_report,
    compression_check,
    derive_seed,
    factor_cost,
    group_invariants,
    mix64,
    rank_gradient,
    sample_free_action,
    subgroup_rank,
)
from orbitcost import relcore, schreier
from orbitcost.schreier import _modeled_factor_cost
from orbitcost.unionfind import UnionFind


def check_permutation_oracle(perm, index):
    """Reference permutation check: sort and compare."""
    if len(perm) != index or sorted(perm) != list(range(index)):
        raise ModelError(f"each factor needs a permutation of 0..{index - 1}")


def cycle_lengths(perm):
    """Reference cycle walk over a list already known to be a permutation."""
    seen = [False] * len(perm)
    out = []
    for x in range(len(perm)):
        if not seen[x]:
            length = 0
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            out.append(length)
    return out


def factor_error_oracle(order, perm, index):
    """The per-factor check PermAction made with the sort and a second walk, as a message."""
    try:
        check_permutation_oracle(perm, index)
    except ModelError as e:
        return str(e)
    if order and any(length != order for length in cycle_lengths(perm)):
        return f"an order-{order} factor must act with every cycle of length {order}"
    return None


def transitive_oracle(perms, index):
    """Reference transitivity: one union per (coset, image) pair, then one component."""
    uf = UnionFind(index)
    for perm in perms:
        for x, y in enumerate(perm):
            uf.union(x, y)
    return uf.components == 1


def factor_perm_oracle(order, index, rng):
    """Reference draw: the same shuffle, each order-sized block closed into a cycle one by one."""
    pts = list(range(index))
    rng.shuffle(pts)
    if order == 0:
        return pts
    perm = [0] * index
    for base in range(0, index, order):
        block = pts[base:base + order]
        for pos, x in enumerate(block):
            perm[x] = block[(pos + 1) % order]
    return perm


# ---------------------------------------------------------------- specs

def test_spec_rejects_order_one_and_empty():
    with pytest.raises(ModelError):
        GroupSpec(())
    with pytest.raises(ModelError):
        GroupSpec((2, 1))
    with pytest.raises(ModelError):
        GroupSpec((-2,))


def test_factor_costs():
    assert factor_cost(0) == 1
    assert factor_cost(2) == Fraction(1, 2)
    assert factor_cost(3) == Fraction(2, 3)


def test_modular_group_invariants():
    inv = group_invariants(GroupSpec((3, 2)))
    assert inv.factor_costs == (Fraction(2, 3), Fraction(1, 2))
    assert inv.predicted_cost == Fraction(7, 6)
    assert inv.beta1 == Fraction(1, 6)
    assert inv.rank == 2


def test_free_group_invariants():
    inv = group_invariants(GroupSpec((0, 0, 0)))
    assert inv.predicted_cost == 3
    assert inv.beta1 == 2


def test_infinite_dihedral_invariants():
    inv = group_invariants(GroupSpec((2, 2)))
    assert inv.predicted_cost == 1
    assert inv.beta1 == 0


# ---------------------------------------------------------------- actions

def test_action_validates_torsion_cycles():
    spec = GroupSpec((2,))
    PermAction(spec, 2, [[1, 0]])
    with pytest.raises(ModelError, match="every cycle of length 2"):
        PermAction(spec, 2, [[0, 1]])  # identity has two fixed points


def test_action_validates_transitivity():
    spec = GroupSpec((0,))
    with pytest.raises(ModelError, match="transitively"):
        PermAction(spec, 4, [[1, 0, 3, 2]])


def test_action_validates_permutations():
    with pytest.raises(ModelError):
        PermAction(GroupSpec((0,)), 3, [[0, 0, 1]])


@pytest.mark.parametrize("perm", [[1.5, 0], [1.0, 0], ["a", 0]],
                         ids=["float", "integral-float", "str"])
def test_action_refuses_entries_that_are_not_ints(perm):
    with pytest.raises(ModelError, match=r"^each factor needs a permutation of 0\.\.1$"):
        PermAction(GroupSpec((0,)), 2, [perm])


@st.composite
def factor_lists(draw):
    """An order, an index and an int list that is often not a permutation of 0..index-1."""
    order = draw(st.sampled_from([0, 2, 3, 4]))
    index = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["permutation", "free at torsion", "any ints"]))
    if kind == "permutation":  # cycle lengths are mostly wrong at torsion
        return order, index, draw(st.permutations(range(index)))
    if kind == "free at torsion":
        blocks = draw(st.integers(1, 4))
        index = (order or 1) * blocks
        return order, index, factor_perm_oracle(order, index, random.Random(draw(st.integers())))
    size = draw(st.sampled_from([index, index, index - 1, index + 1]))
    return order, index, draw(st.lists(st.integers(-3, index + 2), min_size=size, max_size=size))


@settings(max_examples=400, deadline=None)
@given(factor_lists())
@example((0, 3, [0, 0, 1]))  # a repeat
@example((0, 2, [1, -1]))  # a negative entry would index the seen array from the end
@example((0, 3, [1, 2, 3]))  # out of range
@example((0, 3, [1, 0]))  # too short
@example((2, 4, [1, 2, 3, 0]))  # a 4-cycle for an order-2 factor
@example((2, 4, [1, 0, 3, 2]))
@example((0, 2, [0, 0]))  # the second walk runs into the first cycle
def test_cycle_walk_matches_the_sort_and_walk_oracle(case):
    order, index, perm = case
    expected = factor_error_oracle(order, perm, index)
    cycle = list(range(1, index)) + [0]  # a second factor that makes any action transitive
    spec = GroupSpec((order, 0))
    if expected is None:
        assert schreier._cycle_lengths(perm, index) == cycle_lengths(perm)
        act = PermAction(spec, index, [perm, cycle])
        assert act.cycle_counts == (len(cycle_lengths(perm)), 1)
    else:
        with pytest.raises(ModelError) as caught:
            PermAction(spec, index, [perm, cycle])
        assert str(caught.value) == expected


# ---------------------------------------------------------------- sampling

def test_sampled_action_postconditions():
    act = sample_free_action(GroupSpec((2, 3)), 6, 42)
    sigma, tau = act.perms
    assert cycle_lengths(sigma) == [2, 2, 2]
    assert cycle_lengths(tau) == [3, 3]


def test_sampling_is_deterministic_per_seed():
    spec = GroupSpec((2, 3))
    a = sample_free_action(spec, 12, 99)
    b = sample_free_action(spec, 12, 99)
    c = sample_free_action(spec, 12, 100)
    assert a.perms == b.perms
    assert a.perms != c.perms  # 64-bit streams separate neighbouring seeds


def test_sampling_rejects_bad_divisibility():
    with pytest.raises(ModelError, match="does not divide"):
        sample_free_action(GroupSpec((2, 3)), 7, 0)


def test_sampling_gives_up_when_transitivity_is_impossible():
    # a lone order-2 factor can never walk across four cosets
    with pytest.raises(ModelError, match="no transitive action"):
        sample_free_action(GroupSpec((2,)), 4, 0)


def test_lone_torsion_factor_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled a permutation")

    monkeypatch.setattr(schreier, "_sample_factor_perm", no_draws)
    with pytest.raises(ModelError, match="lone order-3 factor acts transitively only at index 3"):
        sample_free_action(GroupSpec((3,)), 9, 0)


def test_sampler_draw_budget_cuts_the_attempts(monkeypatch):
    # three attempts of 6 x 2 cosets fit the budget, a fourth does not
    drawn = []

    def counted(order, index, rng):
        drawn.append(index)
        return factor_perm_oracle(order, index, rng)

    monkeypatch.setattr(schreier, "MAX_SAMPLER_DRAWS", 3 * 6 * 2 + 11)
    monkeypatch.setattr(schreier, "_transitive", lambda perms, index: False)
    monkeypatch.setattr(schreier, "_sample_factor_perm", counted)
    with pytest.raises(ModelError, match=r"^no transitive action found in 3 attempts "
                                         r"for orders \[2, 3\] at index 6$"):
        sample_free_action(GroupSpec((2, 3)), 6, 0)
    assert drawn == [6] * 6


def test_largest_sampled_calls_keep_every_attempt():
    # (3,3,3) at 1200 has the most cosets per attempt of any call in the tests and benchmark
    # plans that can reject; a lone factor is accepted on its first draw
    assert schreier.MAX_SAMPLER_DRAWS // (1200 * 3) >= schreier.MAX_ATTEMPTS == 10_000
    # the largest call the coset cap admits still gets attempts to spare
    assert schreier.MAX_SAMPLER_DRAWS // schreier.MAX_SAMPLER_COSETS >= 20


def test_sampling_gives_up_after_max_attempts(monkeypatch):
    # every draw is rejected, so the sampler must stop at the cap
    monkeypatch.setattr(schreier, "MAX_ATTEMPTS", 2)
    monkeypatch.setattr(schreier, "_transitive", lambda perms, index: False)
    with pytest.raises(ModelError, match="no transitive action found in 2 attempts"):
        sample_free_action(GroupSpec((2, 3)), 6, 0)


def test_lone_infinite_factor_draws_one_cycle_without_rejection(monkeypatch):
    # a uniform permutation of 4000 cosets is one cycle once in 4000 draws
    monkeypatch.setattr(schreier, "MAX_ATTEMPTS", 1)
    act = sample_free_action(GroupSpec((0,)), 4000, 0)
    assert cycle_lengths(act.perms[0]) == [4000]
    assert subgroup_rank(act) == 1


def test_single_infinite_factor_finds_a_cycle():
    act = sample_free_action(GroupSpec((0,)), 5, 0)
    assert cycle_lengths(act.perms[0]) == [5]
    assert subgroup_rank(act) == 1


@pytest.mark.parametrize("perms, index, expected", [
    ([[0]], 1, True),
    ([[0, 1, 2], [0, 1, 2]], 3, False),
    ([[1, 0, 3, 2, 5, 4], [3, 2, 1, 0, 5, 4]], 6, False),  # involutions stuck on 0..3
    ([[1, 2, 3, 4, 0]], 5, True),
    ([[0, 2, 1], [0, 1, 2]], 3, False),  # 1 and 2 meet, 0 is fixed
], ids=["index-1", "identities", "involutions", "index-cycle", "fixed-zero"])
def test_transitive_pins(perms, index, expected):
    assert schreier._transitive(perms, index) is transitive_oracle(perms, index) is expected


def assert_shuffle_matches_random(length, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    x, y = list(range(length)), list(range(length))
    schreier._shuffle(ours, x)
    theirs.shuffle(y)
    assert x == y
    assert ours.getstate() == theirs.getstate()  # the same words drawn, not one more


# lengths where (i + 1).bit_length() steps down, and where the word fetch is split
SHUFFLE_PINS = sorted({*range(6), *(2**k + d for k in range(13) for d in (-1, 0, 1))})


@pytest.mark.parametrize("length", SHUFFLE_PINS)
def test_shuffle_pins(length):
    for seed in (0, 1, 2**64 - 1):
        assert_shuffle_matches_random(length, seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**64 - 1))
def test_shuffle_matches_random_shuffle(length, seed):
    assert_shuffle_matches_random(length, seed)


@st.composite
def permutation_tuples(draw):
    index = draw(st.integers(1, 24))
    k = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(index))) for _ in range(k)]
    return perms, index


@settings(max_examples=300, deadline=None)
@given(permutation_tuples())
def test_transitive_matches_union_find_oracle(case):
    perms, index = case
    assert schreier._transitive(perms, index) == transitive_oracle(perms, index)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 3, 4, 5, 6]), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**64 - 1))
@example(2, 1, False, 0)  # index is one block
@example(6, 1, False, 1)
@example(0, 1, True, 2)  # a lone factor on one coset
@example(5, 12, True, 3)  # a lone factor: one 60-cycle
def test_factor_perm_matches_block_oracle(order, blocks, lone, seed):
    index = (order or 1) * blocks
    if lone:
        order = index  # the lone-factor path draws one index-cycle
    assert (schreier._sample_factor_perm(order, index, random.Random(seed))
            == factor_perm_oracle(order, index, random.Random(seed)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0, 2, 3, 4]), min_size=2, max_size=3),
       st.integers(1, 6), st.integers(0, 2**64 - 1))
def test_sampler_matches_a_sampler_built_on_the_oracles(orders, scale, seed):
    spec = GroupSpec(tuple(orders))
    index = math.lcm(*(m for m in orders if m)) * scale
    act = sample_free_action(spec, index, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schreier, "_transitive", transitive_oracle)
        mp.setattr(schreier, "_sample_factor_perm", factor_perm_oracle)
        assert sample_free_action(spec, index, seed).perms == act.perms
    assert PermAction(spec, index, act.perms).perms == act.perms


@pytest.mark.parametrize("orders, index, seed, perms", [
    ((2, 2), 12, 0, [[8, 3, 10, 1, 11, 9, 7, 6, 0, 5, 2, 4],
                     [5, 2, 1, 8, 7, 0, 9, 4, 3, 6, 11, 10]]),  # third attempt
    ((2, 3), 12, 9, [[3, 5, 11, 0, 7, 1, 10, 4, 9, 8, 6, 2],
                     [4, 11, 6, 10, 8, 2, 5, 3, 0, 1, 7, 9]]),  # second attempt
    ((0, 0, 2), 8, 30, [[0, 4, 7, 5, 1, 6, 2, 3], [1, 4, 6, 5, 0, 2, 7, 3],
                        [2, 3, 0, 1, 5, 4, 7, 6]]),  # second attempt
], ids=["2,2", "2,3", "0,0,2"])
def test_seeded_draws_are_pinned(orders, index, seed, perms):
    # the CLI prints only ranks, so these literals are what hold the seeded permutations
    spec = GroupSpec(orders)
    assert sample_free_action(spec, index, seed).perms == perms
    assert PermAction(spec, index, perms).perms == perms


def test_sampler_refuses_past_the_coset_cap_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled a permutation")

    monkeypatch.setattr(schreier, "_sample_factor_perm", no_draws)
    cap = schreier.MAX_SAMPLER_COSETS
    with pytest.raises(ModelError, match=f"at most {cap} cosets .* got {cap // 2 + 1} x 2$"):
        sample_free_action(GroupSpec((0, 0)), cap // 2 + 1, 0)
    with pytest.raises(ModelError, match=f"got {cap + 1} x 1$"):
        sample_free_action(GroupSpec((0,)), cap + 1, 0)


def test_mixing_is_stable():
    # frozen values pin the mixing function across releases
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert derive_seed(0, 0, 0) == derive_seed(0, 0, 0)
    assert derive_seed(0, 0, 0) != derive_seed(0, 0, 1)
    assert derive_seed(0, 1, 0) != derive_seed(0, 0, 1)
    assert 0 <= derive_seed(2**64 - 1, 57, 123456) < 2**64


# ---------------------------------------------------------------- ranks

def test_modular_group_rank_at_index_six():
    act = sample_free_action(GroupSpec((2, 3)), 6, 42)
    assert subgroup_rank(act) == 2


def test_free_group_rank_formula():
    act = sample_free_action(GroupSpec((0, 0)), 3, 1)
    assert subgroup_rank(act) == 4  # 1 + 3(2-1)


def test_rank_formula_spot_checks():
    # hand-built torsion action: sigma = (01)(23), tau = (12)(30) on 4 cosets
    act = PermAction(GroupSpec((2, 2)), 4, [[1, 0, 3, 2], [3, 2, 1, 0]])
    assert subgroup_rank(act) == 1


def test_compression_check_examples():
    lhs, rhs = compression_check(GroupSpec((2, 3)), 60, 5)
    assert lhs == rhs == 10
    lhs, rhs = compression_check(GroupSpec((0, 0, 0)), 4, 5)
    assert lhs == rhs == 8


def test_rank_gradient_is_flat_for_modular_group():
    rows = rank_gradient(GroupSpec((2, 3)), range(6, 61, 6), 3)
    assert all(row.gradient == Fraction(1, 6) for row in rows)
    assert all(row.matches_beta1 for row in rows)


def test_rank_gradient_vanishes_for_infinite_dihedral():
    rows = rank_gradient(GroupSpec((2, 2)), [2, 4, 8, 20, 60], 3)
    assert all(row.gradient == 0 for row in rows)
    assert all(row.rank == 1 for row in rows)


@pytest.mark.parametrize("indices", [[], range(6, 3)])
def test_rank_gradient_rejects_an_empty_index_list(indices):
    with pytest.raises(ModelError, match="at least one index"):
        rank_gradient(GroupSpec((2, 3)), indices, 0)


@pytest.mark.parametrize("indices", [
    range(6, 10**12, 6),
    (6 * k for k in itertools.count(1)),
    [6] * (schreier.MAX_GRADIENT_ROWS + 1),
], ids=["range", "generator", "list"])
def test_rank_gradient_refuses_past_the_row_cap_before_any_draw(monkeypatch, indices):
    def no_draws(*args):
        raise AssertionError("sampled a permutation")

    monkeypatch.setattr(schreier, "_sample_factor_perm", no_draws)
    with pytest.raises(ModelError, match=rf"^rank gradient samples at most "
                                         rf"{schreier.MAX_GRADIENT_ROWS} rows \(indices times "
                                         rf"samples\)$"):
        rank_gradient(GroupSpec((2, 3)), indices, 0)


def test_rank_gradient_resampling_exercises_the_invariant():
    rows = rank_gradient(GroupSpec((0, 0)), [5], 11, samples=4)
    assert len(rows) == 4
    assert {row.gradient for row in rows} == {Fraction(1)}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0, 2, 3, 4]), min_size=1, max_size=3),
       st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_gradient_equals_beta1_for_any_sample(orders, scale, seed):
    spec = GroupSpec(tuple(orders))
    index = math.lcm(*(m for m in orders if m)) * scale
    if len(orders) == 1 and orders[0] and index > orders[0]:
        return  # a lone torsion factor is only transitive on its own order
    try:
        act = sample_free_action(spec, index, seed)
    except ModelError:
        return  # transitivity can be genuinely unreachable, e.g. [2] at 4
    p = subgroup_rank(act)
    assert Fraction(p - 1, index) == group_invariants(spec).beta1


# ---------------------------------------------------------------- coincidence

def test_coincidence_report_rows():
    rows = coincidence_report([(2, 3), (0, 0), (2, 2)], 120, 0)
    by_orders = {row.factor_orders: row for row in rows}
    psl = by_orders[(2, 3)]
    assert psl.predicted_cost == Fraction(7, 6)
    assert psl.measured_cost == Fraction(7, 6)
    assert psl.modeled_factor_costs == (Fraction(1, 2), Fraction(2, 3))
    assert sum(psl.modeled_factor_costs) == Fraction(7, 6)
    assert all(row.match for row in rows)
    assert by_orders[(0, 0)].measured_cost == 2
    assert by_orders[(2, 2)].measured_cost == 1


def test_coincidence_lone_torsion_factor_uses_its_order():
    row = coincidence_report([(5,)], 120, 0)[0]
    assert row.index == 5
    assert row.measured_cost == row.predicted_cost == Fraction(4, 5)


def test_coincidence_rejects_oversized_torsion():
    with pytest.raises(ModelError):
        coincidence_report([(7, 11)], 10, 0)


def test_coincidence_prices_an_order_above_ten_thousand():
    row = coincidence_report([(10007,)], 10007, 0)[0]
    assert row.modeled_factor_costs == (Fraction(10006, 10007),)
    assert row.match


def many_class_factor_cost(order, atoms):
    """Re-price a factor on as many classes of its size as fit in atoms."""
    if order == 0:
        space = relcore.FiniteSpace(atoms)
        psi = relcore.single_full_generator(relcore.Relation(space, [0] * atoms))
        return relcore.cost(relcore.Graphing(space, [psi]))
    n = order * (atoms // order)
    rel = relcore.Relation(relcore.FiniteSpace(n), [x - x % order for x in range(n)])
    return relcore.min_cost(rel)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0]) | st.integers(2, 300), st.integers(300, 2000))
def test_modeled_factor_cost_matches_many_class_oracle(order, atoms):
    assert _modeled_factor_cost(order) == many_class_factor_cost(order, atoms) == factor_cost(order)
