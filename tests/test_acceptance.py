"""End-to-end gate: nine checks, each printing a PASS line when it holds.

Run with -s to see the lines; every check uses exact arithmetic and the
stated wall-clock ceilings.
"""
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from orbitcost import (
    Arc,
    Graphing,
    GroupSpec,
    Relation,
    RotationSystem,
    Subset,
    brute_force_min_cost,
    coincidence_report,
    compression_check,
    compression_sides,
    connection_path,
    cost,
    epsilon_graphing,
    expected_relation,
    first_hitting_time,
    first_return_map,
    generated_relation,
    generates,
    group_invariants,
    is_treeing,
    min_cost,
    orbit_exponent,
    rank_gradient,
    reduce_to_treeing,
    sample_free_action,
    single_full_generator,
    spanning_treeing,
    subgroup_rank,
    transversal,
)
from orbitcost.cli import main
from orbitcost.relcore import FiniteSpace, PartialMap


def random_relation(rng, n):
    """Random partition of n atoms, built straight into canonical form."""
    labels = {}
    parent = []
    for x in range(n):
        lab = rng.randrange(max(1, n // 2))
        parent.append(labels.setdefault(lab, x))
    return Relation(FiniteSpace(n), parent)


def random_graphing(rng, n, max_maps=4):
    space = FiniteSpace(n)
    maps = []
    for j in range(rng.randint(1, max_maps)):
        perm = list(range(n))
        rng.shuffle(perm)
        dom = rng.sample(range(n), rng.randint(0, n))
        maps.append(PartialMap(f"m{j}", space, {x: perm[x] for x in dom}))
    return Graphing(space, maps)


def test_criterion_1_epsilon_cost_and_paths():
    t0 = time.monotonic()
    n = 10**6
    sys_ = RotationSystem(n, {"a": 1, "b": 357913})
    arc = Arc(0, 1000)
    g = epsilon_graphing(sys_, "a", arc)
    assert cost(g) == Fraction(1001, 1000)
    assert generates(g, expected_relation(sys_))
    rng = random.Random(11)
    for x in rng.sample(range(n), 1000):
        path = connection_path(sys_, "a", "b", arc, x)
        m = first_hitting_time(n, 1, x, arc)
        assert path.length == 2 * m + 1
        assert path.length % 2 == 1
        assert path.end == (x + 357913) % n
        assert arc.contains(path.hit, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nPASS 1: epsilon graphing costs 1001/1000 and every sampled "
          f"restricted jump factors through 2m+1 full jumps ({elapsed:.2f}s)")


def test_criterion_2_treeing_realizes_min_cost():
    t0 = time.monotonic()
    rng = random.Random(22)
    for trial in range(1000):
        n = rng.randint(1, 500) if trial % 10 else rng.randint(501, 10**4)
        r = random_relation(rng, n)
        t = spanning_treeing(r)
        assert is_treeing(t)
        assert generates(t, r)
        assert cost(t) == min_cost(r) == 1 - transversal(r).measure
    checked = 0
    while checked < 100:
        r = random_relation(rng, rng.randint(1, 10))
        universe = sum(s * (s - 1) // 2 for s in map(len, r.classes()))
        if universe > 20:
            continue
        assert brute_force_min_cost(r) == min_cost(r)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS 2: spanning treeings hit the class-count bound on 1000 "
          f"relations, brute force agrees on 100 small ones ({elapsed:.2f}s)")


def test_criterion_3_reduction_preserves_relation():
    t0 = time.monotonic()
    rng = random.Random(33)
    for _ in range(200):
        g = random_graphing(rng, rng.randint(1, 2000))
        r = generated_relation(g)
        t = reduce_to_treeing(g)
        assert is_treeing(t)
        assert generates(t, r)
        assert cost(t) == min_cost(r)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS 3: reducing 200 random graphings keeps the relation and "
          f"lands on its minimum cost ({elapsed:.2f}s)")


def test_criterion_4_single_generator_and_exponents():
    rng = random.Random(44)
    for _ in range(100):
        r = random_relation(rng, rng.randint(1, 2000))
        psi = single_full_generator(r)
        assert psi.is_full()
        assert cost(Graphing(r.space, [psi])) == 1
        assert generates(Graphing(r.space, [psi]), r)
        cls = rng.choice(r.classes())
        x, y = rng.choice(cls), rng.choice(cls)
        k = orbit_exponent(psi, x, y)
        z = x
        for _ in range(abs(k)):
            z = psi.apply(z) if k > 0 else psi.inverse().apply(z)
        assert z == y
    print("\nPASS 4: every relation is the orbit relation of one full "
          "transformation, with exponents verified by iteration")


def test_criterion_5_first_return_is_kac_exact():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 10**4)
        order = list(range(n))
        rng.shuffle(order)
        space = FiniteSpace(n)
        psi = PartialMap("c", space,
                         {order[i]: order[(i + 1) % n] for i in range(n)})
        members = frozenset(rng.sample(range(n), rng.randint(1, n)))
        a = Subset(space, members)
        ret = first_return_map(psi, a)
        assert set(ret.domain()) == members
        assert set(ret.mapping.values()) == members
        total = 0
        for x in members:
            z, r = psi.apply(x), 1
            while z not in members:
                z, r = psi.apply(z), r + 1
            assert ret.apply(x) == z
            total += r
        assert total == n
    print("\nPASS 5: first-return maps permute their subset and the return "
          "times of an n-cycle always sum to n")


def test_criterion_6_free_group_ranks():
    t0 = time.monotonic()
    rng = random.Random(66)
    for k in (2, 3, 4):
        spec = GroupSpec((0,) * k)
        for s in range(50):
            i = rng.randint(1, 500)
            act = sample_free_action(spec, i, seed=1000 * k + s)
            assert subgroup_rank(act) == 1 + i * (k - 1)
            lhs, rhs = compression_check(spec, i, seed=1000 * k + s)
            assert lhs == rhs == i * (k - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS 6: 50 sampled actions of each free group of rank 2..4 obey "
          f"rank - 1 = index * (n - 1) ({elapsed:.2f}s)")


def test_criterion_7_modular_group_coincidence():
    spec = GroupSpec((2, 3))
    rows = rank_gradient(spec, range(6, 121, 6))
    assert len(rows) == 20
    for row in rows:
        assert Fraction(row.rank - 1, row.index) == Fraction(1, 6)
        assert row.matches_beta1
    inv = group_invariants(spec)
    assert inv.beta1 == Fraction(1, 6)
    (row,) = coincidence_report([(2, 3)], max_index=120, seed=7)
    assert row.measured_cost == Fraction(7, 6)
    assert row.modeled_factor_costs == (Fraction(1, 2), Fraction(2, 3))
    assert sum(row.modeled_factor_costs) == Fraction(7, 6)
    assert row.match
    print("\nPASS 7: the [2,3] gradient is 1/6 on every index through 120 "
          "and the measured cost 7/6 splits as 1/2 + 2/3")


def test_criterion_8_compression_defect():
    rng = random.Random(88)
    strict = equal = 0
    for trial in range(500):
        r = random_relation(rng, rng.randint(1, 500))
        n = r.space.n
        if trial % 5 == 0:
            members = frozenset(range(n))
        else:
            extra = rng.sample(range(n), rng.randint(0, n))
            members = frozenset(transversal(r).members) | frozenset(extra)
        a = Subset(r.space, members)
        lhs, rhs = compression_sides(r, a)
        assert lhs <= rhs
        full = len(members) == n
        assert (lhs == rhs) == full
        if full:
            equal += 1
        else:
            strict += 1
    assert strict and equal
    print(f"\nPASS 8: compression defect holds on 500 pairs "
          f"({strict} strict, {equal} tight)")


def test_criterion_9_cli_byte_determinism(capsys, tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({
        "space": {"n": 12},
        "maps": [{"name": "a", "rotation": 1, "domain": "all"}],
    }))
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({
        "n": 1000, "steps": {"a": 1, "b": 357}, "full": "a",
        "eps": ["1/10", "1/1000"], "arc": [0, 10],
    }))
    invocations = [
        ["cost", str(g)],
        ["invariants", str(g)],
        ["eps-curve", str(rot)],
        ["rotation-demo", str(rot), "--x", "123"],
        ["schreier-rank", "--factors", "2,3", "--index", "12"],
        ["rank-gradient", "--factors", "2,2", "--indices", "2:12:2"],
        ["coincidence", "--specs", "2,3;0,0"],
    ]
    for argv in invocations:
        for fmt in ("text", "json"):
            runs = []
            for _ in range(2):
                assert main(argv + ["--format", fmt]) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
    argv = invocations[-1] + ["--format", "json"]
    assert main(argv) == 0
    inner = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "orbitcost"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == inner
    print("\nPASS 9: every CLI invocation is byte-identical across "
          "runs and across processes")
