"""Seeded inputs and their reference answers for the three workloads.

Each plan function takes a `random.Random` and returns a plan: the fixed query
list one pass runs, each query with its reference answer.  The shape of a
plan (sizes, commands, formats, specs) is fixed, and the seed only picks the
content inside that shape: exact sizes within 3%, step values, arcs,
starting atoms, random graphings and sampler seeds.  That keeps the work per
pass nearly the same across seeds, so a change in time measures the code,
not the draw.  `smoke=True` gives the same shape at tiny sizes.
"""
from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import reference as ref

# ------------------------------------------------------------- eps-rotation

CRITERION_1 = {"n": 10**6, "steps": {"a": 1, "b": 357913}, "full": "a", "arc_len": 1000}


def _unit(rng, m: int) -> int:
    """A random residue coprime to m, in 1..m-1 (1 when m <= 2)."""
    if m <= 2:
        return 1
    while True:
        u = rng.randrange(1, m)
        if math.gcd(u, m) == 1:
            return u


def _eps_query(rng, n, steps, full, arc_len, path_count):
    names = [s for s in steps if s != full]
    eps = Fraction(arc_len, n)
    classes = ref.rotation_classes(n, steps, full, arc_len)
    paths, hits = [], []
    for _ in range(path_count):
        x = rng.randrange(n)
        paths.append([rng.choice(names), x])
        hits.append(ref.hitting_time(n, steps[full], x, 0, arc_len))
    query = {"kind": "eps", "n": n, "steps": steps, "full": full,
             "eps": ref.fmt_rational(eps), "paths": paths}
    answer = {"cost": ref.fmt_rational(Fraction(n + (len(steps) - 1) * arc_len, n)),
              "generates": classes == math.gcd(n, *steps.values()), "hits": hits}
    return query, answer


def eps_rotation(rng, smoke: bool = False) -> dict:
    """24 rotation systems, each at three eps values, plus criterion 1 at n = 10^6.

    Sizes climb geometrically from 10^3 to 10^5 in steps of about 1.22, so
    query latencies spread evenly and no percentile sits on a gap between
    sizes.  Every fourth system has gcd(full, n) > 1, where a short arc can
    leave atoms unreachable.  Arc lengths run from a few atoms through about
    sqrt(n) to about n/10.
    """
    count, low, high = (4, 40, 400) if smoke else (24, 1_000, 100_000)
    queries = []
    for i in range(count):
        d = rng.choice([2, 3, 4, 6]) if i % 4 == 3 else 1
        n = round(low * (high / low) ** (i / (count - 1)) * rng.uniform(0.97, 1.03))
        n -= n % d
        names = ["a", "b", "c"][:2 + i % 2]
        full = rng.choice(names)
        steps = {name: rng.randrange(1, n) for name in names}
        steps[full] = d * _unit(rng, n // d)
        lengths = [rng.randint(1, 8), round(math.sqrt(n) * rng.uniform(0.8, 1.25)),
                   round(n * rng.uniform(0.08, 0.1))]
        queries += [_eps_query(rng, n, steps, full, arc_len, 4) for arc_len in lengths]
    if not smoke:
        c = CRITERION_1
        queries.append(_eps_query(rng, c["n"], dict(c["steps"]), c["full"], c["arc_len"], 4))
    systems = {json.dumps([q["n"], q["steps"], q["full"]]) for q, _ in queries}
    coarse = sum(1 for q, _ in queries if math.gcd(q["steps"][q["full"]], q["n"]) > 1)
    return {"queries": queries,
            "shares": {"repeated_system": (len(queries) - len(systems)) / len(queries),
                       "gcd_full_n_above_1": coarse / len(queries)}}


# -------------------------------------------------------- schreier-sampling

NEAR_ZERO_REJECTION = [(2, 3), (0, 0), (0, 0, 0), (3, 3, 3), (2, 0)]
REJECTION_HEAVY = (2, 2)
COINCIDENCE_SPECS = [[(2, 3), (0, 0)], [(2, 0), (3, 3, 3)], [(0, 0, 0), (2, 2)]]


def _beta1(spec) -> Fraction:
    return sum((Fraction(1) if m == 0 else 1 - Fraction(1, m) for m in spec), Fraction(0)) - 1


def _factor_costs(spec) -> list[str]:
    return [ref.fmt_rational(1 if m == 0 else 1 - Fraction(1, m)) for m in spec]


def _ladder(count: int, top: int) -> list[int]:
    """count indices, multiples of 6 spread evenly over 6..top."""
    return [6 * max(1, round(top / 6 * (j + 1) / count)) for j in range(count)]


def schreier_sampling(rng, smoke: bool = False) -> dict:
    """Rank queries over near-zero-rejection specs and the rejection-heavy (2,2).

    Every spec runs the same ladder of indices up to 1200 (all multiples of
    6, so each torsion order divides them), so the (2,2) rows differ from
    the others only in how often the sampler must redraw.  Compression and
    coincidence rows are mixed in.
    """
    per_spec, top = (3, 60) if smoke else (40, 1200)
    # The (2,2) rows replay one fixed set of sampler seeds: each row's redraw
    # count is a geometric draw whose spread is about its mean, so drawing
    # those anew for every --seed would change the work per pass.
    fixed = random.Random(7)
    queries = []
    for spec in [*NEAR_ZERO_REJECTION, REJECTION_HEAVY]:
        beta1 = _beta1(spec)
        source = fixed if spec == REJECTION_HEAVY else rng
        for index in _ladder(per_spec, top):
            queries.append(({"kind": "rank", "spec": list(spec), "index": index,
                             "seed": source.getrandbits(64)},
                            {"rank": int(1 + index * beta1)}))
    specs = [*NEAR_ZERO_REJECTION, REJECTION_HEAVY]
    for spec, index in zip(specs, _ladder(len(specs), top // 4)):
        side = ref.fmt_rational(index * _beta1(spec))
        source = fixed if spec == REJECTION_HEAVY else rng
        queries.append(({"kind": "compress", "spec": list(spec), "index": index,
                         "seed": source.getrandbits(64)}, {"lhs": side, "rhs": side}))
    for specs in COINCIDENCE_SPECS:
        max_index = 60 if smoke else rng.randrange(120, 241)
        rows = []
        for spec in specs:
            base = math.lcm(*(m for m in spec if m))
            index = max_index // base * base  # every spec here has two or more factors
            cost = ref.fmt_rational(_beta1(spec) + 1)
            rows.append([list(spec), len(spec), cost, ref.fmt_rational(_beta1(spec)), index,
                         cost, _factor_costs(spec), _factor_costs(spec), True])
        queries.append(({"kind": "coincidence", "specs": [list(s) for s in specs],
                         "max_index": max_index, "seed": rng.getrandbits(64)}, {"rows": rows}))
    heavy = sum(1 for q, _ in queries if q.get("spec") == list(REJECTION_HEAVY))
    return {"queries": queries, "shares": {"spec_2_2": heavy / len(queries)}}


# ------------------------------------------------------------- graphing-cli

def _jitter(rng, n: int) -> int:
    return max(2, round(n * rng.uniform(0.97, 1.03)))


class _Inputs:
    """Writes the input files and remembers what each one holds."""

    def __init__(self, root: str, rel_dir: str):
        self.root, self.rel_dir = root, rel_dir
        os.makedirs(os.path.join(root, rel_dir), exist_ok=True)
        self.meta: dict[str, dict] = {}

    def write(self, name: str, doc=None, raw: bytes | None = None, **meta) -> str:
        path = f"{self.rel_dir}/{name}.json"
        data = raw if raw is not None else json.dumps(doc).encode()
        with open(os.path.join(self.root, path), "wb") as fh:
            fh.write(data)
        self.meta[path] = meta
        return path

    def graphing(self, name: str, n: int, maps: list, shorthand: list | None = None) -> str:
        """maps: (name, {source: target}) in file order; shorthand replaces their JSON form."""
        doc = {"space": {"n": n}, "maps": shorthand or [
            {"name": mname, "pairs": [[x, y] for x, y in m.items()]} for mname, m in maps]}
        parent = ref.classes_of(n, (p for _, m in maps for p in m.items()))
        return self.write(name, doc, n=n, maps=maps, parent=parent)

    def relation(self, name: str, parent: list[int]) -> str:
        groups = ref.class_lists(parent)
        doc = {"n": len(parent), "classes": [g for g in groups if len(g) > 1]}
        return self.write(name, doc, n=len(parent), parent=parent)


def _random_partition(rng, n: int, classes: int) -> list[int]:
    least: dict[int, int] = {}
    return [least.setdefault(rng.randrange(classes), x) for x in range(n)]


def _random_partial_perm(rng, n: int, share: float) -> dict[int, int]:
    targets = list(range(n))
    rng.shuffle(targets)
    sources = rng.sample(range(n), round(n * share))
    return {x: targets[x] for x in sources}


def _rotation_map(n: int, s: int, sources) -> dict[int, int]:
    return {x: (x + s) % n for x in sources}


def _chain_forest(rng, parent: list[int]) -> dict[int, int]:
    """One map chaining each class in a random order: a treeing of the partition."""
    mapping = {}
    for group in ref.class_lists(parent):
        rng.shuffle(group)
        mapping.update(zip(group, group[1:]))
    return mapping


def _graphing_report(cmd: str, info: dict, extra: dict) -> dict:
    n, maps, parent = info["n"], info["maps"], info["parent"]
    entries = sum(len(m) for _, m in maps)
    classes = ref.class_count(parent)
    floor = Fraction(n - classes, n)
    if cmd == "cost":
        return {"command": "cost", "cost": ref.fmt_rational(Fraction(entries, n))}
    if cmd == "nu":
        distinct = len({p for _, m in maps for p in m.items()})
        return {"command": "nu", "nu": ref.fmt_rational(Fraction(distinct, n))}
    if cmd == "treeing":
        return {"command": "treeing", "is_treeing": ref.is_forest(n, maps)}
    if cmd == "gen-check":
        return {"command": "gen-check", "generates": parent == extra["relation"]["parent"]}
    if cmd == "reduce":
        kept = ref.reduced(n, maps)
        return {"command": "reduce",
                "cost": ref.fmt_rational(Fraction(sum(len(m) for _, m in kept), n)),
                "is_treeing": True,
                "graphing": {"space": {"n": n}, "maps": [ref.map_doc(*m) for m in kept]}}
    if cmd == "invariants":
        total = Fraction(entries, n)
        nu = Fraction(len({p for _, m in maps for p in m.items()}), n)
        universe = sum(len(g) * (len(g) - 1) // 2 for g in ref.class_lists(parent))
        brute = floor if universe <= 20 else None
        checks = {"cost_ge_nu": total >= nu, "nu_ge_min_cost": nu >= floor,
                  "reduced_is_treeing": True, "reduced_generates": True,
                  "reduced_cost_is_min": True, "spanning_cost_is_min": True,
                  "transversal_identity": True}
        if brute is not None:
            checks["brute_force_agrees"] = True
        return {"command": "invariants", "cost": ref.fmt_rational(total),
                "nu": ref.fmt_rational(nu), "min_cost": ref.fmt_rational(floor),
                "reduced_cost": ref.fmt_rational(floor),
                "brute_min_cost": None if brute is None else ref.fmt_rational(brute),
                "checks": checks, "ok": all(checks.values())}
    if cmd == "first-return":
        (name, step), = maps
        members = extra["members"]
        mapping = {}
        for x in sorted(members):
            z = step[x]
            while z not in members:
                z = step[z]
            mapping[x] = z
        return {"command": "first-return", "map": ref.map_doc(f"{name}_return", mapping)}
    raise ValueError(cmd)


def _relation_report(cmd: str, info: dict, extra: dict) -> dict:
    parent = info["parent"]
    n = len(parent)
    classes = ref.class_count(parent)
    floor = ref.fmt_rational(Fraction(n - classes, n))
    if cmd == "min-cost":
        return {"command": "min-cost", "min_cost": floor, "classes": classes}
    if cmd == "brute-min":
        return {"command": "brute-min", "min_cost": floor, "edge_budget": 20}
    if cmd == "single-gen":
        mapping = {}
        for group in ref.class_lists(parent):
            mapping.update(zip(group, group[1:] + group[:1]))
        return {"command": "single-gen", "cost": "1", "map": ref.map_doc("cycles", mapping)}
    if cmd == "compress":
        size = len(extra["members"])
        lhs = Fraction(-classes, size)
        rhs = Fraction(size, n) * (Fraction(n - classes, n) - 1)
        return {"command": "compress", "lhs": ref.fmt_rational(lhs),
                "rhs": ref.fmt_rational(rhs), "equal": lhs == rhs}
    raise ValueError(cmd)


def _rotation_report(cmd: str, info: dict, extra: dict) -> dict:
    n, steps, full = info["n"], info["steps"], info["full"]
    if cmd == "eps-curve":
        rows = []
        for eps in info["eps"]:
            arc_len = -(-eps.numerator * n // eps.denominator)
            rows.append({"eps": ref.fmt_rational(eps), "arc_len": arc_len,
                         "cost": ref.fmt_rational(Fraction(n + (len(steps) - 1) * arc_len, n)),
                         "generates": ref.rotation_classes(n, steps, full, arc_len)
                         == math.gcd(n, *steps.values())})
        return {"command": "eps-curve", "rows": rows,
                "infimum": "1" if math.gcd(steps[full], n) == 1 else None}
    if cmd == "rotation-demo":
        x = extra["x"]
        start, length = info["arc"]
        restricted = next(s for s in steps if s != full)
        m = ref.hitting_time(n, steps[full], x, start, length)
        segments = [{"step": restricted, "power": 1, "count": 1}]
        if m:
            segments = [{"step": full, "power": 1, "count": m}, *segments,
                        {"step": full, "power": -1, "count": m}]
        return {"command": "rotation-demo", "start": x, "end": (x + steps[restricted]) % n,
                "length": 2 * m + 1, "hit": (x + m * steps[full]) % n, "segments": segments}
    raise ValueError(cmd)


def graphing_cli(rng, root: str, rel_dir: str, smoke: bool = False) -> dict:
    """34 commands, one fresh process each, over files written under rel_dir.

    Sizes run from 10^3 to 10^5 atoms.  Six inputs are malformed or break a
    domain rule and must give exit 1 with one `error:` line; two of them are
    the known traceback triggers (a non-UTF-8 file and an eps of 1e5000).
    """
    scale = 0.01 if smoke else 1.0
    io = _Inputs(root, rel_dir)

    def size(n):
        return _jitter(rng, max(12, round(n * scale)))

    g_rand = []
    for i, n0 in enumerate([1_000, 4_000, 15_000, 60_000]):
        n = size(n0)
        maps = [(f"m{j}", _random_partial_perm(rng, n, rng.uniform(0.3, 0.6))) for j in range(2)]
        g_rand.append(io.graphing(f"g_rand{i}", n, maps))
    g_rot = []
    for i, n0 in enumerate([3_000, 30_000, 100_000]):
        n = size(n0)
        sa, sb = rng.randrange(1, n), rng.randrange(1, n)
        start, length = rng.randrange(n), round(n * rng.uniform(0.05, 0.1))
        arc = [(start + k) % n for k in range(length)]
        maps = [("a", _rotation_map(n, sa, range(n))), ("b", _rotation_map(n, sb, arc))]
        shorthand = [{"name": "a", "rotation": sa, "domain": "all"},
                     {"name": "b", "rotation": sb, "domain": {"arc": [start, length]}}]
        g_rot.append(io.graphing(f"g_rot{i}", n, maps, shorthand))
    g_forest = []
    for i, n0 in enumerate([5_000, 40_000]):
        n = size(n0)
        forest = _chain_forest(rng, _random_partition(rng, n, max(2, n // 20)))
        g_forest.append(io.graphing(f"g_forest{i}", n, [("chain", forest)]))
    n = size(8_000)
    perm = list(range(n))
    rng.shuffle(perm)
    g_perm = io.graphing("g_perm", n, [("psi", dict(enumerate(perm)))])
    n = size(50_000)
    step = _unit(rng, n)
    g_cyc = io.graphing("g_cyc", n, [("r", _rotation_map(n, step, range(n)))],
                        [{"name": "r", "rotation": step}])
    r_rand = [io.relation(f"r_rand{i}", _random_partition(rng, n, max(2, n // 10)))
              for i, n in enumerate(size(n0) for n0 in [2_000, 20_000, 50_000, 100_000])]
    r_gen_true = io.relation("r_gen_true", io.meta[g_rand[1]]["parent"])
    split = list(io.meta[g_rot[1]]["parent"])
    moved = next(x for x, r in enumerate(split) if x != r)
    split[moved] = moved
    r_gen_false = io.relation("r_gen_false", split)
    r_mod = []
    for i, n0 in enumerate([10_000, 100_000]):
        n = size(n0)
        c = max(2, rng.randrange(n // 250, n // 100 + 1))  # classes, well under the arcs used
        r_mod.append(io.relation(f"r_mod{i}", [x % c for x in range(n)]))
    r_tiny = []
    for i in range(3):
        sizes = rng.sample([2, 3, 4, 5], 3)
        n = sum(sizes) + rng.randrange(2, 6)
        atoms = list(range(n))
        rng.shuffle(atoms)
        parent = list(range(n))
        pos = 0
        for s in sizes:
            group = sorted(atoms[pos:pos + s])
            pos += s
            for x in group:
                parent[x] = group[0]
        r_tiny.append(io.relation(f"r_tiny{i}", parent))
    n = 12
    tiny_maps = [("u", {0: 1, 1: 2, 4: 5}), ("v", {2: 0, 5: 6, 8: 9})]
    g_tiny = io.graphing("g_tiny", n, tiny_maps)
    rots = []
    for i, n0 in enumerate([30_000, 100_000]):
        n = size(n0)
        steps = {"a": _unit(rng, n), "b": rng.randrange(1, n), "c": rng.randrange(1, n)}
        eps = [Fraction(1, 1000), Fraction(1, 20), Fraction(1, 2)]
        arc = [0, round(n * rng.uniform(0.01, 0.05))]
        doc = {"n": n, "steps": steps, "full": "a", "eps": ["1/1000", 0.05, "1/2"], "arc": arc}
        rots.append(io.write(f"rot{i}", doc, n=n, steps=steps, full="a", eps=eps, arc=arc))
    bad = {
        "missing_space": io.write("bad_missing_space", {"maps": []}),
        "dup_source": io.write("bad_dup_source", {"space": {"n": 10}, "maps": [
            {"name": "m", "pairs": [[1, 2], [1, 3]]}]}),
        "syntax": io.write("bad_syntax", raw=b'{"space": {"n": 5}, "maps": ['),
        "utf8": io.write("bad_utf8", raw=b'{"space": {"n": 4}, "maps": [{"name": "m\xff", '
                                          b'"pairs": [[0, 1]]}]}'),
        "eps": io.write("bad_eps", raw=b'{"n": 1000, "steps": {"a": 1, "b": 7}, '
                                       b'"full": "a", "eps": [1e5000]}'),
    }

    def arc_members(path, share):
        n = io.meta[path]["n"]
        start, length = rng.randrange(n), max(1, round(n * share))
        return f"{start}:{length}", {(start + k) % n for k in range(length)}

    queries = []

    def add(argv, answer, write=False, trigger=None, stdout=""):
        answer["stdout_sha256"] = ref.digest(stdout)
        queries.append(({"kind": "cli", "argv": argv, "write": write, "trigger": trigger}, answer))

    def valid(cmd, files, fmt, write=False, flags=(), extra=None, report=_graphing_report):
        info = io.meta[files[0]]
        extra = dict(extra or {})
        if cmd == "gen-check":
            extra["relation"] = io.meta[files[1]]
        add([cmd, *files, *flags, "--format", fmt], {"exit": 0}, write,
            stdout=ref.render(report(cmd, info, extra), fmt))

    def error(cmd, files, flags=(), trigger=None):
        add([cmd, *files, *flags], {"exit": 1}, trigger=trigger)

    valid("cost", [g_rand[0]], "text")
    valid("cost", [g_rot[2]], "json")
    valid("cost", [g_rand[3]], "text")
    valid("nu", [g_rand[2]], "json")
    valid("nu", [g_rot[1]], "text")
    valid("treeing", [g_forest[0]], "text")
    valid("treeing", [g_rand[1]], "json")
    valid("gen-check", [g_rand[1], r_gen_true], "json")
    valid("gen-check", [g_rot[1], r_gen_false], "text")
    valid("invariants", [g_tiny], "text")
    valid("invariants", [g_rand[1]], "json")
    valid("min-cost", [r_rand[0]], "text", report=_relation_report)
    valid("min-cost", [r_rand[3]], "json", report=_relation_report)
    for path, fmt in [(r_mod[0], "text"), (r_mod[1], "json")]:
        arc, members = arc_members(path, rng.uniform(0.2, 0.5))
        valid("compress", [path], fmt, flags=["--arc", arc], extra={"members": members},
              report=_relation_report)
    for path, fmt in zip(r_tiny, ["json", "text", "json"]):
        valid("brute-min", [path], fmt, report=_relation_report)
    valid("reduce", [g_rand[2]], "text", write=True)
    valid("reduce", [g_rot[1]], "json", write=True)
    valid("reduce", [g_forest[1]], "text", write=True)
    for path, fmt in zip(r_rand[:3], ["json", "text", "json"]):
        valid("single-gen", [path], fmt, write=True, report=_relation_report)
    for path, fmt in [(g_perm, "text"), (g_cyc, "json")]:
        arc, members = arc_members(path, rng.uniform(0.4, 0.6))
        valid("first-return", [path], fmt, write=True, flags=["--arc", arc],
              extra={"members": members})
    valid("eps-curve", [rots[0]], "json", report=_rotation_report)
    x = rng.randrange(io.meta[rots[1]]["n"])
    valid("rotation-demo", [rots[1]], "text", flags=["--x", str(x)], extra={"x": x},
          report=_rotation_report)
    error("cost", [bad["missing_space"]])
    error("nu", [bad["dup_source"]])
    error("treeing", [bad["syntax"]])
    error("compress", [r_mod[0]], flags=["--arc", "0:1"])
    error("cost", [bad["utf8"]], trigger="4a")
    error("eps-curve", [bad["eps"]], trigger="4b")

    total = len(queries)
    return {"queries": queries, "shares": {
        "malformed": sum(1 for _, a in queries if a["exit"]) / total,
        "write_heavy": sum(1 for q, _ in queries if q["write"]) / total,
        "known_traceback_triggers": sum(1 for q, _ in queries if q["trigger"]) / total}}
