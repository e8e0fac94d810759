"""Finite measured spaces, partial maps, graphings and the exact cost calculus.

Atoms are the integers 0..n-1, each carrying weight 1/n.  Every measure and
cost in this module is a fractions.Fraction; nothing ever rounds.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .unionfind import UnionFind


class ModelError(ValueError):
    """An argument broke a documented precondition."""


class NotInSameCycleError(ModelError):
    """orbit_exponent was asked about atoms lying in different cycles."""


class EdgeBudgetError(ModelError):
    """The exhaustive search was asked to scan more pairs than its budget."""


class FormatError(ModelError):
    """A ratio or an input file failed to parse or broke the documented schema."""


# Largest decimal exponent magnitude parse_rational reads.  Fraction builds
# 10**exponent exactly, in time that grows faster than linearly (a hang past
# about 10**6), while anything past 4300 digits cannot be printed anyway.
MAX_DECIMAL_EXPONENT = 10_000
MAX_RELATION_ATOMS = 10_000_000  # n that Relation.from_classes lists atom by atom
# Largest edge budget brute_force_min_cost accepts: the pair universe of one class of
# 8 atoms, which scans in about 2 s.  Each further atom costs about 20 times more.
MAX_EDGE_BUDGET = 28


def _built(cls, *values):
    """cls(*values) for a dataclass, without its __post_init__ checks.

    Only code that has just built values correct by construction may call this,
    and only on Relation, PartialMap or PermAction, whose __post_init__ checks
    and never normalises.  Values from outside the program take the constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def parse_rational(text) -> Fraction:
    """An exact ratio from text such as "7/2", "0.125" or "1e-3", its exponent bounded."""
    raw = str(text).strip()
    exponent = re.search(r"[eE][-+]?([\d_]+)$", raw)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise FormatError(f"cannot read {text!r} as an exact ratio: its decimal exponent "
                          f"passes {MAX_DECIMAL_EXPONENT} in size")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot read {text!r} as an exact ratio") from None


@dataclass(frozen=True)
class FiniteSpace:
    """n atoms of equal weight; the finite model of a probability space."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ModelError(f"a space needs at least one atom, got n={self.n}")

    def measure(self, count: int) -> Fraction:
        """Weight of any count-atom subset."""
        return Fraction(count, self.n)


@dataclass(frozen=True, slots=True)
class Arc:
    """length consecutive atoms from start, wrapping modulo n."""

    start: int
    length: int

    def check(self, n: int):
        if not 0 <= self.start < n:
            raise ModelError(f"arc start {self.start} outside 0..{n - 1}")
        if not 0 <= self.length <= n:
            raise ModelError(f"arc length {self.length} outside 0..{n}")

    def contains(self, x: int, n: int) -> bool:
        return (x - self.start) % n < self.length

    def runs(self, n: int) -> tuple[range, range]:
        """The atoms as two ascending ranges, split at the wrap point."""
        end = self.start + self.length
        return range(self.start, min(end, n)), range(max(end - n, 0))

    def atoms(self, n: int) -> list[int]:
        return list(chain(*self.runs(n)))

    def subset(self, space: FiniteSpace) -> Subset:
        self.check(space.n)
        return Subset(space, frozenset(self.atoms(space.n)))


class ShiftMapping(Mapping):
    """Read-only view of x -> x + step (mod n) on the atoms of an arc.

    Nothing is materialised: lookups, membership and len are O(1) and the
    arc is iterated lazily in the order start, start+1, ...  A shift is
    injective on any arc, so no entry ever needs checking.
    """

    __slots__ = ("n", "step", "arc")

    def __init__(self, n: int, step: int, start: int, length: int):
        if n < 1:
            raise ModelError(f"a shift view needs n >= 1, got {n}")
        self.arc = Arc(start, length)
        self.arc.check(n)
        self.n = n
        self.step = step % n

    def __len__(self) -> int:
        return self.arc.length

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n and self.arc.contains(x, self.n)

    def __getitem__(self, x: int) -> int:
        if x not in self:
            raise KeyError(x)
        return (x + self.step) % self.n

    def __iter__(self):
        return chain(*self.arc.runs(self.n))


@dataclass
class PartialMap:
    """A named injective map from a subset of the atoms into the atoms.

    mapping holds source -> target entries, either as a dict or as a
    ShiftMapping view.  Loops (x -> x) are allowed; they widen the domain
    without relating distinct atoms.
    """

    name: str
    space: FiniteSpace
    mapping: Mapping[int, int]

    def __post_init__(self):
        n = self.space.n
        m = self.mapping
        if isinstance(m, ShiftMapping):
            if m.n != n:
                raise ModelError(f"map {self.name!r}: shift view on n={m.n}, the map on n={n}")
            return
        if not m:
            return
        if min(m) < 0 or max(m) >= n:
            x = next(x for x in m if not 0 <= x < n)
            raise ModelError(f"map {self.name!r}: source atom {x} outside 0..{n - 1}")
        targets = m.values()
        if min(targets) < 0 or max(targets) >= n:
            y = next(y for y in targets if not 0 <= y < n)
            raise ModelError(f"map {self.name!r}: target atom {y} outside 0..{n - 1}")
        if len(set(targets)) != len(m):
            seen: dict[int, int] = {}
            for x, y in m.items():
                if y in seen:
                    raise ModelError(
                        f"map {self.name!r}: atoms {seen[y]} and {x} share the target {y}")
                seen[y] = x

    @classmethod
    def from_pairs(cls, name: str, space: FiniteSpace, pairs) -> "PartialMap":
        """Build from (source, target) pairs, rejecting duplicate sources."""
        mapping: dict[int, int] = {}
        for x, y in pairs:
            if x in mapping:
                raise ModelError(f"map {name!r}: duplicate source atom {x}")
            mapping[x] = y
        return cls(name, space, mapping)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.mapping.items())

    def domain(self) -> list[int]:
        return sorted(self.mapping)

    def apply(self, x: int) -> int:
        return self.mapping[x]

    def is_full(self) -> bool:
        """Full domain; together with injectivity this makes a permutation."""
        return len(self.mapping) == self.space.n

    def inverse(self) -> "PartialMap":
        return _built(PartialMap, f"{self.name}_inv", self.space,
                      {y: x for x, y in self.mapping.items()})


@dataclass
class Graphing:
    """An ordered family of distinctly named partial maps over one space."""

    space: FiniteSpace
    maps: list[PartialMap]

    def __post_init__(self):
        names = set()
        for m in self.maps:
            if m.space != self.space:
                raise ModelError(
                    f"map {m.name!r} lives on n={m.space.n}, the graphing on n={self.space.n}")
            if m.name in names:
                raise ModelError(f"duplicate map name {m.name!r}")
            names.add(m.name)

    def map_named(self, name: str) -> PartialMap:
        for m in self.maps:
            if m.name == name:
                return m
        raise ModelError(f"no map named {name!r}")


@dataclass(eq=False)
class Relation:
    """An equivalence relation stored as a canonical representative array of period p.

    p = len(base) divides n, base[x] is the least atom equivalent to x for
    x < p, and every atom x is equivalent to base[x % p].  Every entry of base
    is below p, so each class of base on Z/p lifts to exactly one class on
    Z/n, and a rotation family's relation costs p numbers, not n.
    Relation(space, parent) is the case p = n.
    """

    space: FiniteSpace
    base: list[int]

    def __post_init__(self):
        n = self.space.n
        b = self.base
        if len(b) != n:
            raise ModelError(f"representative array has length {len(b)}, space has {n} atoms")
        for x in range(n):
            r = b[x]
            if not 0 <= r <= x:
                raise ModelError(f"atom {x}: representative {r} is not an atom <= {x}")
            if b[r] != r:
                raise ModelError(f"atom {x}: representative {r} is not its own representative")

    @classmethod
    def periodic(cls, space: FiniteSpace, base: list[int]) -> "Relation":
        """The relation with parent[x] = base[x % p], p = len(base) dividing n.

        base is checked as a canonical relation on Z/p in O(p) and stored
        without lifting.
        """
        p = len(base)
        if p == 0 or space.n % p:
            raise ModelError(f"period {p} does not divide n={space.n}")
        cls(FiniteSpace(p), base)  # the check on Z/p, discarded once it passes
        return _built(cls, space, base)

    @property
    def parent(self) -> list[int]:
        """parent[x] is the least atom equivalent to x; a fresh n-entry lift per access."""
        return self._lifted(self.space.n)

    def _lifted(self, m: int) -> list[int]:
        """base repeated to m entries, for a multiple m of its period."""
        return self.base * (m // len(self.base))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        m = math.lcm(len(self.base), len(other.base))
        return self.space == other.space and self._lifted(m) == other._lifted(m)

    @classmethod
    def from_classes(cls, space: FiniteSpace, groups) -> "Relation":
        """Build from lists of atoms; atoms left unlisted become singletons."""
        if space.n > MAX_RELATION_ATOMS:
            raise ModelError(f"a relation read from classes has at most {MAX_RELATION_ATOMS} "
                             f"atoms, got n={space.n}")
        parent = list(range(space.n))
        seen = [False] * space.n
        for group in groups:
            members = sorted(group)
            for x in members:
                if not 0 <= x < space.n:
                    raise ModelError(f"class member {x} outside 0..{space.n - 1}")
                if seen[x]:
                    raise ModelError(f"atom {x} listed in two classes")
                seen[x] = True
                parent[x] = members[0]
        return _built(cls, space, parent)

    def class_count(self) -> int:
        return sum(1 for x, r in enumerate(self.base) if x == r)

    def classes(self) -> list[list[int]]:
        """Classes as ascending atom lists, ordered by representative."""
        groups: dict[int, list[int]] = {}
        for x, r in enumerate(self.parent):
            groups.setdefault(r, []).append(x)
        return [groups[r] for r in sorted(groups)]


@dataclass(frozen=True)
class Subset:
    """A set of atoms with its weight."""

    space: FiniteSpace
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if self.members:
            low, high = min(self.members), max(self.members)
            if low < 0 or high >= self.space.n:
                raise ModelError(f"subset member {low if low < 0 else high} "
                                 f"outside 0..{self.space.n - 1}")

    @property
    def measure(self) -> Fraction:
        return self.space.measure(len(self.members))

    def __contains__(self, x: int) -> bool:
        return x in self.members


@dataclass(frozen=True)
class EdgeSet:
    """Ordered atom pairs with set semantics; repeats collapse, loops stay."""

    space: FiniteSpace
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for x, y in self.edges:
            if not (0 <= x < self.space.n and 0 <= y < self.space.n):
                raise ModelError(f"edge ({x}, {y}) leaves 0..{self.space.n - 1}")


def cost(g: Graphing) -> Fraction:
    """Total weight of the map domains, counted with multiplicity."""
    return g.space.measure(sum(len(m.mapping) for m in g.maps))


def to_edge_set(g: Graphing) -> EdgeSet:
    """Forget names and multiplicity; keep the distinct ordered pairs."""
    pairs: set[tuple[int, int]] = set()
    for m in g.maps:
        pairs.update(m.mapping.items())
    return EdgeSet(g.space, frozenset(pairs))


def nu_measure(edges: EdgeSet) -> Fraction:
    """Weight of an edge set: one atom weight per distinct pair."""
    return edges.space.measure(len(edges.edges))


def nu(g: Graphing) -> Fraction:
    """nu_measure(to_edge_set(g)) without building the pairs.

    Two entries are one pair exactly when their sources agree and their steps
    agree mod n.  So the views of one step cover the union of their arcs, and
    a dict pair counts only when no view of its step covers its source:
    O(k log k + dict entries) for k views, whatever n is.
    """
    n = g.space.n
    arcs: dict[int, list[list[int]]] = {}  # step -> [start, end) intervals of 0..n
    pairs: set[tuple[int, int]] = set()
    for m in g.maps:
        v = m.mapping
        if isinstance(v, ShiftMapping):
            arcs.setdefault(v.step, []).extend([run.start, run.stop] for run in v.arc.runs(n))
        else:
            pairs.update(v.items())
    covered = {step: _merged(intervals) for step, intervals in arcs.items()}
    count = sum(end - start for runs in covered.values() for start, end in runs)
    for x, y in pairs:
        runs = covered.get((y - x) % n, [])
        i = bisect_right(runs, [x, n]) - 1  # the last run starting at or before x
        if i < 0 or x >= runs[i][1]:
            count += 1
    return g.space.measure(count)


def _merged(intervals: list[list[int]]) -> list[list[int]]:
    """Ascending disjoint nonempty [start, end) runs covering the same atoms."""
    runs: list[list[int]] = []
    for start, end in sorted(intervals):
        if runs and start <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], end)
        elif start < end:
            runs.append([start, end])
    return runs


def _quotient(g: Graphing) -> UnionFind:
    """Union-find on Z/p whose classes are those of the relation g generates.

    p = gcd(n, steps of the full-domain ShiftMapping views).  Those views
    alone have the residue classes mod p as orbits, so every other entry only
    joins x mod p to y mod p: each pair of a dict map, and the first
    min(length, p) sources of a partial view, read by arithmetic, which
    already meet every residue it can.  With no full view p = gcd(n) = n, so
    a dict-only graphing is plain union-find on the atoms.
    """
    n = g.space.n
    maps = [m.mapping for m in g.maps]
    p = math.gcd(n, *(m.step for m in maps if isinstance(m, ShiftMapping) and m.arc.length == n))
    uf = UnionFind(p)
    union = uf.union
    for m in maps:
        if not isinstance(m, ShiftMapping):
            for x, y in m.items():
                union(x % p, y % p)
        elif m.arc.length < n:
            for x in range(m.arc.start, m.arc.start + min(m.arc.length, p)):
                union(x % p, (x + m.step) % p)
    return uf


def generated_relation(g: Graphing) -> Relation:
    """Smallest equivalence relation joining every source to its target."""
    return _built(Relation, g.space, _quotient(g).canonical())


def generates(g: Graphing, r: Relation) -> bool:
    if g.space != r.space:
        raise ModelError("graphing and relation live on different spaces")
    return generated_relation(g) == r


def is_treeing(g: Graphing) -> bool:
    """True when the multigraph of (map, source) entries is a forest.

    Every entry counts as its own edge, so loops, parallel copies and
    mutually inverse duplicates all create cycles.  A multigraph is a forest
    exactly when edges = n - classes, and each class on Z/p is one on Z/n.
    """
    return cost(g) == g.space.measure(g.space.n - _quotient(g).components)


def min_cost(r: Relation) -> Fraction:
    """(n - c)/n for c classes; the spanning-forest bound."""
    return r.space.measure(r.space.n - r.class_count())


def transversal(r: Relation) -> Subset:
    """The least atom of every class; its weight is c/n."""
    return Subset(r.space, frozenset(x for x, rep in enumerate(r.base) if x == rep))


def spanning_treeing(r: Relation) -> Graphing:
    """One partial map chaining each class in ascending order.

    Every non-representative atom points at its predecessor within the class,
    which keeps the map injective and its entries spanning paths.  The result
    generates r at cost (n - c)/n exactly.
    """
    last: dict[int, int] = {}
    mapping: dict[int, int] = {}
    for x, rep in enumerate(r.parent):
        if rep in last:
            mapping[x] = last[rep]
        last[rep] = x
    return Graphing(r.space, [_built(PartialMap, "forest", r.space, mapping)])


def reduce_to_treeing(g: Graphing) -> Graphing:
    """Delete entries until the survivors form a spanning forest.

    Scans maps in list order and sources ascending, keeping an entry exactly
    when it joins two still-separate components.  The survivors generate the
    same relation at its minimal cost; a treeing passes through unchanged.
    """
    uf = UnionFind(g.space.n)
    kept_maps = []
    for m in g.maps:
        kept: dict[int, int] = {}
        for x in sorted(m.mapping):
            y = m.mapping[x]
            if x != y and uf.union(x, y):
                kept[x] = y
        kept_maps.append(_built(PartialMap, m.name, g.space, kept))
    return Graphing(g.space, kept_maps)


def single_full_generator(r: Relation) -> PartialMap:
    """A permutation cycling every class in ascending order, cost exactly 1."""
    last: dict[int, int] = {}
    mapping: dict[int, int] = {}
    for x, rep in enumerate(r.parent):
        if rep in last:
            mapping[last[rep]] = x
        last[rep] = x
    for rep, x in last.items():  # each class's last atom closes its cycle
        mapping[x] = rep
    return _built(PartialMap, "cycles", r.space, mapping)


def _require_permutation(psi: PartialMap):
    if not psi.is_full():
        raise ModelError(
            f"map {psi.name!r} must be a full permutation, its domain has "
            f"{len(psi.mapping)} of {psi.space.n} atoms")


def _require_atom(space: FiniteSpace, x: int):
    if not 0 <= x < space.n:
        raise ModelError(f"atom {x} outside 0..{space.n - 1}")


def orbit_exponent(psi: PartialMap, x: int, y: int) -> int:
    """Signed iterate count taking x to y along psi's cycle.

    Returns the k of smallest absolute value with psi^k(x) == y, preferring
    the forward direction on ties, and 0 when x == y.
    """
    _require_permutation(psi)
    _require_atom(psi.space, x)
    _require_atom(psi.space, y)
    if x == y:
        return 0
    forward = None
    length = 0
    z = x
    while True:
        z = psi.mapping[z]
        length += 1
        if z == y and forward is None:
            forward = length
        if z == x:
            break
    if forward is None:
        raise NotInSameCycleError(
            f"atoms {x} and {y} lie in different cycles of {psi.name!r}")
    return forward if forward <= length - forward else forward - length


def first_return_map(psi: PartialMap, a: Subset) -> PartialMap:
    """Send each atom of a to the first point where its forward orbit re-enters a.

    Within any single cycle the return times add up to the cycle length, so
    the induced map is a bijection of a onto itself.
    """
    _require_permutation(psi)
    if psi.space != a.space:
        raise ModelError("map and subset live on different spaces")
    if not a.members:
        raise ModelError("first return needs a nonempty subset")
    members = a.members
    step = psi.mapping
    mapping: dict[int, int] = {}
    for x in sorted(members):
        z = step[x]
        while z not in members:
            z = step[z]
        mapping[x] = z
    return _built(PartialMap, f"{psi.name}_return", psi.space, mapping)


def restrict_map(g: Graphing, map_name: str, a: Subset) -> Graphing:
    """Shrink one map's domain to a, leaving the other maps alone."""
    if g.space != a.space:
        raise ModelError("graphing and subset live on different spaces")
    m = g.map_named(map_name)
    kept = _built(PartialMap, m.name, g.space,
                  {x: y for x, y in m.mapping.items() if x in a.members})
    return Graphing(g.space, [kept if other is m else other for other in g.maps])


def restrict_relation(r: Relation, a: Subset) -> Relation:
    """The trace of r on a, re-indexed onto 0..|a|-1 in ascending atom order."""
    if r.space != a.space:
        raise ModelError("relation and subset live on different spaces")
    if not a.members:
        raise ModelError("cannot restrict to the empty subset")
    members = sorted(a.members)
    base, p = r.base, len(r.base)
    first: dict[int, int] = {}
    parent = []
    for i, x in enumerate(members):
        rep = base[x % p]
        if rep not in first:
            first[rep] = i
        parent.append(first[rep])
    return _built(Relation, FiniteSpace(len(members)), parent)


def compression_sides(r: Relation, a: Subset) -> tuple[Fraction, Fraction]:
    """Both sides of the finite compression identity for a subset meeting every class.

    lhs is min_cost of the re-indexed trace minus one; rhs is the weight of a
    times (min_cost(r) - 1).  On a finite space lhs <= rhs, with equality
    exactly when a is the whole space.
    """
    if r.space != a.space:
        raise ModelError("relation and subset live on different spaces")
    base, p = r.base, len(r.base)
    reps_met = {base[x % p] for x in a.members}
    if len(reps_met) != r.class_count():
        missed = next(x for x, rep in enumerate(base) if x == rep and x not in reps_met)
        raise ModelError(f"subset misses the class of atom {missed}")
    lhs = min_cost(restrict_relation(r, a)) - 1
    rhs = a.measure * (min_cost(r) - 1)
    return lhs, rhs


def brute_force_min_cost(r: Relation, edge_budget: int = 20) -> Fraction:
    """Exhaustive minimum of nu over edge sets regenerating r.

    Edges can only join atoms of one class, and the least connecting edge
    count of a class depends on its size alone, so each size above 1 is
    searched once.  A class of t atoms in the base on Z/p lifts to one of
    t*n/p atoms, so the sizes come from the base without building n entries.
    Refuses to run when the whole pair universe exceeds edge_budget, and refuses an
    edge_budget above MAX_EDGE_BUDGET before counting anything.
    """
    if edge_budget > MAX_EDGE_BUDGET:
        raise ModelError(f"the edge budget is at most {MAX_EDGE_BUDGET} pairs, got {edge_budget}")
    lift = r.space.n // len(r.base)
    sizes = Counter(t * lift for t in Counter(r.base).values() if t * lift > 1)
    universe = sum(count * (size * (size - 1) // 2) for size, count in sizes.items())
    if universe > edge_budget:
        raise EdgeBudgetError(
            f"edge universe has {universe} pairs, the budget is {edge_budget}")
    return r.space.measure(sum(count * _fewest_connecting_pairs(size)
                               for size, count in sizes.items()))


def _fewest_connecting_pairs(size: int) -> int:
    """Scan subsets of the pairs of size atoms in order of size; the first connecting size."""
    pairs = list(combinations(range(size), 2))
    for k in range(size):  # some (size-1)-subset always connects
        for combo in combinations(pairs, k):
            uf = UnionFind(size)
            for i, j in combo:
                uf.union(i, j)
            if uf.components == 1:
                return k
