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
from fractions import Fraction
from itertools import chain, combinations, compress

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
# Atoms that Relation.from_classes lists, that a union-find (on the quotient's p in
# _quotient, on n in reduce_to_treeing) or spanning_treeing's per-atom chain holds, and
# that a cycle walk may visit: orbit_exponent and first_return_map walk up to n atoms.
MAX_RELATION_ATOMS = 10_000_000
# Atoms that single_full_generator builds one by one, and that first_return_map, restrict_map
# and restrict_relation list from a subset.  Under a 1.5 GB address-space limit a single-gen
# process peaks at about 1.1 GB on 4*10**6 atoms and fails at 6*10**6.
MAX_DERIVED_ATOMS = 4_000_000
# Largest edge budget brute_force_min_cost accepts: the pair universe of one class of
# 8 atoms, which scans in about 2 s.  Each further atom costs about 20 times more.
MAX_EDGE_BUDGET = 28


_set = object.__setattr__  # how a record's __init__ stores a field past _Frozen


class _Record:
    """Base of the value classes: equality field by field, and a repr that lists the fields.

    A subclass names its fields in constructor order in _fields.  It stores
    them through this __init__, or through its own when it checks them or is
    built often enough for the generic loop to cost.  Records are equal only
    when they are of one class and their fields are equal.  A record is
    unhashable unless it is _Frozen.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        if (len(args) > len(fields) or values.keys() & kwargs.keys()
                or values.keys() | kwargs.keys() != set(fields)):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        values.update(kwargs)
        for name in fields:
            _set(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return super().__eq__(other)  # object's NotImplemented; a view's Mapping.__eq__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Frozen(_Record):
    """A record with read-only fields, hashed by their values; copies rerun __init__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _built(cls, *values):
    """cls(*values) for a record, without the checks of its __init__.

    Only code that has just built values correct by construction may call this,
    and only on Relation, PartialMap, Graphing or PermAction, whose __init__
    checks and never normalises.  Values from outside the program take the constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, values))
    return obj


def parse_rational(text) -> Fraction:
    """An exact ratio from text such as "7/2", "0.125" or "1e-3", its exponent bounded."""
    raw = str(text).strip()
    exponent = re.search(r"[eE][-+]?([\d_]+)$", raw)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise FormatError(f"cannot read {text!r} as an exact ratio: its decimal exponent "
                          f"passes {MAX_DECIMAL_EXPONENT} in size")
    try:  # as 3.12's Fraction reads it: 3.10 refuses "1_000", and 3.11 refuses "1 / 2"
        return Fraction(re.sub(r"\s*/\s*", "/", re.sub(r"(?<=\d)_(?=\d)", "", raw)))
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot read {text!r} as an exact ratio") from None


class FiniteSpace(_Frozen):
    """n atoms of equal weight; the finite model of a probability space."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ModelError(f"a space needs at least one atom, got n={n}")
        _set(self, "n", n)

    def __eq__(self, other):  # every Graphing compares each map's space: 10x the generic ==
        if other.__class__ is self.__class__:
            return self.n == other.n
        return NotImplemented

    __hash__ = _Frozen.__hash__

    def measure(self, count: int) -> Fraction:
        """Weight of any count-atom subset."""
        return Fraction(count, self.n)


class Arc(_Frozen):
    """length consecutive atoms from start, wrapping modulo n."""

    __slots__ = _fields = ("start", "length")

    def __init__(self, start: int, length: int):
        _set(self, "start", start)
        _set(self, "length", length)

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


class ShiftMapping(Arc, Mapping):
    """Read-only view of x -> x + step (mod n) on the atoms of an arc: an Arc with n and a step.

    Nothing is materialised: lookups, membership and len are O(1) and the
    arc is iterated lazily in the order start, start+1, ...  A shift is
    injective on any arc, so no entry ever needs checking.  A view equals
    another by its fields and any other mapping by its entries.
    """

    __slots__ = ("n", "step")
    _fields = ("n", "step", "start", "length")

    def __init__(self, n: int, step: int, start: int, length: int):
        if not (0 <= start < n and 0 <= length <= n):  # an Arc is built only to name the fault
            if n < 1:
                raise ModelError(f"a shift view needs n >= 1, got {n}")
            Arc(start, length).check(n)
        _set(self, "n", n)  # one stored form per entry set, so equal views hold equal entries:
        _set(self, "step", step % n if length else 0)  # an empty arc has step 0 and start 0,
        _set(self, "start", start if 0 < length < n else 0)  # and a full arc starts at 0
        _set(self, "length", length)

    def __len__(self) -> int:
        return self.length

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n and self.contains(x, self.n)

    def __getitem__(self, x: int) -> int:
        if x not in self:
            raise KeyError(x)
        return (x + self.step) % self.n

    def __iter__(self):
        return chain(*self.runs(self.n))


class PartialMap(_Record):
    """A named injective map from a subset of the atoms into the atoms.

    mapping holds source -> target entries, either as a dict or as a
    ShiftMapping view.  Loops (x -> x) are allowed; they widen the domain
    without relating distinct atoms.
    """

    _fields = ("name", "space", "mapping")

    def __init__(self, name: str, space: FiniteSpace, mapping: Mapping[int, int]):
        self.name = name
        self.space = space
        self.mapping = m = mapping
        n = space.n
        if isinstance(m, ShiftMapping):
            if m.n != n:
                raise ModelError(f"map {name!r}: shift view on n={m.n}, the map on n={n}")
            return
        if not m:
            return
        if min(m) < 0 or max(m) >= n:
            x = next(x for x in m if not 0 <= x < n)
            raise ModelError(f"map {name!r}: source atom {x} outside 0..{n - 1}")
        targets = m.values()
        if min(targets) < 0 or max(targets) >= n:
            y = next(y for y in targets if not 0 <= y < n)
            raise ModelError(f"map {name!r}: target atom {y} outside 0..{n - 1}")
        if len(set(targets)) != len(m):
            seen: dict[int, int] = {}
            for x, y in m.items():
                if y in seen:
                    raise ModelError(f"map {name!r}: atoms {seen[y]} and {x} share the target {y}")
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
        return _entries(self.mapping) == self.space.n

    def inverse(self) -> "PartialMap":
        m = self.mapping  # a view's inverse is x -> x - step on the shifted arc, in O(1)
        inverse = (ShiftMapping(m.n, -m.step, (m.start + m.step) % m.n, m.length)
                   if isinstance(m, ShiftMapping) else {y: x for x, y in m.items()})
        return _built(PartialMap, f"{self.name}_inv", self.space, inverse)


class Graphing(_Record):
    """An ordered family of distinctly named partial maps over one space."""

    _fields = ("space", "maps")

    def __init__(self, space: FiniteSpace, maps: list[PartialMap]):
        self.space = space
        self.maps = maps
        names = set()
        for m in maps:
            if m.space != space:
                raise ModelError(
                    f"map {m.name!r} lives on n={m.space.n}, the graphing on n={space.n}")
            if m.name in names:
                raise ModelError(f"duplicate map name {m.name!r}")
            names.add(m.name)

    def map_named(self, name: str) -> PartialMap:
        for m in self.maps:
            if m.name == name:
                return m
        raise ModelError(f"no map named {name!r}")


class Relation(_Record):
    """An equivalence relation stored as a canonical representative array of period p.

    p = len(base) divides n, base[x] is the least atom equivalent to x for
    x < p, and every atom x is equivalent to base[x % p].  Every entry of base
    is below p, so each class of base on Z/p lifts to exactly one class on
    Z/n, and a rotation family's relation costs p numbers, not n.
    The constructor checks base on Z/p in O(p) and stores it without lifting.
    """

    _fields = ("space", "base")

    def __init__(self, space: FiniteSpace, base: list[int]):
        self.space = space
        self.base = b = base
        p, n = len(b), space.n
        if p == 0 or n % p:
            raise ModelError(f"representative array has length {p}, space has {n} atoms")
        for x in range(p):
            r = b[x]
            if not 0 <= r <= x:
                raise ModelError(f"atom {x}: representative {r} is not an atom <= {x}")
            if b[r] != r:
                raise ModelError(f"atom {x}: representative {r} is not its own representative")

    @property
    def parent(self) -> list[int]:
        """parent[x] is the least atom equivalent to x; a fresh n-entry lift per access."""
        return self.base * (self.space.n // len(self.base))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        a, b = self.base, other.base
        if len(a) == len(b):  # one period: compare the bases as they are, copying nothing
            return self.space == other.space and a == b
        d = math.gcd(len(a), len(b))  # equal relations keep both periods: compare on Z/d, O(p + q)
        return self.space == other.space and a[:d] == b[:d] and a[d:] == a[:-d] and b[d:] == b[:-d]

    @classmethod
    def from_classes(cls, space: FiniteSpace, groups) -> "Relation":
        """Build from lists of atoms; atoms left unlisted become singletons."""
        if space.n > MAX_RELATION_ATOMS:
            raise ModelError(f"a relation read from classes has at most {MAX_RELATION_ATOMS} "
                             f"atoms, got n={space.n}")
        parent = list(range(space.n))
        seen = bytearray(space.n)
        for group in groups:
            members = sorted(group)
            for x in members:
                if not 0 <= x < space.n:
                    raise ModelError(f"class member {x} outside 0..{space.n - 1}")
                if seen[x]:
                    raise ModelError(f"atom {x} listed in two classes")
                seen[x] = 1
                parent[x] = members[0]
        return _built(cls, space, parent)

    def class_count(self) -> int:
        return len(set(self.base))  # a canonical base holds each representative once per class

    def classes(self) -> list[list[int]]:
        """Classes as ascending atom lists, ordered by representative."""
        groups: dict[int, list[int]] = {}
        for x, r in enumerate(self.parent):
            groups.setdefault(r, []).append(x)
        return [groups[r] for r in sorted(groups)]


class Subset(_Frozen):
    """A set of atoms with its weight: a frozenset, or an Arc kept as its step-0 ShiftMapping."""

    __slots__ = _fields = ("space", "members")

    def __init__(self, space: FiniteSpace, members: frozenset[int] | Arc):
        _set(self, "space", space)
        if isinstance(members, Arc):  # read on space, checked by Arc.check's texts, never listed
            members = ShiftMapping(space.n, 0, members.start, members.length)
        elif members := frozenset(members):
            low, high = min(members), max(members)
            if low < 0 or high >= space.n:
                raise ModelError(f"subset member {low if low < 0 else high} "
                                 f"outside 0..{space.n - 1}")
        _set(self, "members", members)

    @property
    def measure(self) -> Fraction:
        return self.space.measure(_entries(self.members))

    def __contains__(self, x: int) -> bool:
        return x in self.members


class EdgeSet(_Frozen):
    """Ordered atom pairs with set semantics; repeats collapse, loops stay."""

    __slots__ = _fields = ("space", "edges")

    def __init__(self, space: FiniteSpace, edges: frozenset[tuple[int, int]]):
        _set(self, "space", space)
        _set(self, "edges", frozenset(tuple(e) for e in edges))
        for x, y in self.edges:
            if not (0 <= x < space.n and 0 <= y < space.n):
                raise ModelError(f"edge ({x}, {y}) leaves 0..{space.n - 1}")


def _entries(mapping: Mapping[int, int]) -> int:
    """len(mapping), which len() cannot return for a view of sys.maxsize atoms or more."""
    return mapping.length if isinstance(mapping, ShiftMapping) else len(mapping)


def cost(g: Graphing) -> Fraction:
    """Total weight of the map domains, counted with multiplicity."""
    return g.space.measure(sum(_entries(m.mapping) for m in g.maps))


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
            arcs.setdefault(v.step, []).extend([run.start, run.stop] for run in v.runs(n))
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


def _check_atom_count(count: int):
    """Refuse a union-find or per-atom list past MAX_RELATION_ATOMS before it is allocated."""
    if count > MAX_RELATION_ATOMS:
        raise ModelError(f"a union-find or per-atom list holds at most {MAX_RELATION_ATOMS} "
                         f"atoms, got {count}")


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
    p = math.gcd(n, *(m.step for m in maps if isinstance(m, ShiftMapping) and m.length == n))
    _check_atom_count(p)
    uf = UnionFind(p)
    for m in maps:
        if not isinstance(m, ShiftMapping):
            if p == n:  # the atoms are already residues
                uf.union_all(m.keys(), m.values())
            else:
                uf.union_all([x % p for x in m], [y % p for y in m.values()])
        elif m.length < n:  # min(length, p) entries: few once a full view makes p small
            for x in range(m.start, m.start + min(m.length, p)):
                uf.union(x % p, (x + m.step) % p)
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
    _check_atom_count(r.space.n)
    last: dict[int, int] = {}
    mapping: dict[int, int] = {}
    for x, rep in enumerate(r.parent):
        if rep in last:
            mapping[x] = last[rep]
        last[rep] = x
    return _built(Graphing, r.space, [_built(PartialMap, "forest", r.space, mapping)])


def reduce_to_treeing(g: Graphing) -> Graphing:
    """Delete entries until the survivors form a spanning forest.

    Scans maps in list order and sources ascending, keeping an entry exactly
    when it joins two still-separate components.  The survivors generate the
    same relation at its minimal cost; a treeing passes through unchanged.
    """
    _check_atom_count(g.space.n)
    uf = UnionFind(g.space.n)
    kept_maps = []
    for m in g.maps:
        sources = sorted(m.mapping)
        targets = [m.mapping[x] for x in sources]
        kept = dict(compress(zip(sources, targets), uf.union_all(sources, targets)))
        kept_maps.append(_built(PartialMap, m.name, g.space, kept))
    return _built(Graphing, g.space, kept_maps)


def single_full_generator(r: Relation) -> PartialMap:
    """A permutation cycling every class in ascending order, cost exactly 1."""
    if r.space.n > MAX_DERIVED_ATOMS:
        raise ModelError(f"a single full generator is built on at most {MAX_DERIVED_ATOMS} "
                         f"atoms, got n={r.space.n}")
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
            f"{_entries(psi.mapping)} of {psi.space.n} atoms")


def _require_atom(space: FiniteSpace, x: int):
    if not 0 <= x < space.n:
        raise ModelError(f"atom {x} outside 0..{space.n - 1}")


def _require_walk(space: FiniteSpace):
    """Refuse a cycle walk, which may visit every atom, past MAX_RELATION_ATOMS atoms."""
    if space.n > MAX_RELATION_ATOMS:
        raise ModelError(f"a cycle walk visits at most {MAX_RELATION_ATOMS} atoms, "
                         f"got n={space.n}")


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
    _require_walk(psi.space)
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
    check_restriction_size(_entries(a.members))
    _require_permutation(psi)
    if psi.space != a.space:
        raise ModelError("map and subset live on different spaces")
    if not _entries(a.members):
        raise ModelError("first return needs a nonempty subset")
    _require_walk(psi.space)
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
    check_restriction_size(_entries(a.members))
    m = g.map_named(map_name)
    kept = _built(PartialMap, m.name, g.space,
                  {x: m.mapping[x] for x in sorted(a.members) if x in m.mapping})
    return _built(Graphing, g.space, [kept if other is m else other for other in g.maps])


def check_restriction_size(count: int):
    """Refuse a restriction to more than MAX_DERIVED_ATOMS atoms; callable before they are listed."""
    if count > MAX_DERIVED_ATOMS:
        raise ModelError(f"a restricted relation has at most {MAX_DERIVED_ATOMS} atoms, "
                         f"got {count}")


def restrict_relation(r: Relation, a: Subset) -> Relation:
    """The trace of r on a, re-indexed onto 0..|a|-1 in ascending atom order."""
    if r.space != a.space:
        raise ModelError("relation and subset live on different spaces")
    if not _entries(a.members):
        raise ModelError("cannot restrict to the empty subset")
    check_restriction_size(_entries(a.members))
    members = sorted(a.members)
    base, p = r.base, len(r.base)
    first: dict[int, int] = {}  # representative -> index of its least atom in a
    parent = [first.setdefault(base[x % p], i) for i, x in enumerate(members)]
    return _built(Relation, FiniteSpace(len(members)), parent)


def compression_sides(r: Relation, a: Subset) -> tuple[Fraction, Fraction]:
    """Both sides of the finite compression identity for a subset meeting every class.

    lhs is min_cost of the re-indexed trace minus one, -c/|a|, as the trace has the c
    classes of r on |a| atoms; rhs is the weight of a times (min_cost(r) - 1).  On a
    finite space lhs <= rhs, with equality exactly when a is the whole space.
    """
    if r.space != a.space:
        raise ModelError("relation and subset live on different spaces")
    base, p, members = r.base, len(r.base), a.members
    classes = r.class_count()  # counted first, so its peak and met's do not add up
    met = bytearray(p)  # an arc's first p atoms, read as a range, meet every residue it meets
    for x in (range(members.start, members.start + min(members.length, p))
              if isinstance(members, ShiftMapping) else members):
        met[base[x % p]] = 1
    if met.count(1) != classes:
        missed = next(x for x, rep in enumerate(base) if x == rep and not met[x])
        raise ModelError(f"subset misses the class of atom {missed}")
    lhs = Fraction(-classes, _entries(members))
    rhs = a.measure * (r.space.measure(r.space.n - classes) - 1)
    return lhs, rhs


def brute_force_min_cost(r: Relation, edge_budget: int = 20) -> Fraction:
    """Exhaustive minimum of nu over edge sets regenerating r.

    Edges can only join atoms of one class, and the least connecting edge
    count of a class depends on its size alone, so each size is searched
    once.  A class of t atoms on Z/p lifts to t*n/p atoms, and t - 1 base
    entries name its least atom, so the sizes need no count per atom.
    Refuses to run when the whole pair universe exceeds edge_budget, and refuses an
    edge_budget above MAX_EDGE_BUDGET before counting anything.
    """
    if edge_budget > MAX_EDGE_BUDGET:
        raise ModelError(f"the edge budget is at most {MAX_EDGE_BUDGET} pairs, got {edge_budget}")
    lift = r.space.n // len(r.base)
    joined = Counter(rep for x, rep in enumerate(r.base) if rep != x)  # rep -> atoms past it
    sizes = Counter({lift: len(r.base) - len(joined) - joined.total()})  # one-atom classes on Z/p
    sizes += Counter((t + 1) * lift for t in joined.values())
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
