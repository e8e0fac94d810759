"""Reference answers, computed without importing the code under test.

Every expected value comes from a closed form, a computation on a quotient,
or a slow but plain oracle written here: the cost `1 + (k-1)L/n` of an
eps-graphing, the class count of a rotation family on `Z/gcd(full, n)`, an
O(log n) Euclid-style hitting time, a private union-find for random
graphings, and the documented report layout of the command line.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def fmt_rational(value) -> str:
    """Exact ratio text: "p/q" in lowest terms, bare "p" when q is 1."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class DisjointSets:
    """Union by size over atoms 0..n-1; classes are named by their least atom."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True

    def least_atoms(self) -> list[int]:
        """Per atom, the least atom of its class."""
        least: dict[int, int] = {}
        out = []
        for x in range(len(self.parent)):
            out.append(least.setdefault(self.find(x), x))
        return out


# ---------------------------------------------------------------- rotations

def _least_positive(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least k >= 1 with lo <= a*k mod m <= hi, for 0 < a < m and 0 < lo <= hi < m."""
    if 2 * a > m:  # negate everything mod m so the step is at most m/2
        a, lo, hi = m - a, m - hi, m - lo
    k = -(-lo // a)
    if a * k <= hi:
        return k
    # Every hit wraps past m at least once.  With y wraps a*k lies in
    # [lo + m*y, hi + m*y], which holds a multiple of a exactly when
    # (-m*y - lo) mod a <= hi - lo; the least such y gives the least k.
    y = _least(-m % a, -lo % a, a, 0, hi - lo)
    return None if y is None else -(-(lo + m * y) // a)


def _least(a: int, b: int, m: int, lo: int, hi: int) -> int | None:
    """Least k >= 0 with lo <= (a*k + b) mod m <= hi, for 0 <= lo <= hi < m."""
    a %= m
    b %= m
    if lo <= b <= hi:
        return 0
    if a == 0:
        return None
    # b lies outside [lo, hi], so the shifted window neither wraps nor holds 0.
    return _least_positive(a, m, (lo - b) % m, (hi - b) % m)


def hitting_time(n: int, step: int, x: int, start: int, length: int) -> int | None:
    """Least m >= 0 with x + m*step inside the arc [start, start+length) mod n.

    Runs in O(log n) whatever the arc length; None when no iterate enters.
    """
    if length < 1:
        return None
    return _least(step % n, (x - start) % n, n, 0, length - 1)


def rotation_classes(n: int, steps: dict[str, int], full: str, arc_len: int) -> int:
    """Classes generated by the full step everywhere and the others on atoms 0..arc_len-1.

    The full step alone has the cosets of g = gcd(full, n) as its orbits, so
    the count is the number of components of Z/g once each restricted step
    joins the residues the arc meets.
    """
    g = math.gcd(steps[full], n)
    sets = DisjointSets(g)
    for name, s in steps.items():
        if name != full:
            for r in range(min(arc_len, g)):
                sets.union(r, (r + s) % g)
    return sets.components


# ---------------------------------------------------------------- graphings

def classes_of(n: int, pairs) -> list[int]:
    sets = DisjointSets(n)
    for x, y in pairs:
        sets.union(x, y)
    return sets.least_atoms()


def class_count(parent: list[int]) -> int:
    return sum(1 for x, r in enumerate(parent) if x == r)


def class_lists(parent: list[int]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for x, r in enumerate(parent):
        groups.setdefault(r, []).append(x)
    return [groups[r] for r in sorted(groups)]


def is_forest(n: int, maps) -> bool:
    sets = DisjointSets(n)
    return all(x != y and sets.union(x, y) for _, m in maps for x, y in m.items())


def reduced(n: int, maps) -> list[tuple[str, dict[int, int]]]:
    """Keep an entry exactly when it joins two separate components.

    Maps are scanned in order and sources ascending, as the reduction promises.
    """
    sets = DisjointSets(n)
    out = []
    for name, m in maps:
        out.append((name, {x: m[x] for x in sorted(m) if m[x] != x and sets.union(x, m[x])}))
    return out


def map_doc(name: str, mapping: dict[int, int]) -> dict:
    return {"name": name, "pairs": [[x, mapping[x]] for x in sorted(mapping)]}


# ---------------------------------------------------------------- rendering

def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, sort_keys=True)


def _table(rows: list[dict]) -> list[str]:
    cols = list(rows[0])
    cells = [[_scalar(row[c]) for c in cols] for row in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    return ["  " + "  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip()
            for line in [cols, *cells]]


def render(report: dict, fmt: str) -> str:
    """The documented report layouts: sorted-key JSON, or key: value lines and tables."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            lines.extend(_table(value))
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {_scalar(v)}" for k, v in value.items())
        else:
            lines.append(f"{key}: {_scalar(value)}")
    return "\n".join(lines) + "\n"
