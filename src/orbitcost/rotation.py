"""Cyclic rotation systems: finite stand-ins for circle rotations.

The space is Z/nZ and each named step s acts by x -> x + s (mod n).  A step
size coprime to n plays the role of an irrational angle: on its own it
already visits every atom.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .relcore import (
    Arc,
    FiniteSpace,
    Graphing,
    ModelError,
    PartialMap,
    Relation,
    ShiftMapping,
    _built,
    cost,
    generates,
    parse_rational,
)


class UnreachableArcError(ModelError):
    """No forward iterate of the step lands in the arc."""


@dataclass
class RotationSystem:
    """n atoms with an ordered family of named steps, stored reduced mod n."""

    n: int
    steps: dict[str, int]

    def __post_init__(self):
        if self.n < 1:
            raise ModelError(f"a rotation system needs n >= 1, got {self.n}")
        for name in self.steps:
            if not isinstance(name, str) or not name:
                raise ModelError(f"step name {name!r} must be a nonempty string")
        self.steps = {name: s % self.n for name, s in self.steps.items()}

    @property
    def space(self) -> FiniteSpace:
        return FiniteSpace(self.n)


def expected_relation(sys: RotationSystem) -> Relation:
    """Cosets of g = gcd(n, all steps): the orbit partition of the full action."""
    g = math.gcd(sys.n, *sys.steps.values())
    return _built(Relation, sys.space, list(range(g)))


def full_graphing(sys: RotationSystem) -> Graphing:
    """Every step on its full domain, each map a shift view."""
    space = sys.space
    return Graphing(space, [PartialMap(name, space, ShiftMapping(sys.n, s, 0, sys.n))
                            for name, s in sys.steps.items()])


def epsilon_graphing(sys: RotationSystem, full_step: str, arc: Arc) -> Graphing:
    """Keep one step everywhere and restrict every other step to the arc.

    Costs 1 + (k-1) * length/n for k steps.  When the full step is coprime
    to n the family still generates the whole orbit partition, because any
    restricted jump can be reached through the arc.  Every map is a shift
    view, so building the graphing takes O(k) whatever n is.
    """
    if len(sys.steps) < 2:
        raise ModelError("need at least two steps to restrict against a full one")
    if full_step not in sys.steps:
        raise ModelError(f"no step named {full_step!r}")
    space = sys.space
    n = sys.n
    maps = []
    for name, s in sys.steps.items():
        if name == full_step:
            view = ShiftMapping(n, s, 0, n)
        else:
            view = ShiftMapping(n, s, arc.start, arc.length)
        maps.append(PartialMap(name, space, view))
    return Graphing(space, maps)


def _least_iterate(a: int, b: int, n: int, width: int) -> int | None:
    """Least m >= 0 with (b + m*a) mod n < width, for 0 <= a, b < n; None if none."""
    if b < width:
        return 0
    if a == 0 or width == 0:
        return None
    # b + m*a lands in [0, width) exactly when m*a lands in [n - b, n - b + width)
    return _least_multiple(a, n, n - b, n - b + width - 1)


def _least_multiple(a: int, n: int, lo: int, hi: int) -> int | None:
    """Least k >= 1 with lo <= k*a mod n <= hi, for 0 < a < n and 0 < lo <= hi < n."""
    if 2 * a > n:  # k*(n - a) mod n mirrors k*a mod n, and the window excludes 0
        a, lo, hi = n - a, n - hi, n - lo
    k = -(-lo // a)
    if k * a <= hi:
        return k
    # No multiple of a falls in [lo, hi], so hi - lo < a and each window
    # [lo + j*n, hi + j*n] holds at most one.  The least j whose window holds
    # one gives the least k, and a window holds one exactly when
    # (-lo - j*n) mod a <= hi - lo: the same problem with modulus a <= n/2.
    j = _least_iterate(-n % a, -lo % a, a, hi - lo + 1)
    return None if j is None else -(-(lo + j * n) // a)


def first_hitting_time(n: int, step: int, x: int, arc: Arc) -> int:
    """Least m >= 0 with x + m*step inside the arc (mod n).

    Solved by a Euclid-style recursion on (step, n) that at least halves the
    modulus each level, so it takes O(log n) steps whatever the arc length.
    """
    if n < 1:
        raise ModelError(f"modulus must be positive, got {n}")
    arc.check(n)
    if not 0 <= x < n:
        raise ModelError(f"atom {x} outside 0..{n - 1}")
    step %= n
    m = _least_iterate(step, (x - arc.start) % n, n, arc.length)
    if m is None:
        raise UnreachableArcError(
            f"step {step} from atom {x} never enters the arc at {arc.start} of length {arc.length}")
    return m


@dataclass(frozen=True)
class Segment:
    """count repeats of one elementary jump; power -1 means the inverse step."""

    step: str
    power: int
    count: int


@dataclass
class Path:
    """A run-length encoded walk across the rotation graph."""

    n: int
    start: int
    end: int
    hit: int
    segments: list[Segment]

    @property
    def length(self) -> int:
        return sum(seg.count for seg in self.segments)


def connection_path(sys: RotationSystem, full_step: str, restricted_step: str,
                    arc: Arc, x: int) -> Path:
    """Rebuild a restricted jump from x using full jumps on either side.

    Rides the full step m times into the arc, applies the restricted step
    once, then rides the full step back: 2m+1 jumps landing on x + s_b.  The
    endpoint identity and the arc membership of the restricted jump's source
    are both checked before returning.
    """
    for name in (full_step, restricted_step):
        if name not in sys.steps:
            raise ModelError(f"no step named {name!r}")
    if full_step == restricted_step:
        raise ModelError("the restricted step must differ from the full step")
    sa = sys.steps[full_step]
    sb = sys.steps[restricted_step]
    m = first_hitting_time(sys.n, sa, x, arc)
    segments = []
    if m:
        segments.append(Segment(full_step, 1, m))
    segments.append(Segment(restricted_step, 1, 1))
    if m:
        segments.append(Segment(full_step, -1, m))
    z = x  # walk the segments to get the endpoint the long way
    for seg in segments:
        z = (z + sys.steps[seg.step] * seg.power * seg.count) % sys.n
    hit = (x + m * sa) % sys.n
    if z != (x + sb) % sys.n:
        raise AssertionError("rotation arithmetic broke the endpoint identity")
    if not arc.contains(hit, sys.n):
        raise AssertionError("hitting time left the restricted jump outside its arc")
    return Path(sys.n, x, z, hit, segments)


@dataclass(frozen=True)
class CurveRow:
    eps: Fraction
    arc_len: int
    cost: Fraction
    generates: bool


@dataclass
class CostCurve:
    rows: list[CurveRow]
    infimum: Fraction | None


def _exact_eps(value) -> Fraction:
    if isinstance(value, float):
        raise ModelError(
            f"eps {value!r} is a float; pass a ratio string or Fraction instead")
    eps = Fraction(value) if isinstance(value, (int, Fraction)) else parse_rational(value)
    if not 0 < eps <= 1:
        # str() of an integer past a few thousand digits raises; name the side instead
        shown = eps if max(abs(eps.numerator), eps.denominator).bit_length() <= 1000 else (
            "a ratio above 1" if eps > 1 else "a ratio at most 0")
        raise ModelError(f"eps must lie in (0, 1], got {shown}")
    return eps


def cost_epsilon_curve(sys: RotationSystem, full_step: str, eps_values) -> CostCurve:
    """Cost of the restricted family as the arc shrinks.

    One row per eps value: the arc is the first ceil(eps * n) atoms, the cost
    column is exact, and the generates column re-derives the orbit partition
    from scratch.  When the full step is coprime to n the infimum value 1 is
    reported; otherwise no infimum is claimed.
    """
    if len(sys.steps) < 2:
        raise ModelError("need at least two steps to restrict against a full one")
    if full_step not in sys.steps:
        raise ModelError(f"no step named {full_step!r}")
    expected = expected_relation(sys)
    rows = []
    for value in eps_values:
        eps = _exact_eps(value)
        arc_len = -(-eps.numerator * sys.n // eps.denominator)  # ceil(eps * n)
        g = epsilon_graphing(sys, full_step, Arc(0, arc_len))
        rows.append(CurveRow(eps, arc_len, cost(g), generates(g, expected)))
    infimum = Fraction(1) if math.gcd(sys.steps[full_step], sys.n) == 1 else None
    return CostCurve(rows, infimum)
