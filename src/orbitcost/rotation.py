"""Cyclic rotation systems: finite stand-ins for circle rotations.

The space is Z/nZ and each named step s acts by x -> x + s (mod n).  A step
size coprime to n plays the role of an irrational angle: on its own it
already visits every atom.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import islice

from .relcore import (
    Arc,
    FiniteSpace,
    Graphing,
    ModelError,
    PartialMap,
    Relation,
    ShiftMapping,
    _built,
    _check_atom_count,
    _Frozen,
    _quotient,
    _Record,
    _set,
    parse_rational,
)


# eps values in one curve, counted before any is parsed.  At the cap the worst curve measured
# (150-digit eps, --format json) peaks under 180 MiB; 800000 eps ran out of 1 GiB.
MAX_CURVE_ROWS = 100_000


class UnreachableArcError(ModelError):
    """No forward iterate of the step lands in the arc."""


class RotationSystem(_Record):
    """n atoms with an ordered family of named steps, stored reduced mod n."""

    _fields = ("n", "steps")

    def __init__(self, n: int, steps: dict[str, int]):
        if n < 1:
            raise ModelError(f"a rotation system needs n >= 1, got {n}")
        for name in steps:
            if not isinstance(name, str) or not name:
                raise ModelError(f"step name {name!r} must be a nonempty string")
        self.n = n
        self.steps = {name: s % n for name, s in steps.items()}

    @property
    def space(self) -> FiniteSpace:
        return FiniteSpace(self.n)


def expected_relation(sys: RotationSystem) -> Relation:
    """Cosets of g = gcd(n, all steps): the orbit partition of the full action."""
    g = math.gcd(sys.n, *sys.steps.values())
    _check_atom_count(g)
    return _built(Relation, sys.space, list(range(g)))


def full_graphing(sys: RotationSystem) -> Graphing:
    """Every step on its full domain, each map a shift view."""
    space, n = sys.space, sys.n
    return _built(Graphing, space, [_built(PartialMap, name, space, ShiftMapping(n, s, 0, n))
                                    for name, s in sys.steps.items()])


def _full_size(sys: RotationSystem, full_step: str) -> int:
    """The size of the step kept full, once the family has another step to restrict."""
    if len(sys.steps) < 2:
        raise ModelError("need at least two steps to restrict against a full one")
    if full_step not in sys.steps:
        raise ModelError(f"no step named {full_step!r}")
    return sys.steps[full_step]


def epsilon_graphing(sys: RotationSystem, full_step: str, arc: Arc) -> Graphing:
    """Keep one step everywhere and restrict every other step to the arc.

    Costs 1 + (k-1) * length/n for k steps.  When the full step is coprime
    to n the family still generates the whole orbit partition, because any
    restricted jump can be reached through the arc.  Every map is a shift
    view, so building the graphing takes O(k) whatever n is.
    """
    _full_size(sys, full_step)
    space, n = sys.space, sys.n
    return _built(Graphing, space, [_built(PartialMap, name, space,
                                           ShiftMapping(n, s, 0, n) if name == full_step
                                           else ShiftMapping(n, s, arc.start, arc.length))
                                    for name, s in sys.steps.items()])


def _least_iterate(a: int, b: int, n: int, width: int) -> int | None:
    """Least m >= 0 with (b + m*a) mod n < width, for 0 <= a, b < n; None if none."""
    if b < width:
        return 0
    levels = []
    while a and width:
        # b + m*a lands in [0, width) exactly when m*a mod n lands in [lo, hi]; k*(n - a)
        # mod n mirrors k*a mod n, since the window excludes 0, so the step is at most n/2
        lo, hi = n - b, n - b + width - 1
        if 2 * a > n:
            a, lo, hi = n - a, n - hi, n - lo
        m = -(-lo // a)
        if m * a <= hi:
            for lo, n, a in reversed(levels):
                m = -(-(lo + m * n) // a)
            return m
        # No multiple of a falls in [lo, hi], so hi - lo < a and each window
        # [lo + j*n, hi + j*n] holds at most one, at ceil((lo + j*n)/a).  The least j whose
        # window holds one gives the least k, and a window holds one exactly when
        # (-lo - j*n) mod a <= hi - lo: the same problem with modulus a, solved at the next
        # level; its answer j unwinds through the levels recorded here, deepest first.
        levels.append((lo, n, a))
        a, b, n, width = -n % a, -lo % a, a, hi - lo + 1
    return None


def first_hitting_time(n: int, step: int, x: int, arc: Arc) -> int:
    """Least m >= 0 with x + m*step inside the arc (mod n).

    Solved by one Euclid-style loop on (step, n) that at least halves the modulus each
    level, so it takes O(log n) steps whatever the arc length, and no recursion at any n.
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


class Segment(_Frozen):
    """count repeats of one elementary jump; power -1 means the inverse step."""

    __slots__ = _fields = ("step", "power", "count")

    def __init__(self, step: str, power: int, count: int):
        _set(self, "step", step)
        _set(self, "power", power)
        _set(self, "count", count)


class Path(_Record):
    """A run-length encoded walk across the rotation graph."""

    _fields = ("n", "start", "end", "hit", "segments")

    def __init__(self, n: int, start: int, end: int, hit: int, segments: list[Segment]):
        self.n = n
        self.start = start
        self.end = end
        self.hit = hit
        self.segments = segments

    @property
    def length(self) -> int:
        return sum(seg.count for seg in self.segments)


def connection_path(sys: RotationSystem, full_step: str, restricted_step: str,
                    arc: Arc, x: int) -> Path:
    """Rebuild a restricted jump from x using full jumps on either side.

    Rides the full step m times into the arc, applies the restricted step
    once, then rides the full step back: 2m+1 jumps landing on x + s_b, an
    identity of arithmetic; the restricted jump's source lies in the arc by
    first_hitting_time's contract.  The tests keep the jump-by-jump walk as oracle.
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
    return Path(sys.n, x, (x + sb) % sys.n, (x + m * sa) % sys.n, segments)


class CurveRow(_Frozen):
    __slots__ = _fields = ("eps", "arc_len", "cost", "generates")


class CostCurve(_Record):
    _fields = ("rows", "infimum")


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


def _curve_eps(eps_values) -> list:
    """At most MAX_CURVE_ROWS values of any iterable, refused past that before any is parsed."""
    values = list(islice(eps_values, MAX_CURVE_ROWS + 1))
    if len(values) > MAX_CURVE_ROWS:
        raise ModelError(f"an eps curve takes at most {MAX_CURVE_ROWS} eps values")
    return values


def cost_epsilon_curve(sys: RotationSystem, full_step: str, eps_values) -> CostCurve:
    """Cost of the restricted family as the arc shrinks, every eps checked first.

    One row per eps: the arc is the first ceil(eps * n) atoms, and k steps cost exactly
    (n + (k - 1) * arc_len)/n.  Every step keeps x mod g, so the family generates exactly
    when it has g classes: at once if g == p = gcd(n, full step) or the arc meets all p
    residues, else as a Z/p union-find counts.  A longer arc keeps every entry of a shorter
    one, so each row compares its arc with one least generating length, bisected among the
    distinct lengths below p: at most ceil(log2(j + 1)) union-finds for j such lengths.
    Infimum 1 only when p == 1.  At most MAX_CURVE_ROWS + 1 eps values are read from any iterable.
    """
    p = math.gcd(sys.n, _full_size(sys, full_step))
    epsilons = [_exact_eps(value) for value in _curve_eps(eps_values)]
    g = math.gcd(sys.n, *sys.steps.values())
    lengths = [-(-eps.numerator * sys.n // eps.denominator) for eps in epsilons]  # ceil(eps * n)
    short = sorted({length for length in lengths if length < p})
    least = 0 if g == p else (short + [p])[bisect_left(short, True, key=lambda length: _quotient(
        epsilon_graphing(sys, full_step, Arc(0, length))).components == g)]
    k = len(sys.steps)
    return CostCurve([CurveRow(eps, arc_len, Fraction(sys.n + (k - 1) * arc_len, sys.n),
                               arc_len >= least) for eps, arc_len in zip(epsilons, lengths)],
                     Fraction(1) if p == 1 else None)
