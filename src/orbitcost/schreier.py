"""Coset actions of free products of cyclic groups and their rank arithmetic.

A group spec [m_1, ..., m_k] stands for the free product of cyclic groups of
those orders, with 0 meaning the infinite cyclic factor.  Finite-index data
arrives as one permutation of the cosets 0..i-1 per factor; a torsion factor
must act with every cycle of full length, the combinatorial shadow of a free
action.
"""
from __future__ import annotations

import itertools
import math
import random
import sys
from array import array
from fractions import Fraction

from . import relcore
from .relcore import ModelError, _Frozen, _Record, _set

MAX_ATTEMPTS = 10_000
MAX_SAMPLER_COSETS = 2_000_000  # index times factors, checked before any coset list is built
MAX_SAMPLER_DRAWS = 40_000_000  # cosets drawn per call over all attempts; bounds its time
MAX_GRADIENT_ROWS = 10_000  # indices per rank_gradient call, checked before any row

_SHUFFLE_CHUNK = 4096  # 32-bit words fetched per getrandbits call
_WORD = next(code for code in "IL" if array(code).itemsize == 4)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer; the one fixed mixing step behind every stream."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *counters: int) -> int:
    """Fold counters into the master seed, one mixing round per counter.

    Sampling draws its per-(factor, attempt) streams from here, which keeps
    every result a pure function of the arguments no matter how calls are
    scheduled.
    """
    state = mix64(master)
    for c in counters:
        state = mix64((state + _GOLDEN + c) & _MASK)
    return state


class GroupSpec(_Frozen):
    """Orders of the free-product factors; 0 is the infinite cyclic factor."""

    __slots__ = _fields = ("factor_orders",)

    def __init__(self, factor_orders: tuple[int, ...]):
        _set(self, "factor_orders", tuple(factor_orders))
        if not self.factor_orders:
            raise ModelError("a group spec needs at least one factor")
        for m in self.factor_orders:
            if m < 0 or m == 1:
                raise ModelError(f"factor order {m} must be 0 or at least 2")


class GroupInvariants(_Frozen):
    __slots__ = _fields = ("factor_costs", "predicted_cost", "beta1", "rank")


def factor_cost(order: int) -> Fraction:
    """1 - 1/m for a finite cyclic factor, 1 for the infinite one."""
    return Fraction(1) if order == 0 else 1 - Fraction(1, order)


def group_invariants(spec: GroupSpec) -> GroupInvariants:
    costs = tuple(factor_cost(m) for m in spec.factor_orders)
    total = sum(costs, Fraction(0))
    return GroupInvariants(costs, total, total - 1, len(spec.factor_orders))


def _cycle_lengths(perm, index: int) -> list[int]:
    """Cycle lengths of perm, in order of their least coset, from one walk.

    The walk is also the permutation check: every entry must lie in
    0..index-1 and every cycle must close at its own start, since meeting a
    coset seen before means two cosets share an image.
    """
    error = f"each factor needs a permutation of 0..{index - 1}"
    if len(perm) != index:
        raise ModelError(error)
    seen = bytearray(index)
    lengths = []
    try:
        for start in range(index):
            if seen[start]:
                continue
            x = start
            length = 0
            while True:
                seen[x] = 1
                length += 1
                x = perm[x]
                if x == start:
                    break
                if not 0 <= x < index or seen[x]:
                    raise ModelError(error)
            lengths.append(length)
    except TypeError:  # an entry that is not an int
        raise ModelError(error) from None
    return lengths


def _transitive(perms, index: int) -> bool:
    """Whether coset 0's orbit is every coset; a rejected draw costs only that orbit."""
    seen = bytearray(index)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for perm in perms:
            y = perm[x]
            if not seen[y]:
                seen[y] = 1
                reached += 1
                stack.append(y)
    return reached == index


class PermAction(_Record):
    """One permutation of the cosets per factor, acting freely at torsion."""

    _fields = ("spec", "index", "perms")

    def __init__(self, spec: GroupSpec, index: int, perms: list[list[int]]):
        self.spec = spec
        self.index = index
        self.perms = perms
        if index < 1:
            raise ModelError(f"index must be positive, got {index}")
        if len(perms) != len(spec.factor_orders):
            raise ModelError(f"{len(spec.factor_orders)} factors but {len(perms)} permutations")
        for order, perm in zip(spec.factor_orders, perms):
            lengths = _cycle_lengths(perm, index)
            if order and any(length != order for length in lengths):
                raise ModelError(
                    f"an order-{order} factor must act with every cycle of length {order}")
        if not _transitive(perms, index):
            raise ModelError("the factors do not act transitively on the cosets")


def _shuffle(rng: random.Random, x: list) -> None:
    """rng.shuffle(x) from 32-bit words fetched in bulk: the same swaps, the same end state.

    CPython's shuffle swaps x[i] with x[j] for i from len(x) - 1 down to 1,
    where j is the top (i + 1).bit_length() bits of one MT19937 word, drawn
    again while j > i.  Each step takes at least one word, so a fetch of at
    most i words is never more than shuffle itself would draw, and
    getrandbits(32 * k) holds the next k words least significant first.
    Valid for lists shorter than 2**32, far above MAX_SAMPLER_COSETS.
    """
    i = len(x) - 1
    while i > 0:
        k = min(i, _SHUFFLE_CHUNK)
        words = array(_WORD, rng.getrandbits(32 * k).to_bytes(4 * k, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        shift = 32 - (i + 1).bit_length()
        low = (1 << (31 - shift)) - 2  # the first i whose i + 1 has one bit fewer
        for w in words:
            j = w >> shift
            if j <= i:
                x[i], x[j] = x[j], x[i]
                i -= 1
                if i == low:
                    shift += 1
                    low = (low >> 1) - 1


def _cycles(pts: list[int], order: int) -> list[int]:
    """The permutation whose cycles are pts cut into consecutive order-point blocks.

    Order 0 reads pts itself as the permutation.  Cut from a uniform
    sequence of i points, the result is uniform over the permutations with
    every cycle of length order: each one arises from exactly
    (i/order)! * order^(i/order) sequences.  Each point's successor is the
    next point of the sequence, except that a block's last point returns to
    the block's first.
    """
    if order == 0:
        return pts
    nxt = pts[1:] + pts[:1]
    nxt[order - 1::order] = pts[::order]
    perm = [0] * len(pts)
    for x, y in zip(pts, nxt):
        perm[x] = y
    return perm


def _sample_factor_perm(order: int, index: int, rng: random.Random) -> list[int]:
    """_cycles of a uniform shuffle of the cosets: uniform, with full-length cycles at torsion."""
    pts = list(range(index))
    _shuffle(rng, pts)
    return _cycles(pts, order)


def _cycle_involutions(pts: list[int]) -> list[list[int]]:
    """[a, b] with a = (p0 p1)(p2 p3)... and b = (p1 p2)...(p_{i-1} p0) for an even-length pts.

    Two fixed-point-free involutions act transitively exactly when their
    matchings together form one cycle, and each such pair arises from exactly
    i sequences (pick p0; the cycle then fixes the rest), so a uniform
    sequence gives a uniform transitive pair.
    """
    return [_cycles(pts, 2), _cycles(pts[1:] + pts[:1], 2)]


def _require_action(spec: GroupSpec, index: int) -> None:
    """Refuse (spec, index) unless a transitive action, free at torsion, exists.

    Joined where they share a coset, the cycles of two torsion factors form
    a bipartite multigraph with i edges on at most i vertices, which can be
    connected; an infinite factor can be one i-cycle, and a lone order-m
    factor is transitive only at index m.
    """
    if index < 1:
        raise ModelError(f"index must be positive, got {index}")
    orders = spec.factor_orders
    for order in orders:
        if order and index % order:
            raise ModelError(f"factor order {order} does not divide the index {index}")
    if len(orders) == 1 and orders[0] and index != orders[0]:
        raise ModelError(
            f"no transitive action exists for orders {list(orders)} at index {index}: "
            f"a lone order-{orders[0]} factor acts transitively only at index {orders[0]}")


def _rank(spec: GroupSpec, index: int) -> int:
    """Schreier's index formula 1 - i*chi for the free subgroup behind an index-i action.

    i*chi = i - k*i + (i/m summed over the torsion factors), with chi the
    Euler characteristic of the free product of k cyclic groups.
    """
    orders = spec.factor_orders
    return 1 - (index - len(orders) * index + sum(index // m for m in orders if m))


def sample_free_action(spec: GroupSpec, index: int, seed: int) -> PermAction:
    """A uniform transitive action, free at torsion, as a pure function of (spec, index, seed).

    Two kinds of spec are drawn without rejection, as one shuffle of the
    cosets from the stream of (factor 0, attempt 0), returned unwalked.  A
    lone factor is transitive only as one index-cycle, so it reads the
    shuffle as one.  The infinite dihedral spec (2, 2) reads it as a cycle
    whose alternate edges are the two involutions.  Every other spec draws
    per-factor permutations until the action is transitive, each (factor,
    attempt) pair from its own stream derived from the master seed.  It
    gives up after MAX_ATTEMPTS rejections, or sooner when the attempts
    would draw more than MAX_SAMPLER_DRAWS cosets in all.  At most
    MAX_SAMPLER_COSETS cosets (index times factors) are drawn per attempt,
    and _require_action is met before any draw.  An action returned is
    built valid and not re-checked.
    """
    orders = spec.factor_orders
    if index * len(orders) > MAX_SAMPLER_COSETS:  # never true when index < 1
        raise ModelError(
            f"the sampler draws at most {MAX_SAMPLER_COSETS} cosets (index times factors), "
            f"got {index} x {len(orders)}")
    _require_action(spec, index)
    if len(orders) == 1 or orders == (2, 2):
        pts = _sample_factor_perm(0, index, random.Random(derive_seed(seed, 0, 0)))
        perms = [_cycles(pts, index)] if len(orders) == 1 else _cycle_involutions(pts)
        return relcore._built(PermAction, spec, index, perms)
    attempts = min(MAX_ATTEMPTS, MAX_SAMPLER_DRAWS // (index * len(orders)))
    for attempt in range(attempts):
        perms = [_sample_factor_perm(order, index, random.Random(derive_seed(seed, j, attempt)))
                 for j, order in enumerate(orders)]
        if _transitive(perms, index):
            return relcore._built(PermAction, spec, index, perms)
    raise ModelError(
        f"no transitive action found in {attempts} attempts for orders "
        f"{list(spec.factor_orders)} at index {index}")


def subgroup_rank(act: PermAction) -> int:
    """_rank of the action's subgroup: transitive and free at torsion, every PermAction has one."""
    return _rank(act.spec, act.index)


class GradientRow(_Frozen):
    __slots__ = _fields = ("index", "rank", "gradient", "matches_beta1")


def rank_gradient(spec: GroupSpec, indices) -> list[GradientRow]:
    """(rank - 1)/index by _rank at each index _require_action admits, one row each.

    Nothing is drawn, and each row matches the first Betti value.  An empty
    index list is an error, not an empty table.  At most MAX_GRADIENT_ROWS + 1
    indices are read from any iterable.
    """
    indices = list(itertools.islice(indices, MAX_GRADIENT_ROWS + 1))
    if len(indices) > MAX_GRADIENT_ROWS:
        raise ModelError(f"rank gradient takes at most {MAX_GRADIENT_ROWS} indices")
    beta1 = group_invariants(spec).beta1
    rows = []
    for index in indices:
        _require_action(spec, index)
        p = _rank(spec, index)
        grad = Fraction(p - 1, index)
        rows.append(GradientRow(index, p, grad, grad == beta1))
    if not rows:
        raise ModelError("rank gradient needs at least one index")
    return rows


def compression_check(spec: GroupSpec, index: int, seed: int = 0) -> tuple[Fraction, Fraction]:
    """(rank - 1, index * beta1) by _rank, where _require_action admits index; seed is unread."""
    _require_action(spec, index)
    return Fraction(_rank(spec, index) - 1), index * group_invariants(spec).beta1


class CoincidenceRow(_Frozen):
    __slots__ = _fields = ("factor_orders", "rank", "predicted_cost", "beta1", "index",
                           "measured_cost", "factor_costs", "modeled_factor_costs", "match")


def coincidence_report(specs, max_index: int = 120, seed: int = 0) -> list[CoincidenceRow]:
    """Predicted cost, rank gradient and factor prices, side by side; seed is not read.

    The gradient is 1 + (rank - 1)/index by _rank, at the largest index <=
    max_index that every torsion order divides (a lone torsion factor's own
    order).  A factor is priced at factor_cost, the minimal cost of one class
    of m atoms.  The match flag compares gradient and prediction.
    """
    rows = []
    for raw in specs:
        spec = raw if isinstance(raw, GroupSpec) else GroupSpec(tuple(raw))
        inv = group_invariants(spec)
        base = math.lcm(*(m for m in spec.factor_orders if m))
        if base > max_index:
            raise ModelError(
                f"max_index {max_index} cannot host the torsion orders {list(spec.factor_orders)}")
        if len(spec.factor_orders) == 1 and spec.factor_orders[0]:
            index = base
        else:
            index = max_index // base * base
        measured = 1 + Fraction(_rank(spec, index) - 1, index)
        rows.append(CoincidenceRow(spec.factor_orders, inv.rank, inv.predicted_cost,
                                   inv.beta1, index, measured, inv.factor_costs,
                                   inv.factor_costs, measured == inv.predicted_cost))
    return rows
