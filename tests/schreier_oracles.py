"""Drawing oracles for the Schreier verbs: each samples an action and reads its rank.

The library answers these questions by Schreier's index formula and an
existence rule; the versions here draw a witness first, as the library once
did, so tests can compare the two wherever the draw succeeds.
"""
import math
from fractions import Fraction

from orbitcost import relcore
from orbitcost.schreier import (
    CoincidenceRow,
    GradientRow,
    GroupSpec,
    derive_seed,
    group_invariants,
    sample_free_action,
    subgroup_rank,
)


def pairing(pts):
    """The involution that swaps pts[0] with pts[1], pts[2] with pts[3], and so on."""
    perm = [0] * len(pts)
    for x, y in zip(pts[::2], pts[1::2]):
        perm[x] = y
        perm[y] = x
    return perm


def cycle_involutions_by_pairing(pts):
    """The sampler's former (2, 2) pair: pts paired, then pts rotated by one paired."""
    return [pairing(pts), pairing(pts[1:] + pts[:1])]


def modeled_factor_cost(order: int) -> Fraction:
    """Re-price one factor through the finite relation calculus.

    A finite order m is the minimal cost of the one-class relation on m
    atoms, kept as its period-1 base; the infinite factor is the cost of the
    single full map cycling one atom.  Costs are normalised by n, so more
    atoms or more classes of the same size give the same value.
    """
    space = relcore.FiniteSpace(order or 1)
    rel = relcore.Relation(space, [0])
    if order == 0:
        return relcore.cost(relcore.Graphing(space, [relcore.single_full_generator(rel)]))
    return relcore.min_cost(rel)


def rank_gradient_by_draw(spec, indices, seed, samples=1):
    """(rank - 1)/index over freshly sampled actions, one row per sample."""
    beta1 = group_invariants(spec).beta1
    rows = []
    for index in indices:
        for s in range(samples):
            p = subgroup_rank(sample_free_action(spec, index, derive_seed(seed, index, s)))
            grad = Fraction(p - 1, index)
            rows.append(GradientRow(index, p, grad, grad == beta1))
    return rows


def compression_check_by_draw(spec, index, seed):
    """(rank - 1, index * beta1) for one sampled action."""
    p = subgroup_rank(sample_free_action(spec, index, seed))
    return Fraction(p - 1), index * group_invariants(spec).beta1


def coincidence_report_by_draw(specs, max_index=120, seed=0):
    """Predicted cost against a sampled rank gradient and factors re-priced by relcore."""
    rows = []
    for pos, raw in enumerate(specs):
        spec = raw if isinstance(raw, GroupSpec) else GroupSpec(tuple(raw))
        inv = group_invariants(spec)
        base = math.lcm(*(m for m in spec.factor_orders if m))
        if len(spec.factor_orders) == 1 and spec.factor_orders[0]:
            index = base
        else:
            index = max_index // base * base
        p = subgroup_rank(sample_free_action(spec, index, derive_seed(seed, pos)))
        measured = 1 + Fraction(p - 1, index)
        modeled = tuple(modeled_factor_cost(m) for m in spec.factor_orders)
        match = measured == inv.predicted_cost and modeled == inv.factor_costs
        rows.append(CoincidenceRow(spec.factor_orders, inv.rank, inv.predicted_cost,
                                   inv.beta1, index, measured, inv.factor_costs,
                                   modeled, match))
    return rows
