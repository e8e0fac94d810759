"""Exact cost calculus for finite orbit equivalence relations."""

__version__ = "0.1.0"

# PEP 562: a verb of the command line imports only the modules it uses.  A submodule
# name imports that submodule alone.  The first lookup of any other public name (or a
# star import, which asks for __all__) binds the whole namespace below, so later lookups
# are plain dict reads; dir() leaves out these hooks and lists what it always did.


def _bind():
    from .relcore import (
        Arc,
        EdgeBudgetError,
        EdgeSet,
        FiniteSpace,
        Graphing,
        ModelError,
        NotInSameCycleError,
        PartialMap,
        Relation,
        ShiftMapping,
        Subset,
        brute_force_min_cost,
        compression_sides,
        cost,
        first_return_map,
        generated_relation,
        generates,
        is_treeing,
        min_cost,
        nu,
        nu_measure,
        orbit_exponent,
        reduce_to_treeing,
        restrict_map,
        restrict_relation,
        single_full_generator,
        spanning_treeing,
        to_edge_set,
        transversal,
    )
    from .rotation import (
        CostCurve,
        CurveRow,
        Path,
        RotationSystem,
        Segment,
        UnreachableArcError,
        connection_path,
        cost_epsilon_curve,
        epsilon_graphing,
        expected_relation,
        first_hitting_time,
        full_graphing,
    )
    from .schreier import (
        GroupSpec,
        GroupInvariants,
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
    globals().update(locals())


def __getattr__(name):
    if name in ("cli", "files", "relcore", "rotation", "schreier", "unionfind"):
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("__"):
        _bind()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _bind()
    return [name for name in globals() if name not in ("_bind", "__getattr__", "__dir__")]
