"""Command line front end.

Each command returns its fields as exact values; main adds the command name
and render writes the report in text or JSON.  For a fixed seed every
invocation is byte-identical.  Exit codes: 0 on success, 1 when the inputs break a domain
rule, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import files, relcore, rotation, schreier
from .files import fmt_rational


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    try:
        return files._as_seed(value)
    except relcore.ModelError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _factors(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"factors are a comma-separated order list, got {text!r}")


def _indices(text: str) -> range | list[int]:
    """Either 1,2,3 or start:stop:step with an inclusive stop, the latter kept as a range."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            if len(parts) != 3 or parts[2] < 1:
                raise ValueError
            return range(parts[0], parts[1] + 1, parts[2])
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"indices are a comma list or start:stop:step, got {text!r}") from None


def _specs(text: str) -> list[tuple[int, ...]]:
    try:
        return [tuple(int(p) for p in chunk.split(",")) for chunk in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"specs are semicolon-separated factor lists, got {text!r}") from None


def _reported(parse):
    """argparse type that shows parse's FormatError text, not argparse's generic line."""
    def convert(text: str):
        try:
            return parse(text)
        except files.FormatError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


_members = _reported(files.parse_members)
_arc = _reported(files.parse_arc)


def _seed(ns) -> int:
    return 0 if ns.seed is None else ns.seed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    common.add_argument("--seed", type=_u64, default=None, metavar="N",
                        help="64-bit master seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="orbitcost",
        description="exact cost calculus for finite orbit equivalence relations")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("cost", cmd_cost, "total weight of a graphing's map domains")
    p.add_argument("graphing", help="graphing JSON file")

    p = add("nu", cmd_nu, "weight of the distinct ordered pairs of a graphing")
    p.add_argument("graphing")

    p = add("gen-check", cmd_gen_check, "does the graphing generate the relation?")
    p.add_argument("graphing")
    p.add_argument("relation", help="relation JSON file")

    p = add("treeing", cmd_treeing, "is the graphing's entry multigraph a forest?")
    p.add_argument("graphing")

    p = add("min-cost", cmd_min_cost, "minimal generating cost of a relation")
    p.add_argument("relation")

    p = add("reduce", cmd_reduce, "delete entries down to a spanning treeing")
    p.add_argument("graphing")

    p = add("single-gen", cmd_single_gen, "one full permutation generating the relation")
    p.add_argument("relation")

    p = add("first-return", cmd_first_return, "induced first-return map on a subset")
    p.add_argument("graphing")
    p.add_argument("--map", dest="map_name", help="which map to iterate (default: the only one)")
    p.add_argument("--members", type=_members, help="comma-separated atoms")
    p.add_argument("--arc", type=_arc, help="start:length arc")

    p = add("compress", cmd_compress, "both sides of the compression identity")
    p.add_argument("relation")
    p.add_argument("--members", type=_members)
    p.add_argument("--arc", type=_arc)

    p = add("brute-min", cmd_brute_min, "exhaustive minimum over regenerating edge sets")
    p.add_argument("relation")
    p.add_argument("--edge-budget", type=_positive, default=20, metavar="N",
                   help="largest pair universe the search will scan (default 20)")

    p = add("rotation-demo", cmd_rotation_demo, "rebuild a restricted jump through the arc")
    p.add_argument("rotation", help="rotation JSON file")
    p.add_argument("--x", type=int, required=True, help="starting atom")
    p.add_argument("--restricted", help="restricted step (default: first non-full step)")
    p.add_argument("--arc", type=_arc, help="override the file's arc")

    p = add("eps-curve", cmd_eps_curve, "cost of the restricted family per eps")
    p.add_argument("rotation")

    p = add("invariants", cmd_invariants, "cost chain and treeing checks for a graphing")
    p.add_argument("graphing")
    p.add_argument("--edge-budget", type=_positive, default=20, metavar="N")

    p = add("schreier-rank", cmd_schreier_rank, "rank of the subgroup behind a sampled action")
    p.add_argument("--factors", type=_factors, required=True, metavar="LIST")
    p.add_argument("--index", type=_positive, required=True)

    p = add("rank-gradient", cmd_rank_gradient, "(rank-1)/index table over sampled actions")
    p.add_argument("schreier", nargs="?", help="optional JSON file with factors/indices/seed")
    p.add_argument("--factors", type=_factors, metavar="LIST")
    p.add_argument("--indices", type=_indices, metavar="SPEC")
    p.add_argument("--samples", type=_positive, default=1)

    p = add("compress-check", cmd_compress_check, "rank-1 against index*beta1")
    p.add_argument("--factors", type=_factors, required=True, metavar="LIST")
    p.add_argument("--index", type=_positive, required=True)

    p = add("coincidence", cmd_coincidence, "predicted cost against measurement and re-pricing")
    p.add_argument("--specs", type=_specs, required=True, metavar="LISTS",
                   help="semicolon-separated factor lists, e.g. 2,3;0,0")
    p.add_argument("--max-index", type=_positive, default=120)

    return parser


def cmd_cost(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    return {"cost": relcore.cost(g)}


def cmd_nu(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    return {"nu": relcore.nu(g)}


def cmd_gen_check(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    r = files.load_relation(ns.relation)
    return {"generates": relcore.generates(g, r)}


def cmd_treeing(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    return {"is_treeing": relcore.is_treeing(g)}


def cmd_min_cost(ns) -> dict:
    r = files.load_relation(ns.relation)
    return {"min_cost": relcore.min_cost(r), "classes": r.class_count()}


def cmd_reduce(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    reduced = relcore.reduce_to_treeing(g)
    return {"cost": relcore.cost(reduced),
            "is_treeing": relcore.is_treeing(reduced),
            "graphing": files.dump_graphing(reduced)}


def cmd_single_gen(ns) -> dict:
    r = files.load_relation(ns.relation)
    psi = relcore.single_full_generator(r)
    return {"cost": relcore.cost(relcore.Graphing(r.space, [psi])),
            "map": files.dump_map(psi)}


def cmd_first_return(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    if ns.map_name is None:
        if len(g.maps) != 1:
            raise relcore.ModelError("several maps in the file; pick one with --map")
        psi = g.maps[0]
    else:
        psi = g.map_named(ns.map_name)
    a = files.make_subset(g.space, ns.members, ns.arc)
    induced = relcore.first_return_map(psi, a)
    return {"map": files.dump_map(induced)}


def cmd_compress(ns) -> dict:
    r = files.load_relation(ns.relation)
    a = files.make_subset(r.space, ns.members, ns.arc)
    lhs, rhs = relcore.compression_sides(r, a)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def cmd_brute_min(ns) -> dict:
    r = files.load_relation(ns.relation)
    value = relcore.brute_force_min_cost(r, ns.edge_budget)
    return {"min_cost": value, "edge_budget": ns.edge_budget}


def cmd_rotation_demo(ns) -> dict:
    doc = files.load_rotation(ns.rotation)
    if doc.full is None:
        raise relcore.ModelError("the rotation file must name a full step")
    arc = ns.arc if ns.arc is not None else doc.arc
    if arc is None:
        raise relcore.ModelError("give an arc, in the file or with --arc")
    restricted = ns.restricted
    if restricted is None:
        others = [name for name in doc.system.steps if name != doc.full]
        if not others:
            raise relcore.ModelError("no restricted step to demonstrate")
        restricted = others[0]
    path = rotation.connection_path(doc.system, doc.full, restricted, arc, ns.x)
    return {"start": path.start,
            "end": path.end,
            "length": path.length,
            "hit": path.hit,
            "segments": [{"step": s.step, "power": s.power, "count": s.count}
                         for s in path.segments]}


def cmd_eps_curve(ns) -> dict:
    doc = files.load_rotation(ns.rotation)
    if doc.full is None:
        raise relcore.ModelError("the rotation file must name a full step")
    if not doc.eps:
        raise relcore.ModelError("the rotation file must list eps values")
    curve = rotation.cost_epsilon_curve(doc.system, doc.full, doc.eps)
    return {"rows": [{"eps": row.eps, "arc_len": row.arc_len, "cost": row.cost,
                      "generates": row.generates} for row in curve.rows],
            "infimum": curve.infimum}


def cmd_invariants(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    total = relcore.cost(g)
    nu = relcore.nu(g)
    r = relcore.generated_relation(g)
    floor = relcore.min_cost(r)
    reduced = relcore.reduce_to_treeing(g)
    reduced_cost = relcore.cost(reduced)
    spanning = relcore.spanning_treeing(r)
    checks = {
        "cost_ge_nu": total >= nu,
        "nu_ge_min_cost": nu >= floor,
        "reduced_is_treeing": relcore.is_treeing(reduced),
        "reduced_generates": relcore.generates(reduced, r),
        "reduced_cost_is_min": reduced_cost == floor,
        "spanning_cost_is_min": relcore.cost(spanning) == floor,
        "transversal_identity": floor == 1 - relcore.transversal(r).measure,
    }
    try:
        brute = relcore.brute_force_min_cost(r, ns.edge_budget)
        checks["brute_force_agrees"] = brute == floor
    except relcore.EdgeBudgetError:
        brute = None
    return {"cost": total, "nu": nu, "min_cost": floor, "reduced_cost": reduced_cost,
            "brute_min_cost": brute,
            "checks": checks,
            "ok": all(checks.values())}


def cmd_schreier_rank(ns) -> dict:
    spec = schreier.GroupSpec(ns.factors)
    act = schreier.sample_free_action(spec, ns.index, _seed(ns))
    return {"factors": ",".join(str(m) for m in spec.factor_orders),
            "index": ns.index,
            "rank": schreier.subgroup_rank(act)}


def cmd_rank_gradient(ns) -> dict:
    factors, indices, seed = ns.factors, ns.indices, ns.seed
    if ns.schreier is not None:
        doc = files.load_schreier(ns.schreier)
        factors = factors if factors is not None else doc.factors
        indices = indices if indices is not None else doc.indices
        if seed is None:
            seed = doc.seed
    if factors is None or indices is None:
        raise relcore.ModelError("give factors and indices, by file or by flag")
    seed = 0 if seed is None else seed
    spec = schreier.GroupSpec(factors)
    beta1 = schreier.group_invariants(spec).beta1
    rows = schreier.rank_gradient(spec, indices, seed, ns.samples)
    return {"factors": ",".join(str(m) for m in spec.factor_orders),
            "beta1": beta1,
            "rows": [{"index": row.index, "rank": row.rank,
                      "gradient": row.gradient, "beta1": beta1,
                      "match": row.matches_beta1}
                     for row in rows],
            "all_match": all(row.matches_beta1 for row in rows)}


def cmd_compress_check(ns) -> dict:
    spec = schreier.GroupSpec(ns.factors)
    lhs, rhs = schreier.compression_check(spec, ns.index, _seed(ns))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def cmd_coincidence(ns) -> dict:
    rows = schreier.coincidence_report(ns.specs, ns.max_index, _seed(ns))
    return {"rows": [{"factors": ",".join(str(m) for m in row.factor_orders),
                      "rank": row.rank,
                      "predicted_cost": row.predicted_cost,
                      "beta1": row.beta1,
                      "index": row.index,
                      "measured_cost": row.measured_cost,
                      "factor_costs": ",".join(map(fmt_rational, row.factor_costs)),
                      "modeled_costs": ",".join(map(fmt_rational, row.modeled_factor_costs)),
                      "match": row.match}
                     for row in rows],
            "all_match": all(row.match for row in rows)}


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, Fraction):
        return fmt_rational(value)
    return json.dumps(value, sort_keys=True, default=fmt_rational)


def _table(rows: list[dict]) -> list[str]:
    cols = list(rows[0].keys())
    cells = [[_scalar(row[c]) for c in cols] for row in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = ["  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in cells:
        lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return lines


def render(report: dict, fmt: str) -> str:
    """The one place a ratio becomes text: every Fraction prints as fmt_rational's p/q."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=fmt_rational) + "\n"
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            lines.extend(_table(value))
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for k2, v2 in value.items():
                lines.append(f"  {k2}: {_scalar(v2)}")
        else:
            lines.append(f"{key}: {_scalar(value)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        text = render({"command": ns.command, **ns.func(ns)}, ns.format)
    except relcore.ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
