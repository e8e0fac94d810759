"""Command line front end.

Each command returns its fields as exact values; main adds the command name
and render writes the report in text or JSON, the same bytes on every run.
Exit codes: 0 on success, 1 when the inputs break a domain rule, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from fractions import Fraction
from itertools import chain

from . import files, relcore
from .files import fmt_rational

_PAIRS_PER_PIECE = 1024  # int pairs per piece of JSON text; small pieces keep the peak memory low


def _flag(parse, message: str):
    """argparse type running parse on a flag's text; any fault is one usage-error line.

    A ModelError keeps its own text; any other ValueError shows as message % text.
    """
    def convert(text: str):
        try:
            return parse(text)
        except relcore.ModelError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(message % (text,)) from None
    return convert


def _ints(text: str, sep: str = ",") -> list[int]:
    return [int(part) for part in text.split(sep)]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise relcore.ModelError("value must be positive")
    return value


def _index_list(text: str) -> range | list[int]:
    """Either 1,2,3 or start:stop:step with an inclusive stop, the latter kept as a range."""
    if ":" not in text:
        return _ints(text)
    parts = _ints(text, ":")
    if len(parts) == 2:
        parts.append(1)
    start, stop, step = parts
    if step < 1:
        raise ValueError(step)
    return range(start, stop + 1, step)


def _arc_text(text: str) -> relcore.Arc:
    start, length = _ints(text, ":")
    return relcore.Arc(start, length)


_positive = _flag(_positive_int, "expected an integer, got %r")
_factors = _flag(lambda text: tuple(_ints(text)),
                 "factors are a comma-separated order list, got %r")
_indices = _flag(_index_list, "indices are a comma list or start:stop:step, got %r")
_specs = _flag(lambda text: [tuple(_ints(chunk)) for chunk in text.split(";")],
               "specs are semicolon-separated factor lists, got %r")
_members = _flag(_ints, "cannot read %r as a comma-separated atom list")
_arc = _flag(_arc_text, "an arc is written start:length, got %r")


def _subset(space: relcore.FiniteSpace, ns) -> relcore.Subset:
    """The subset named by --members or --arc; an arc stays an arc, with no atom listed."""
    if (ns.members is None) == (ns.arc is None):
        raise relcore.ModelError("give exactly one of --members or --arc")
    return relcore.Subset(space, ns.members if ns.members is not None else ns.arc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcost",
        description="exact cost calculus for finite orbit equivalence relations")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default text)")
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

    p = add("schreier-rank", cmd_schreier_rank, "subgroup rank at an index, by Schreier's formula")
    p.add_argument("--factors", type=_factors, required=True, metavar="LIST")
    p.add_argument("--index", type=_positive, required=True)

    p = add("rank-gradient", cmd_rank_gradient, "(rank-1)/index table, by Schreier's formula")
    p.add_argument("schreier", nargs="?", help="optional JSON file with factors/indices")
    p.add_argument("--factors", type=_factors, metavar="LIST")
    p.add_argument("--indices", type=_indices, metavar="SPEC")

    p = add("compress-check", cmd_compress_check, "rank-1 against index*beta1")
    p.add_argument("--factors", type=_factors, required=True, metavar="LIST")
    p.add_argument("--index", type=_positive, required=True)

    p = add("coincidence", cmd_coincidence, "predicted cost vs rank gradient and factor prices")
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
    classes = r.class_count()
    return {"min_cost": r.space.measure(r.space.n - classes), "classes": classes}


def cmd_reduce(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    reduced = relcore.reduce_to_treeing(g)
    return {"cost": relcore.cost(reduced),
            "is_treeing": True,  # each kept entry joined two components: a forest
            "graphing": files.dump_graphing(reduced)}


def cmd_single_gen(ns) -> dict:
    r = files.load_relation(ns.relation)
    psi = relcore.single_full_generator(r)
    return {"cost": r.space.measure(len(psi.mapping)),
            "map": files.dump_map(psi)}


def cmd_first_return(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    if ns.map_name is None:
        if len(g.maps) != 1:
            raise relcore.ModelError("several maps in the file; pick one with --map")
        psi = g.maps[0]
    else:
        psi = g.map_named(ns.map_name)
    a = _subset(g.space, ns)
    induced = relcore.first_return_map(psi, a)
    return {"map": files.dump_map(induced)}


def cmd_compress(ns) -> dict:
    r = files.load_relation(ns.relation)
    a = _subset(r.space, ns)
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
    from .rotation import connection_path
    path = connection_path(doc.system, doc.full, restricted, arc, ns.x)
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
    from .rotation import cost_epsilon_curve
    curve = cost_epsilon_curve(doc.system, doc.full, doc.eps)
    return {"rows": [{"eps": row.eps, "arc_len": row.arc_len, "cost": row.cost,
                      "generates": row.generates} for row in curve.rows],
            "infimum": curve.infimum}


def cmd_invariants(ns) -> dict:
    g = files.load_graphing(ns.graphing)
    total = relcore.cost(g)
    nu = relcore.nu(g)
    r = relcore.generated_relation(g)
    floor = relcore.min_cost(r)
    checks = {
        "cost_ge_nu": total >= nu,
        "nu_ge_min_cost": nu >= floor,
        "reduced_is_treeing": True,  # reduce_to_treeing keeps the n - c entries joining classes
        "reduced_generates": True,  # it drops only entries whose ends are already joined
        "reduced_cost_is_min": True,  # n - c entries cost (n - c)/n, the floor
        "spanning_cost_is_min": True,  # a spanning treeing chains each class: n - c entries
        "transversal_identity": True,  # one atom per class, so floor == 1 - c/n
    }
    try:
        brute = relcore.brute_force_min_cost(r, ns.edge_budget)
        checks["brute_force_agrees"] = brute == floor
    except relcore.EdgeBudgetError:
        brute = None
    return {"cost": total, "nu": nu, "min_cost": floor, "reduced_cost": floor,
            "brute_min_cost": brute,
            "checks": checks,
            "ok": all(checks.values())}


def cmd_schreier_rank(ns) -> dict:
    from .schreier import GroupSpec, _rank, _require_action
    spec = GroupSpec(ns.factors)
    _require_action(spec, ns.index)
    return {"factors": ",".join(str(m) for m in spec.factor_orders),
            "index": ns.index,
            "rank": _rank(spec, ns.index)}


def cmd_rank_gradient(ns) -> dict:
    from .schreier import GroupSpec, group_invariants, rank_gradient
    factors, indices = ns.factors, ns.indices
    if ns.schreier is not None:
        doc = files.load_schreier(ns.schreier)
        factors = factors if factors is not None else doc.factors
        indices = indices if indices is not None else doc.indices
    if factors is None or indices is None:
        raise relcore.ModelError("give factors and indices, by file or by flag")
    spec = GroupSpec(factors)
    beta1 = group_invariants(spec).beta1
    rows = rank_gradient(spec, indices)
    return {"factors": ",".join(str(m) for m in spec.factor_orders),
            "beta1": beta1,
            "rows": [{"index": row.index, "rank": row.rank,
                      "gradient": row.gradient, "beta1": beta1,
                      "match": row.matches_beta1}
                     for row in rows],
            "all_match": all(row.matches_beta1 for row in rows)}


def cmd_compress_check(ns) -> dict:
    from .schreier import GroupSpec, compression_check
    spec = GroupSpec(ns.factors)
    lhs, rhs = compression_check(spec, ns.index)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def cmd_coincidence(ns) -> dict:
    from .schreier import coincidence_report
    rows = coincidence_report(ns.specs, ns.max_index)
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
    if isinstance(value, str):
        return value
    if type(value) is int or isinstance(value, Fraction):
        return fmt_rational(value)
    return json.dumps(value, sort_keys=True, default=fmt_rational)


def _table(rows: list[dict], encoding: str) -> list[str]:
    """Aligned rows; each cell pads by its text as written, escaped where encoding lacks."""
    cols = list(rows[0].keys())
    cells = [[_scalar(row[c]).encode(encoding, "backslashreplace").decode(encoding) for c in cols]
             for row in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = ["  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in cells:
        lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return lines


def _json(value, indent: str, out: list) -> None:
    """Append json.dumps(value, indent=2, sort_keys=True, default=fmt_rational) to out.

    json.dumps uses its C encoder only when there is no indent, so the indented text
    is put together here from compact pieces: each block of a list of int pairs fills
    one %d template, and every leaf or empty container is json.dumps's own compact
    text.  The caller joins out once, so no long text is copied per nesting level and
    every piece stays small.  Dict keys are strings; value sits at indent.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:  # an int takes the digit guard
        out.append(fmt_rational(value) if type(value) is int
                   else json.dumps(value, default=fmt_rational))
        return
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [(f"{json.dumps(key)}: ", value[key]) for key in sorted(value)]
    elif files.int_pairs(value):
        pair = f"\n{inner}[\n{inner}  %d,\n{inner}  %d\n{inner}],"
        out.append("[")
        for i in range(0, len(value), _PAIRS_PER_PIECE):
            block = value[i:i + _PAIRS_PER_PIECE]
            out.append(pair * len(block) % tuple(chain.from_iterable(block)))
        out[-1] = out[-1][:-1]  # no comma after the last pair
        out.append(f"\n{indent}]")
        return
    else:
        brackets = "[]"
        items = [("", item) for item in value]
    out.append(brackets[0])
    for i, (prefix, item) in enumerate(items):
        out.append(f"{',' if i else ''}\n{inner}{prefix}")
        _json(item, inner, out)
    out.append(f"\n{indent}{brackets[1]}")


def render(report: dict, fmt: str, encoding: str = "utf-8") -> str:
    """The one place a ratio becomes text: every Fraction prints as fmt_rational's p/q.

    A text table is laid out for the encoding the text will be written in.
    """
    if fmt == "json":
        out = []
        _json(report, "", out)
        out.append("\n")
        return "".join(out)
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            lines.extend(_table(value, encoding))
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
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    try:
        text = render({"command": ns.command, **ns.func(ns)}, ns.format, encoding)
    except relcore.ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if sys.stdout is None:  # the process started with fd 1 closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream, such as an io.StringIO put in by redirect_stdout
        sys.stdout.write(text)
        return 0
    # the raw file in both buffering modes, whose write may take only part of the bytes
    sys.stdout.flush()
    out = getattr(out, "raw", out)
    # a name the encoding lacks prints as its escape, as --format json's ensure_ascii does
    data = memoryview(text.encode(encoding, "backslashreplace"))
    while data:
        taken = out.write(data)
        if not taken:  # None: a non-blocking stdout is full
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        data = data[taken:]
    return 0


def run():
    """The process entry point: main() with the cyclic collector off, then os._exit.

    A command makes no reference cycles (argparse's parser tree is the only
    garbage cycle a run leaves), so collector passes find nothing.  Nothing in
    the package opens a file for writing, registers atexit or defines __del__,
    so once stdout and stderr are flushed the process ends without tearing the
    interpreter down.  Usage errors, --help and uncaught exceptions leave
    main() by raising and exit the usual way.  A failed write to stdout is one error
    line and exit 1; os._exit then drops the unwritten report.
    """
    gc.disable()
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as e:  # only a write raises one: files makes the rest FormatErrors
        print(f"error: cannot write the report: {e.strerror}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
