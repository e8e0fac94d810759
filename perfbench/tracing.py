"""Span recorders wrapped around orbitcost's public functions from outside.

Nothing under src/ changes.  `Tracer.install()` replaces each listed
function wherever an orbitcost module holds it, so a call made through a
name another module imported (`rotation.cost`, `rotation.generates`) is
recorded as well.  Spans stay in memory as (name, start, end, parent span,
query id) and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import os
import time

MODULES = ["orbitcost", "orbitcost.relcore", "orbitcost.rotation", "orbitcost.schreier",
           "orbitcost.files", "orbitcost.cli", "orbitcost.unionfind"]

# public function -> the per-layer time metric its spans add to
TIMED = {
    "rotation.epsilon_graphing": "rotation.graphing_build_ms",
    "rotation.expected_relation": "rotation.expected_relation_ms",
    "rotation.connection_path": "rotation.path_ms",
    "relcore.generates": "relcore.generates_ms",
    "relcore.generated_relation": "relcore.generated_relation_ms",
    "relcore.cost": "relcore.cost_ms",
    "relcore.to_edge_set": "relcore.nu_ms",
    "relcore.nu_measure": "relcore.nu_ms",
    "relcore.reduce_to_treeing": "relcore.reduce_ms",
    "relcore.is_treeing": "relcore.is_treeing_ms",
    "relcore.spanning_treeing": "relcore.spanning_treeing_ms",
    "relcore.single_full_generator": "relcore.single_gen_ms",
    "relcore.first_return_map": "relcore.first_return_ms",
    "relcore.compression_sides": "relcore.compression_ms",
    "relcore.brute_force_min_cost": "relcore.brute_min_ms",
    "schreier.sample_free_action": "schreier.sample_ms",
    "schreier.subgroup_rank": "schreier.rank_ms",
    "schreier.compression_check": "schreier.compression_check_ms",
    "schreier.coincidence_report": "schreier.coincidence_ms",
    "files.load_graphing": "files.load_ms",
    "files.load_relation": "files.load_ms",
    "files.load_rotation": "files.load_ms",
    "files.load_schreier": "files.load_ms",
    "files.dump_graphing": "files.dump_ms",
    "files.dump_map": "files.dump_ms",
    "files.dump_relation": "files.dump_ms",
    "cli.build_parser": "cli.parse_ms",
    "cli.parse_args": "cli.parse_ms",  # the parser's method, wrapped on each built parser
    "cli.render": "cli.render_ms",
}

# call counts: span name -> metric
CALLS = {"rotation.connection_path": "rotation.path_calls",
         "schreier.sample_free_action": "schreier.samples"}

# Counts derived from the arguments at the span boundary, not counted inside
# the program; the output labels each of them as computed.
COMPUTED = ["rotation.map_entries", "rotation.arc_atoms_scanned", "unionfind.unions",
            "unionfind.merge_ratio", "schreier.cosets_sampled", "files.bytes_in",
            "cli.bytes_out"]


def _entries(g) -> int:
    return sum(len(m.mapping) for m in g.maps)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.stack: list[int] = []
        self.query = -1
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def _on_call(self, name: str, args):
        """Computed counts for one call, taken from its arguments."""
        if name == "rotation.epsilon_graphing":
            sys_, _, arc = args[:3]
            self._count("rotation.map_entries", sys_.n + (len(sys_.steps) - 1) * arc.length)
        elif name == "rotation.connection_path":
            self._count("rotation.arc_atoms_scanned", args[3].length)
        elif name in ("relcore.generated_relation", "relcore.reduce_to_treeing"):
            self._count("unionfind.unions", _entries(args[0]))
        elif name == "schreier.sample_free_action":
            spec, index = args[:2]
            self._count("schreier.cosets_sampled", index * len(spec.factor_orders))
        elif name.startswith("files.load_") and os.path.exists(args[0]):
            self._count("files.bytes_in", os.path.getsize(args[0]))

    def _on_return(self, name: str, result):
        """Computed counts for one call, taken from its result: the unions that merged."""
        if name == "relcore.generated_relation":
            self._count("unionfind.merges", result.space.n - len(set(result.parent)))
        elif name == "relcore.reduce_to_treeing":  # it keeps exactly the merging entries
            self._count("unionfind.merges", _entries(result))

    def wrap(self, name: str, fn):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            self._on_call(name, args)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.query])
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index][1:3] = start, end
            self._on_return(name, result)
            if name == "cli.build_parser":
                result.parse_args = self.wrap("cli.parse_args", result.parse_args)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name in TIMED:
            if name == "cli.parse_args":
                continue
            owner, attr = name.split(".")
            original = getattr(importlib.import_module(f"orbitcost.{owner}"), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Busy and self milliseconds per metric, call counts and computed counts, per pass."""
        out = {metric: 0.0 for metric in TIMED.values()}
        out.update({f"{metric[:-3]}_self_ms": 0.0 for metric in TIMED.values()})
        out.update({metric: 0 for metric in CALLS.values()})
        selfs = self.self_times()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            metric = TIMED[name]
            out[f"{metric[:-3]}_self_ms"] += selfs[i] * 1e3 / passes
            while parent >= 0 and TIMED[self.spans[parent][0]] != metric:
                parent = self.spans[parent][3]
            if parent < 0:  # outermost span of its metric: its whole duration is busy time
                out[metric] += (end - start) * 1e3 / passes
            if name in CALLS:
                out[CALLS[name]] += 1 / passes
        for name in COMPUTED:
            out[name] = self.counts.get(name, 0) / passes
        unions = self.counts.get("unionfind.unions", 0)
        merges = self.counts.get("unionfind.merges", 0)
        out["unionfind.merge_ratio"] = merges / unions if unions else 0.0
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for (name, start, end, parent, query), own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "query": query, "self": own}) + "\n")
