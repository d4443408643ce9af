"""Spans and counters around the program's layers, from outside the program.

``Tracer.install`` replaces the public functions of each ``grc`` layer with
wrappers, at every module that imported them (a module calls the name bound
in its own namespace, so that is where the wrapper has to sit).  No file of
the program changes.  ``Tracer.restore`` puts every original back.

A span is (name, layer, start, end, parent, operation); spans stay in memory
until ``write`` puts them in a file at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module under grc, attribute, layer, span name).  The benchmark itself calls
# the entry points through the ``grc`` package, so those are wrapped there.
WRAPPED = [
    ("", "instance_from_json", "model", "from_json"),
    ("", "instance_to_json", "model", "to_json"),
    ("", "graph_to_json", "model", "to_json"),
    ("", "solve", "solver", "solve"),
    ("", "monotone_to_21", "hardness", "encode"),
    ("", "sat_to_grc", "hardness", "encode"),
    ("", "tdm_to_grc", "hardness", "encode"),
    ("", "decode_sat_witness", "hardness", "decode"),
    ("", "decode_tdm_witness", "hardness", "decode"),
    ("solver", "normalize", "model", "normalize"),
    ("solver", "screen_instance", "preprocess", "screen"),
    ("solver", "oracle_solve", "oracle", "search"),
    ("solver", "is_forest", "treesolve", "peel"),
    ("solver", "solve_tree", "treesolve", "peel"),
    ("solver", "solve_width2", "ffactor", "width2"),
    ("solver", "reduce_to_width2", "reduce3", "rewrite"),
    ("ffactor", "tutte_gadget", "ffactor", "gadget"),
    ("ffactor", "max_matching", "ffactor", "matching"),
]
for _module in ("solver", "ffactor", "treesolve", "reduce3"):
    WRAPPED.append((_module, "eliminate_fixed_edges", "preprocess", "eliminate"))
for _module in ("solver", "ffactor", "treesolve"):
    WRAPPED.append((_module, "possibility_graph", "preprocess", "possibility"))
    WRAPPED.append((_module, "lift_realization", "reduce3", "lift"))
for _module in ("solver", "ffactor", "treesolve", "oracle", "hardness"):
    WRAPPED.append((_module, "verify_realization", "model", "verify"))

ROUTES = ("screen", "preprocess", "tree", "ffactor", "reduce3", "oracle")

# Per-operation metrics: (metric, span name whose self time it sums) and
# (metric, counter).  Names are "<layer>.<metric>".
TIMES = [
    ("model.from_json_ms", "from_json"),
    ("model.normalize_ms", "normalize"),
    ("model.verify_ms", "verify"),
    ("model.to_json_ms", "to_json"),
    ("preprocess.screen_ms", "screen"),
    ("preprocess.eliminate_ms", "eliminate"),
    ("preprocess.possibility_ms", "possibility"),
    ("treesolve.peel_ms", "peel"),
    ("ffactor.gadget_ms", "gadget"),
    ("ffactor.matching_ms", "matching"),
    ("ffactor.width2_ms", "width2"),
    ("reduce3.rewrite_ms", "rewrite"),
    ("reduce3.lift_ms", "lift"),
    ("oracle.search_ms", "search"),
    ("hardness.encode_ms", "encode"),
    ("hardness.decode_ms", "decode"),
    ("solver.self_ms", "solve"),
]
COUNTS = [
    ("model.verify_calls", "verify.calls"),
    ("preprocess.eliminate_calls", "eliminate.calls"),
    ("preprocess.possibility_edges", "possibility.edges"),
    ("ffactor.gadget_vertices", "gadget.vertices"),
    ("ffactor.gadget_edges", "gadget.edges"),
    ("reduce3.helper_vertices", "rewrite.helpers"),
    ("reduce3.refused", "rewrite.refused"),
    ("hardness.encoded_cuts", "encode.cuts"),
] + [(f"solver.route_{r}", f"route.{r}") for r in ROUTES]


def _on_return(name, args, result, counts: Counter) -> None:
    """Counters read off a wrapped call's arguments and result."""
    if name == "possibility":
        counts["possibility.edges"] += len(result.edges)
    elif name == "gadget" and result is not None:
        counts["gadget.vertices"] += result.graph.vertex_count
        counts["gadget.edges"] += len(result.graph.edges)
    elif name == "rewrite":
        counts["rewrite.helpers"] += result[0].vertex_count - args[0].vertex_count
    elif name == "encode" and isinstance(result, tuple):
        counts["encode.cuts"] += len(result[0].cuts)
    elif name == "solve":
        counts[f"route.{result.method}"] += 1


class Tracer:
    def __init__(self, grc):
        self.grc = grc
        self.spans: list[list] = []   # [name, layer, start, end, parent, operation]
        self.counts: Counter = Counter()
        self.operation = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        refused = self.grc.UnsafeReduction

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.operation])
            stack.append(index)
            counts[f"{name}.calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except refused:
                counts[f"{name}.refused"] += 1
                raise
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            _on_return(name, args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, layer, name in WRAPPED:
            module = getattr(self.grc, module_name) if module_name else self.grc
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time = defaultdict(float)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
            out[name] += end - start - child_time[index]
        return out

    def metrics(self, operations: int) -> dict[str, dict]:
        per_op = 1.0 / operations
        selfs = self.self_times()
        out = {metric: {"value": selfs.get(span, 0.0) * 1000 * per_op, "unit": "ms"}
               for metric, span in TIMES}
        out.update({metric: {"value": self.counts[key] * per_op, "unit": "count"}
                    for metric, key in COUNTS})
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "layer", "start", "end", "parent", "operation"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
