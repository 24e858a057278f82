"""Tracing from outside the program.

`Tracer.install()` replaces the public functions of every `outforest`
module with wrappers, under every name a module bound them to: the
wrapper for `maximum_matching` is installed as `outforest.matching.
maximum_matching`, as `outforest.construct.maximum_matching`, as
`outforest.cli.maximum_matching` and in the package namespace.  Timed
functions record a span (name, start, end, parent span, op id); the
arc-level helpers called thousands of times per op are only counted,
keyed by the innermost open span.  `uninstall()` restores every name.
Spans stay in memory until `write()`.

Sizes are read off arguments and results after the op has finished (see
`finish_op`), so computing them adds nothing to any span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

TIMED = {
    "cli": ("run",),
    "graphs": (
        "parse_digraph", "parse_ugraph", "classify", "underlying_graph",
        "bidirect", "find_universal_root", "spanning_out_tree",
    ),
    "construct": (
        "decide_weak", "build_gadget", "matching_to_arcset", "remove_cycles",
        "even_tree_to_weak", "weak_to_almost", "construct_for_single_initial",
        "perfect_forest_undirected",
    ),
    "matching": ("maximum_matching",),
    "forests": ("verify", "extract_perfect_forest"),
    "oracle": ("oracle_forest", "oracle_matching"),
    "hardness": ("reduce_3dm", "extract_solution"),
}
COUNTED_FUNCTIONS = {"forests": ("classify_arc",)}
COUNTED_METHODS = (("forests", "OutForest", "is_ancestor", "forests.is_ancestor"),
                   ("forests", "OutForest", "__init__", "forests.outforest_built"))


def _tree_depth(tree):
    depth = {tree.root: 0}
    for v in tree.parent:
        chain = []
        while v not in depth:
            chain.append(v)
            v = tree.parent[v]
        for w in reversed(chain):
            depth[w] = depth[tree.parent[w]] + 1
    return max(depth.values())


# span name -> function (args, result) -> {counter: increment}
SIZES = {
    "graphs.parse_digraph": lambda a, r: {"graphs.n": r.n, "graphs.m": len(r.arcs)},
    "graphs.parse_ugraph": lambda a, r: {"graphs.n": r.n, "graphs.m": len(r.edges)},
    "graphs.spanning_out_tree": lambda a, r: {"graphs.tree_depth": _tree_depth(r)},
    "construct.build_gadget": lambda a, r: {
        "construct.gadget_vertices": r[0].n, "construct.gadget_edges": len(r[0].edges)},
    "construct.remove_cycles": lambda a, r: {
        "construct.cycle_vertices_stripped": len(a[0].arcs) - len(r.parent)},
    "matching.maximum_matching": lambda a, r: {
        "matching.matched_edges": len(r), "matching.exposed_vertices": a[0].n - 2 * len(r)},
    "oracle.oracle_forest": lambda a, r: {"oracle.found": int(r is not None)},
    "hardness.reduce_3dm": lambda a, r: {
        "hardness.reduced_n": r[0].n, "hardness.reduced_m": len(r[0].arcs)},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()  # (counted name, innermost span name) -> calls
        self.sizes = Counter()
        self.op_id = -1
        self._stack = []
        self._results = []
        self._restore = []

    def _timed(self, name, fn):
        spans, stack, results, clock = self.spans, self._stack, self._results, time.perf_counter
        sized = name in SIZES

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sized:
                results.append((name, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else None] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {k: v for k, v in sys.modules.items()
                if k == "outforest" or k.startswith("outforest.")}
        wrappers = {}
        for layer, names in TIMED.items():
            for fname in names:
                fn = getattr(mods[f"outforest.{layer}"], fname)
                wrappers[id(fn)] = self._timed(f"{layer}.{fname}", fn)
        for layer, names in COUNTED_FUNCTIONS.items():
            for fname in names:
                fn = getattr(mods[f"outforest.{layer}"], fname)
                wrappers[id(fn)] = self._counted(f"{layer}.{fname}", fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, w)
        for layer, cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(mods[f"outforest.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._counted(name, fn))

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def finish_op(self):
        """Read sizes off the arguments and results of the op just run."""
        for name, args, result in self._results:
            self.sizes.update(SIZES[name](args, result))
        self._results.clear()

    def write(self, spans_path, counts_path):
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
        counts = {f"{name}|{caller}": c for (name, caller), c in self.counts.items()}
        with open(counts_path, "w", encoding="utf-8") as fh:
            json.dump({"calls": counts, "sizes": dict(self.sizes)}, fh, sort_keys=True)
