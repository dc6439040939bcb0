"""Spans around martcheck's public functions, recorded from outside the package.

A Tracer patches module attributes (and two ProbTree methods) with wrappers
that append (name, start, end, parent, op) to flat arrays, so millions of
spans stay cheap to keep in memory. Callers inside martcheck look these
names up at call time, so the wrappers see every call. Nothing is patched
until `install` is called, and `uninstall` restores the originals.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# (span name, module attribute path, attribute); several functions may share a span name
TARGETS = (
    ("cli.main", "cli", "main"),
    ("formats.parse", "formats", "parse_integrand"),
    ("formats.parse", "formats", "parse_search"),
    ("formats.parse", "formats", "parse_tree"),
    ("formats.report_row", "formats", "report_row"),
    ("formats.csv_row", "formats", "csv_row"),
    ("ineq.sweep", "ineq", "sweep_random_trees"),
    ("ineq.eval_discrete", "ineq", "eval_discrete"),
    ("ptree.random_tree", "ptree", "random_tree"),
    ("ptree.validate", "ptree.ProbTree", "validate"),
    ("ptree.calculus", "ptree.ProbTree", "calculus"),
    ("ptree.norm", "ptree", "lp_norm"),
    ("ptree.norm", "ptree", "sup_lp_norm"),
    ("ptree.norm", "ptree", "quadratic_sum_norm"),
    ("ptree.norm", "ptree", "increment_lp_sum"),
    ("wiener_mc.eval_continuous", "wiener_mc", "eval_continuous"),
    ("sharpness.search", "sharpness", "search"),
    ("sharpness.family_ratio", "sharpness", "family_ratio"),
)

BOOKKEEPING = "trace.bookkeeping"


def count_nodes(tree) -> int:
    """Nodes of a ProbTree, root and leaves included."""
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(br.node for br in node.children)
    return count


class Tracer:
    """In-memory span recorder; `op` tags the spans of the op in progress."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.op = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result) runs in a bookkeeping span of its own,
        so its cost is kept out of every layer's self time."""
        nid = self._intern(name)
        bid = self._intern(BOOKKEEPING)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = self._open(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                idx = self._open(bid)
                try:
                    after(result)
                finally:
                    self._close(idx)
            return result
        return wrapper

    def _count_nodes(self, tree) -> None:
        self.counters["ptree.nodes"] = self.counters.get("ptree.nodes", 0) + count_nodes(tree)

    def install(self, modules: dict) -> None:
        """Patch every TARGETS entry found in `modules` (name -> module)."""
        for span, owner_path, attr in TARGETS:
            head, _, cls = owner_path.partition(".")
            owner = modules.get(head)
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            after = self._count_nodes if attr == "random_tree" else None
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(span, fn, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (a span minus
        the time its direct children cover)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])} for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op_of, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))


def rng_floor_ns_per_cell(block: tuple[int, ...], repeats: int = 7) -> float:
    """Median time of one Philox standard_normal block draw, per cell (ns)."""
    cells = int(np.prod(block))
    times = []
    for r in range(repeats):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(r)))
        t0 = time.perf_counter()
        gen.standard_normal(block)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / cells * 1e9


def layer_metrics(summary: dict, counters: dict, ops: int, cells_per_scan: int,
                  rng_floor: float, overhead: float) -> dict[str, float]:
    """The per-layer metrics of one traced segment, normalized per op."""
    def get(span, key):
        return summary.get(span, {}).get(key, 0.0)

    def per_op(value):
        return value / ops

    mc_calls = get("wiener_mc.eval_continuous", "calls")
    mc_s = get("wiener_mc.eval_continuous", "total_s")
    cells = mc_calls * cells_per_scan
    ns_per_cell = mc_s / cells * 1e9 if cells else 0.0
    build_s = get("ptree.validate", "self_s") + get("ptree.calculus", "self_s")
    nodes = counters.get("ptree.nodes", 0)
    return {
        "wiener_mc.eval_continuous_calls": per_op(mc_calls),
        "wiener_mc.eval_continuous_s": per_op(mc_s),
        "wiener_mc.cells": per_op(cells),
        "wiener_mc.ns_per_cell": ns_per_cell,
        "wiener_mc.rng_floor_ns_per_cell": rng_floor,
        "wiener_mc.over_floor": ns_per_cell / rng_floor - 1.0 if rng_floor and cells else 0.0,
        "ptree.random_tree_s": per_op(get("ptree.random_tree", "total_s")),
        "ptree.random_tree_calls": per_op(get("ptree.random_tree", "calls")),
        "ptree.validate_s": per_op(get("ptree.validate", "self_s")),
        "ptree.calculus_s": per_op(get("ptree.calculus", "self_s")),
        "ptree.nodes": per_op(nodes),
        "ptree.nodes_per_s": nodes / build_s if build_s else 0.0,
        "ptree.norm_calls": per_op(get("ptree.norm", "calls")),
        "ptree.norm_s": per_op(get("ptree.norm", "self_s")),
        "ineq.eval_discrete_calls": per_op(get("ineq.eval_discrete", "calls")),
        "ineq.eval_discrete_self_s": per_op(get("ineq.eval_discrete", "self_s")),
        "ineq.sweep_self_s": per_op(get("ineq.sweep", "self_s")),
        "formats.report_row_s": per_op(get("formats.report_row", "total_s")),
        "formats.csv_row_s": per_op(get("formats.csv_row", "total_s")),
        "formats.rows": per_op(get("formats.report_row", "calls")),
        "formats.parse_s": per_op(get("formats.parse", "total_s")),
        "cli.self_s": per_op(get("cli.main", "self_s")),
        "sharpness.family_ratio_calls": per_op(get("sharpness.family_ratio", "calls")),
        "sharpness.self_s": per_op(get("sharpness.search", "self_s")
                                   + get("sharpness.family_ratio", "self_s")),
        "trace.overhead": overhead,
    }


#: per-layer metrics whose value is computed from counts, not timed
COMPUTED = ("wiener_mc.cells",)
