"""Per-layer tracing from outside the package.

The traced run wraps the public functions of each qwjoin module (plus the
private ``_evaluate_pattern`` and the matrix methods of ``WeightedGraph``).
Each wrapper is installed in every qwjoin module that holds the wrapped
name, so calls between modules are seen too. A wrapper records a span
[name, start, end, parent index, work] in memory; spans are written out
when the benchmark ends. Self time is a span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

import qwjoin.cli  # noqa: F401  (loads every layer module, cli included)
from qwjoin.graphs import WeightedGraph

LAYERS = ("graphs", "spectral", "arith", "walk", "transfer", "bounds", "graphio", "cli")
BUILD = {"graphs.join", "graphs.disjoint_union", "graphs.self_join", "graphs.iterated_join"}
MATRIX = {"graphs.adjacency", "graphs.laplacian", "graphs.degree", "graphs.is_regular"}
ARITH = {"arith.classify_eigenvalues", "arith.reconstruct_rational", "arith.squarefree_part"}
EXTRA_PRIVATE = {"transfer": ("_evaluate_pattern",)}

# work recorded per span, from the arguments (and the result, for reports)
WORK = {
    "spectral.decompose": lambda args, result: len(args[0]),
    "walk.unitary_exp": lambda args, result: len(args[0]),
    "graphs.join": lambda args, result: args[0].order * args[1].order,
    "graphio.report_to_json": lambda args, result: len(result.encode()),
}


def _matrix_digest(args) -> str:
    return hashlib.blake2b(np.ascontiguousarray(args[0]).tobytes(), digest_size=16).hexdigest()


class Tracer:
    """Installs span-recording wrappers into qwjoin and removes them again."""

    def __init__(self):
        self.spans: list[list] = []
        self.digests: dict[int, str] = {}  # decompose span index -> matrix digest
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        digests = self.digests if name == "spectral.decompose" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if work is not None:
                span[4] = work(args, result)
            if digests is not None:
                digests[idx] = _matrix_digest(args)
            return result

        return wrapper

    def _targets(self):
        for layer in LAYERS:
            module = sys.modules[f"qwjoin.{layer}"]
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA_PRIVATE.get(layer, ()):
                    continue
                yield f"{layer}.{attr}", obj
        for attr in ("adjacency", "laplacian", "degree"):
            yield f"graphs.{attr}", getattr(WeightedGraph, attr)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qwjoin" or n.startswith("qwjoin.")]
        for name, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            if name.split(".")[1] in ("adjacency", "laplacian", "degree"):
                self._swap(WeightedGraph, name.split(".")[1], wrapper)
                continue
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._swap(module, attr, wrapper)

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: index, name, start, end, parent index, work."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for idx, (name, start, end, parent, work) in enumerate(self.spans):
                handle.write(json.dumps([idx, name, start, end, parent, work]) + "\n")


def layer_totals(spans: list[list], digests: dict[int, str], lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures of the spans lo..hi-1, which belong to one top-level call.

    Times are in seconds of this run, not yet normalized. The distinct-matrix
    count is per call, so its ratio to the decompose count reads 1 exactly
    when a call decomposes each matrix once.
    """
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for idx in range(lo, hi):
        name, start, end, parent, _ = spans[idx]
        if parent >= lo:
            child_time[parent] += end - start
    distinct = set()
    for idx in range(lo, hi):
        name, start, end, parent, work = spans[idx]
        dur = end - start
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += dur - child_time[idx]
        if name == "spectral.decompose":
            out["spectral.decompose_calls"] += 1
            out["spectral.decompose_s"] += dur
            out["spectral.decompose_n3"] += work**3
            distinct.add(digests[idx])
        elif name == "walk.unitary_exp":
            out["walk.expm_calls"] += 1
            out["walk.expm_s"] += dur
            out["walk.expm_n3"] += work**3
        elif name == "walk.transition_entries":
            out["walk.entries_calls"] += 1
        elif name in BUILD:
            out["graphs.build_calls"] += 1
            out["graphs.cross_edges"] += work
            if not _inside(spans, parent, lo, BUILD):
                out["graphs.build_s"] += dur
        elif name in MATRIX:
            out["graphs.matrix_calls"] += 1
            if not _inside(spans, parent, lo, MATRIX):
                out["graphs.matrix_s"] += dur
        elif name in ARITH:
            out["arith.calls"] += 1
        elif name == "transfer._evaluate_pattern":
            out["transfer.pattern_calls"] += 1
        elif name == "graphio.report_to_json":
            out["graphio.report_s"] += dur
            out["graphio.report_bytes"] += work
    out["spectral.decompose_distinct"] += len(distinct)
    out["trace.spans"] += hi - lo
    return out


def _inside(spans, parent: int, lo: int, names: set[str]) -> bool:
    """Whether some ancestor span (within the call) has one of the names."""
    while parent >= lo:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
