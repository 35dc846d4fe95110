"""In-memory span tracing around the adret functions each layer calls.

The benchmark never edits the package. Tracing works by replacing module
attributes: for every target function, each loaded ``adret.*`` module that
binds the original object under some name gets a wrapper in its place, so
calls made through ``from .tensor import as_matrix`` style imports are
traced too. ``Tracer.uninstall`` puts every original back.

A span records its name, start, end, parent span and operation id. Spans
live in flat arrays while the benchmark runs and are written out once, at
the end. The program is single-threaded and every call returns before its
caller does, so child spans nest strictly inside their parent and never
overlap one another; a span's self time is therefore its duration minus the
sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1


def _count_queries(counters, args, kwargs, result):
    counters["evaluation.queries"] += len(args[1])


def _count_instances(counters, args, kwargs, result):
    counters["data.instances"] += sum(len(c.images) + len(c.texts)
                                      for c in result.values())


def _count_bytes(counters, args, kwargs, result):
    counters["cache.bytes"] += len(args[1])


def _count_k(counters, args, kwargs, result):
    counters["objectives.k_sum"] += result[1].k_selected
    counters["objectives.k_n"] += 1


# (span name, module, function, optional counter). The span name's first
# component is the layer the function belongs to.
TARGETS = (
    ("tensor.as_matrix", "adret.tensor", "as_matrix", None),
    ("tensor.as_vector", "adret.tensor", "as_vector", None),
    ("tensor.matmul", "adret.tensor", "matmul", None),
    ("tensor.add_row_bias", "adret.tensor", "add_row_bias", None),
    ("tensor.sort", "adret.tensor", "sort_desc_per_column", None),
    ("tensor.sort_vjp", "adret.tensor", "sort_desc_per_column_vjp", None),
    ("tensor.softmax", "adret.tensor", "softmax_columns", None),
    ("tensor.softmax", "adret.tensor", "softmax_vector", None),
    ("tensor.softmax_vjp", "adret.tensor", "softmax_columns_vjp", None),
    ("tensor.softmax_vjp", "adret.tensor", "softmax_vector_vjp", None),
    ("tensor.l2_normalize", "adret.tensor", "l2_normalize_rows", None),
    ("pooling.forward", "adret.pooling", "pool_forward", None),
    ("pooling.vjp", "adret.pooling", "pool_vjp", None),
    ("encoders.project", "adret.encoders", "project", None),
    ("encoders.forward", "adret.encoders", "encode_forward", None),
    ("encoders.vjp", "adret.encoders", "encode_vjp", None),
    ("encoders.encode_all", "adret.encoders", "encode_all", None),
    ("objectives.loss", "adret.objectives", "adopt_loss", _count_k),
    ("objectives.loss", "adret.objectives", "hard_triplet_loss", None),
    ("objectives.select", "adret.objectives", "select_negatives", None),
    ("objectives.infonce", "adret.objectives", "info_nce_loss", None),
    ("objectives.infonce", "adret.objectives", "negatives_only_info_nce", None),
    ("training.train", "adret.training", "train", None),
    ("training.adam", "adret.training", "adam_step", None),
    ("training.validation", "adret.training", "_validation_rsum", None),
    ("evaluation.similarity", "adret.tensor", "cosine_sim_matrix", None),
    ("evaluation.evaluate", "adret.evaluation", "evaluate_scores", None),
    ("evaluation.recall", "adret.evaluation", "recall_at_k", _count_queries),
    ("data.generate", "adret.data", "generate_splits", _count_instances),
    ("cache.save", "adret.data", "save_corpus", None),
    ("cache.save", "adret.cache", "save_tensors", None),
    ("cache.load", "adret.data", "load_corpus", None),
    ("cache.load", "adret.cache", "load_tensors", None),
    ("cache.write", "adret.cache", "atomic_write_bytes", _count_bytes),
)


class Tracer:
    """Collects spans for wrapped calls and the benchmark's own phases."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = NO_PARENT
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [NO_PARENT]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """A top-level span for one benchmark operation, with a fresh id."""
        self.op_id += 1
        idx = self._open(self._name_id(name))
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        name_id = self._name_id(name)
        counters = self.counters
        clock = time.perf_counter_ns
        start = self.start

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every loaded adret module that binds it.

        A target the package no longer defines is skipped; its metrics
        then read zero.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "adret" or n.startswith("adret.")) and m is not None]
        for name, module, attr, count in targets:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Requires strictly nested, non-overlapping children (a single-threaded
    call tree); raises ValueError when the spans break that condition.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    if (dur < 0).any():
        raise ValueError("span ends before it starts")
    child = np.flatnonzero(parent != NO_PARENT)
    p = parent[child]
    if ((start[child] < start[p]) | (end[child] > end[p])).any():
        raise ValueError("child span outside its parent")
    order = child[np.lexsort((start[child], p))]
    same = parent[order[1:]] == parent[order[:-1]]
    if (start[order[1:]][same] < end[order[:-1]][same]).any():
        raise ValueError("sibling spans overlap")
    covered = np.bincount(p, weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(tracer: Tracer) -> dict[str, float]:
    """Calls, self seconds and inclusive seconds per span name, plus
    self seconds per layer and the tracer's counters."""
    a = tracer.arrays()
    n = len(tracer.names)
    self_s = self_times(a["start_ns"], a["end_ns"], a["parent"]) / 1e9
    dur_s = (a["end_ns"] - a["start_ns"]) / 1e9
    calls = np.bincount(a["name"], minlength=n)
    self_by_name = np.bincount(a["name"], weights=self_s, minlength=n)
    dur_by_name = np.bincount(a["name"], weights=dur_s, minlength=n)
    out: dict[str, float] = {}
    layers: dict[str, float] = defaultdict(float)
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_by_name[i])
        out[f"{name}.s"] = float(dur_by_name[i])
        layers[name.split(".")[0]] += float(self_by_name[i])
    for layer, total in layers.items():
        out[f"layer.{layer}.self_s"] = total
    out.update(tracer.counters)
    return out
