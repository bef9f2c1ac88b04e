"""Span and counter recording around the public functions of ``bcsgap``.

The package binds names with ``from .x import y``, so a function is called
through the binding in the *consumer* module's namespace.  ``install``
therefore replaces every binding of each public function, in every package
module (the defining module included), with a wrapper; the per-value helpers
in ``_UNWRAPPED`` are left alone.  Each wrapper records
one span named ``<owner>.<function>.from_<consumer>`` with its start, end and
parent span, and adds per-call counts for the functions listed in
``_COUNTERS``.  Spans stay in memory until ``Tracer.dump`` writes them.

Nothing in ``src/`` changes: the wrappers live here and are installed only
in a traced benchmark child.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "cli",
    "model",
    "quadrature",
    "simple_gap",
    "gap_operator",
    "certificate",
    "solver",
    "thermo",
    "fileio",
)


def _apply_values(counts, args, out):
    n = out.size
    counts["gap_operator.apply_values.bytes_computed"] += 8 * n * n
    counts["gap_operator.apply_values.flops_computed"] += 2 * n * n


def _picard(counts, args, out):
    iterations = out[1].iterations
    counts["solver.picard_solve.iterations"] += iterations
    key = "solver.picard_solve.iterations_max"
    counts[key] = max(counts[key], iterations)


def _spectral(counts, args, out):
    counts["gap_operator.spectral_radius.power_iterations"] += out.iterations


def _write_csv(counts, args, out):
    counts["fileio.write_csv.bytes"] += os.path.getsize(args[0])


# per-call counts, keyed by "<owner>.<function>"; functions keyed by
# consumer as well get "<owner>.<function>.from_<consumer>.<counter>"
_COUNTERS = {
    "gap_operator.apply_values": _apply_values,
    "solver.picard_solve": _picard,
    "gap_operator.spectral_radius": _spectral,
    "fileio.write_csv": _write_csv,
}
_SIZED = {"quadrature.gap_kernel": "elements", "model.potential_matrix": "entries"}
# leaf helpers called once per output value; a wrapper would cost more than they do
_UNWRAPPED = {"fileio.fmt"}


class Tracer:
    """In-memory span store: parallel lists indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.cached: dict[str, object] = {}

    def _wrap(self, fn, owner_name: str, consumer: str):
        span_name = f"{owner_name}.from_{consumer}"
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        counter = _COUNTERS.get(owner_name)
        sized = _SIZED.get(owner_name)
        sized_key = f"{span_name}.{sized}"
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, out)
            if sized is not None:
                counts[sized_key] += out.size
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every public function in the package."""
        mods = {m: importlib.import_module(f"bcsgap.{m}") for m in MODULES}
        targets: dict[int, str] = {}
        for owner, mod in mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj) and not isinstance(obj, type) and f"{owner}.{name}" not in _UNWRAPPED:
                    targets[id(obj)] = f"{owner}.{name}"
                    if hasattr(obj, "cache_info"):
                        self.cached[f"{owner}.{name}"] = obj
        for consumer, mod in mods.items():
            bound = [(a, v) for a, v in vars(mod).items() if id(v) in targets]
            for attr, obj in bound:
                setattr(mod, attr, self._wrap(obj, targets[id(obj)], consumer))

    def dump(self, path: str) -> dict:
        """Write the spans to an ``.npz`` file; return names and counts.

        Arrays ``name_id``, ``parent``, ``start`` and ``end`` are indexed by
        span number; ``parent`` is -1 for a root span.
        """
        for name, fn in self.cached.items():
            self.counts[f"{name}.misses"] = fn.cache_info().misses
        np.savez(
            path,
            name_id=np.asarray(self.name_ids, dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )
        return {"names": self.names, "counts": dict(self.counts)}


def summarize(path: str, names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Names are also rolled up without their ``.from_<consumer>``
    suffix, so ``quadrature.gap_kernel`` totals every consumer.
    """
    with np.load(path) as z:
        ids, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    total = np.bincount(ids, weights=dur, minlength=k)
    own = np.bincount(ids, weights=dur - child, minlength=k)
    out: dict[str, dict[str, float]] = {}
    for nid, name in enumerate(names):
        for key in (name, name.rsplit(".from_", 1)[0]):
            rec = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += int(calls[nid])
            rec["s"] += float(total[nid])
            rec["self_s"] += float(own[nid])
    return out
