"""Spans around pbtally's layer entry points, recorded from outside ``src/``.

A :class:`Tracer` replaces each entry point named in :data:`TARGETS` by a
wrapper that records one span per call (id, layer name, start, end,
parent id) into a flat in-memory array, and puts every original back on
exit. Nothing under ``src/`` knows it is being traced.

Each wrapper costs roughly a microsecond, which is the same order as the
cheapest calls it wraps, so the span *times* of layers with many tiny calls
are inflated; ``README.md`` in this directory says which ones.
"""

from __future__ import annotations

import itertools
import time
from array import array

import numpy as np

import pbtally.components
import pbtally.counter
import pbtally.engine
import pbtally.formula


def _split_is_multi(result) -> int:
    return len(result[0]) > 1


#: (owner, attribute, span name, per-call measure of the result or None).
#: ``ModelCounter.run`` is the root span of every count, so time inside it
#: that no child span covers is the search loop's own time.
TARGETS = (
    (pbtally.formula, "parse_opb", "formula.parse", None),
    (pbtally.counter.ModelCounter, "run", "counter.run", None),
    (pbtally.counter.ModelCounter, "_split_scope", "counter.split", _split_is_multi),
    (pbtally.counter.ModelCounter, "_pick_literal", "counter.pick", None),
    (pbtally.counter, "encode_component", "components.encode", len),
    (pbtally.components.CountCache, "lookup", "components.cache_lookup", None),
    (pbtally.components.CountCache, "store", "components.cache_store", None),
    (pbtally.components.CountCache, "purge_from", "components.cache_purge", None),
    (pbtally.engine.Engine, "propagate", "engine.propagate", None),
    (pbtally.engine.Engine, "decide", "engine.decide", None),
    (pbtally.engine.Engine, "backjump_to", "engine.backjump", None),
    (pbtally.engine.Engine, "analyze", "engine.analyze", None),
    (pbtally.engine.Engine, "add_learned", "engine.add_learned", None),
    (pbtally.engine.Engine, "set_scope", "engine.scope", None),
    (pbtally.engine.Engine, "clear_scope", "engine.scope", None),
)

#: distinct span names, in first-seen order
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))

_FIELDS = 5  # id, name index, start ns, end ns, parent id (-1 at the root)


class Tracer:
    """Context manager that traces every :data:`TARGETS` entry point.

    Spans accumulate until :meth:`take_pass` hands them over and starts an
    empty buffer; call it only between top-level calls, never inside one.
    """

    def __init__(self):
        self._spans = array("q")
        self._tally = [0] * len(SPAN_NAMES)
        self._ids = itertools.count()
        self._stack = [-1]
        self._saved = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, measure in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, SPAN_NAMES.index(name), measure))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_idx: int, measure):
        record = self._spans.extend
        clock = time.perf_counter_ns
        ids = self._ids
        stack = self._stack
        tally = self._tally

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((idx, name_idx, start, end, parent))
            if measure is not None:
                tally[name_idx] += measure(result)
            return result

        return traced

    def take_pass(self):
        """Spans and result tallies recorded since the last call.

        Returns ``(spans, tally)``: an ``(n, 5)`` int64 array ordered by span
        id, and the per-name sum of each wrapper's result measure.
        """
        assert self._stack == [-1], "take_pass inside a traced call"
        spans = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, _FIELDS).copy()
        del self._spans[:]
        tally = list(self._tally)
        self._tally[:] = [0] * len(tally)
        return spans[np.argsort(spans[:, 0], kind="stable")], tally


def layer_times(spans) -> tuple:
    """Per-name self seconds and call counts of one pass's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls are serial, so children never overlap.
    """
    n_names = len(SPAN_NAMES)
    if len(spans) == 0:
        return np.zeros(n_names), np.zeros(n_names, dtype=np.int64)
    ids, names, start, end, parent = spans.T
    dur = end - start
    child = np.zeros(len(spans), dtype=np.int64)
    nested = parent >= 0
    # ids of one pass are consecutive, so id - first id is the row index
    np.add.at(child, parent[nested] - ids[0], dur[nested])
    self_ns = np.bincount(names, weights=dur - child, minlength=n_names)
    calls = np.bincount(names, minlength=n_names)
    return self_ns / 1e9, calls
