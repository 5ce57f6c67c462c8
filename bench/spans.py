"""Spans around the benchmark's calls into tokcheck, kept in memory.

A disabled tracer calls straight through, so the end-to-end run pays one
attribute test per call. An enabled tracer records, per call, the span's
name, start, end, parent span and op id; counts taken from returned
objects go into `counts`. With `memory` set (and `tracemalloc` started by
the caller), table-building spans also record their peak and retained
traced bytes.
"""

from __future__ import annotations

import gzip
import json
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = False, memory: bool = False):
        self.enabled = enabled
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.tables: list[tuple[int, int, int]] = []  # (rows, peak bytes, retained bytes)
        self.op = None
        self._parent = None

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec, outer = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec, outer)

    @contextmanager
    def span(self, name: str):
        """A span around a block: a replayed composite, an op or a set-up."""
        if not self.enabled:
            yield
            return
        rec, outer = self._open(name)
        try:
            yield
        finally:
            self._close(rec, outer)

    def _open(self, name: str):
        rec = [name, 0.0, 0.0, self._parent, self.op]
        outer = self._parent
        self._parent = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec, outer

    def _close(self, rec: list, outer) -> None:
        rec[2] = perf_counter()
        self._parent = outer

    def table(self, name: str, fn, *args):
        """Call a function that tabulates a StochMap; count its rows, and its memory if asked."""
        if self.memory:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        f = self.call(name, fn, *args)
        rows = len(f.kernel)
        self.counts["stochmap.rows_tabulated"] += rows
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            self.tables.append((rows, peak - before, current - before))
        return f

    def self_times(self, keep=lambda op: True) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans.

        Children of one span run one after another, so the time they cover
        is the sum of their durations. `keep` selects spans by op id.
        """
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if keep(op):
                out[name] += end - start
                if parent is not None:
                    out[self.spans[parent][0]] -= end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        return out

    def write(self, path, header: dict) -> None:
        """Write a JSON header line, then one tab-separated line per span, gzip-compressed.

        Span columns: index, name, start, end, parent index ("" for a root), op id.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(header)]
        lines += [
            f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{'' if parent is None else parent}\t{op}"
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("\n".join(lines) + "\n")
