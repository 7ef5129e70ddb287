"""Spans and counters recorded from the benchmark's side of each call.

The benchmark wraps every call it makes into a public ``sqtile`` function
in a span (name, start, end, parent, op id).  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time covered by its child spans; a layer's busy time in an op
is the sum of the self times of its spans in that op.

Counting wrappers on ``LinExpr.cmp`` and ``LinExpr.eval_interval`` are
installed only for the traced part of a run, from this file; the
untraced run calls the package unchanged.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """Calls straight through; used for every timed, untraced op."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, op_id]
        self.counts = Counter()
        self.op = None
        self._stack = []

    def begin(self, name):
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def call(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self):
        """Self time in ns of every span, aligned with ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def busy_by_op(self):
        """{span name: {op id: busy ns}} from self times."""
        out = defaultdict(lambda: defaultdict(int))
        for (name, _, _, _, op), own in zip(self.spans, self.self_times()):
            out[name][op] += own
        return out

    def write(self, path, meta):
        rows = [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o} for n, s, e, p, o in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**meta, "spans": rows}, f)


def install_counters(exactnum, errors, tracer):
    """Count ``LinExpr.cmp`` and ``LinExpr.eval_interval`` calls and
    ambiguous comparisons into ``tracer``; returns a function that restores
    the originals."""
    cls = exactnum.LinExpr
    orig_cmp, orig_eval = cls.cmp, cls.eval_interval

    def cmp(self, other):
        tracer.counts["exactnum.cmp_calls"] += 1
        try:
            return orig_cmp(self, other)
        except errors.AmbiguousComparison:
            tracer.counts["exactnum.ambiguous"] += 1
            raise

    def eval_interval(self):
        tracer.counts["exactnum.eval_interval_calls"] += 1
        return orig_eval(self)

    cls.cmp, cls.eval_interval = cmp, eval_interval

    def restore():
        cls.cmp, cls.eval_interval = orig_cmp, orig_eval

    return restore
