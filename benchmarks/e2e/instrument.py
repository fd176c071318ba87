"""Timing from outside: spans around stage calls, wrappers around layer functions.

Nothing in ``src/`` is edited.  :class:`Timers` measures a layer either with
an explicit span opened by the harness around a call into it (``begin`` /
``end``), or with a thin wrapper patched over one of its callables for the
duration of a pass (``patch``) and removed afterwards (``restore``).  Both
share one stack, so a layer's *self time* is its own duration minus whatever
nested spans and wrapped calls covered — the rule of choosing-metrics §4.

Explicit spans are kept (name, start, end, parent, batch id) and written out
at the end of the run.  Wrapped calls fire per tuple or per edge, so they are
aggregated instead: per key, total / self nanoseconds and a call count over
the whole pass.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple


class Timers:
    """Nesting-aware wall-clock accounting for spans and wrapped callables."""

    def __init__(self, keep_spans: bool = False) -> None:
        #: key -> [total_ns, self_ns, calls]
        self.records: Dict[str, List[int]] = {}
        self.spans: List[Tuple] = []
        self.keep_spans = keep_spans
        self.batch_id = 0
        self._stack: List[List] = []  # [key, start_ns, child_ns, span_id]
        self._undo: List[Tuple[object, str, object]] = []
        self._next_span = 1

    # Explicit spans ------------------------------------------------------ #

    def begin(self, key: str) -> None:
        span_id = self._next_span
        self._next_span += 1
        self._stack.append([key, time.perf_counter_ns(), 0, span_id])

    def end(self) -> int:
        """Close the innermost span; returns its duration in nanoseconds."""
        now = time.perf_counter_ns()
        key, start, child, span_id = self._stack.pop()
        duration = now - start
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = [0, 0, 0]
        record[0] += duration
        record[1] += duration - child
        record[2] += 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[3]
        if self.keep_spans:
            self.spans.append((span_id, parent, self.batch_id, key, start, now))
        return duration

    # Wrapped callables ---------------------------------------------------- #

    def patch(self, owner, attribute: str, key: str) -> None:
        """Replace ``owner.attribute`` by a timing wrapper accounted under ``key``."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        record = self.records.setdefault(key, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [key, clock(), 0, 0]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                record[0] += duration
                record[1] += duration - frame[2]
                record[2] += 1
                if stack:
                    stack[-1][2] += duration

        wrapper.__wrapped__ = original
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Remove every wrapper installed by :meth:`patch`."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Zero every record in place (wrappers keep theirs) and drop the spans."""
        for record in self.records.values():
            record[0] = record[1] = record[2] = 0
        self.spans = []

    # Reading -------------------------------------------------------------- #

    def total_s(self, key: str) -> float:
        return self.records.get(key, (0, 0, 0))[0] / 1e9

    def self_s(self, key: str) -> float:
        return self.records.get(key, (0, 0, 0))[1] / 1e9

    def calls(self, key: str) -> int:
        return self.records.get(key, (0, 0, 0))[2]

    def self_seconds(self) -> Dict[str, float]:
        """Self time in seconds of every key that was hit."""
        return {key: record[1] / 1e9 for key, record in sorted(self.records.items()) if record[2]}

