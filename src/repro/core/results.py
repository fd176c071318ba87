"""Result streams for persistent RPQ evaluation.

Under the implicit window model (§2) the answer of a streaming RPQ is an
*append-only stream* of vertex pairs ``(x, y)``: a pair is appended when a
satisfying path whose edges are all inside the current window is first
discovered.  Results are never retracted by window movement; explicit
deletions (negative tuples) may *invalidate* previously reported results,
which the engines surface as invalidation records.

:class:`ResultStream` records both kinds of events with the timestamp at
which they were produced, and keeps the set of currently-known distinct
pairs for convenience.

The stream is stored as parallel columns, not as one object per event: a
persistent query accumulates hundreds of thousands of answers, and a list
of event objects makes every full pass of Python's garbage collector walk
all of them.  Columns of integers and vertex references are a handful of
containers the collector never traverses element by element.
:class:`ResultEvent` objects are built only when a caller asks for events.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..graph.tuples import Vertex

__all__ = ["ResultEvent", "ResultStream"]


@dataclass(frozen=True)
class ResultEvent:
    """A single event of the output stream.

    Attributes:
        timestamp: stream time at which the event was produced.
        source: the path's source vertex ``x`` (root of the spanning tree).
        target: the path's target vertex ``y``.
        positive: ``True`` for a newly reported pair, ``False`` for an
            invalidation caused by an explicit deletion.
    """

    timestamp: int
    source: Vertex
    target: Vertex
    positive: bool = True

    @property
    def pair(self) -> Tuple[Vertex, Vertex]:
        """The reported vertex pair ``(x, y)``."""
        return (self.source, self.target)

    def __str__(self) -> str:
        sign = "+" if self.positive else "-"
        return f"{sign}({self.source}, {self.target})@{self.timestamp}"


class ResultStream:
    """Append-only stream of results produced by a persistent RPQ.

    The stream records every event in order.  ``distinct_pairs`` is the set
    of pairs reported so far and never shrinks (implicit window semantics);
    ``active_pairs`` additionally honours invalidations from explicit
    deletions, i.e. it reflects the pairs supported by the current window
    content.

    Attributes:
        timestamps: ``array('q')`` of event timestamps, in production order.
        sources / targets: lists of the events' vertex pairs.
        signs: ``bytearray`` of flags (1 = reported, 0 = invalidated).

    The columns are read-only to callers; :meth:`report` and
    :meth:`invalidate` append to them.  The distinct/active pair
    bookkeeping is folded from the columns on the first inspection after
    new events arrived, so recording an event allocates nothing.
    """

    def __init__(self) -> None:
        self.timestamps = array("q")
        self.sources: List[Vertex] = []
        self.targets: List[Vertex] = []
        self.signs = bytearray()
        self._distinct: Set[Tuple[Vertex, Vertex]] = set()
        self._active_counts: Dict[Tuple[Vertex, Vertex], int] = {}
        self._folded = 0

    @classmethod
    def from_columns(
        cls, timestamps: array, sources: List, targets: List, signs: bytearray
    ) -> "ResultStream":
        """Adopt pre-built columns (no copy) as a new stream.

        Raises:
            ValueError: if the columns differ in length.
        """
        if not len(timestamps) == len(sources) == len(targets) == len(signs):
            raise ValueError(
                f"result columns differ in length: {len(timestamps)} timestamps, "
                f"{len(sources)} sources, {len(targets)} targets, {len(signs)} signs"
            )
        stream = cls()
        stream.timestamps = timestamps
        stream.sources = sources
        stream.targets = targets
        stream.signs = signs
        return stream

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def report(self, source: Vertex, target: Vertex, timestamp: int) -> None:
        """Append a newly discovered pair to the stream."""
        self.timestamps.append(timestamp)
        self.sources.append(source)
        self.targets.append(target)
        self.signs.append(1)

    def invalidate(self, source: Vertex, target: Vertex, timestamp: int) -> None:
        """Record that a previously reported pair lost its last supporting path."""
        self.timestamps.append(timestamp)
        self.sources.append(source)
        self.targets.append(target)
        self.signs.append(0)

    def copy(self) -> "ResultStream":
        """Cheap structural copy (column copies, no per-event replay) for snapshotting."""
        duplicate = ResultStream.from_columns(
            array("q", self.timestamps), list(self.sources), list(self.targets), bytearray(self.signs)
        )
        duplicate._distinct = set(self._distinct)
        duplicate._active_counts = dict(self._active_counts)
        duplicate._folded = self._folded
        return duplicate

    def extend(self, events: Iterable[ResultEvent]) -> None:
        """Append pre-built events (used when merging engine outputs)."""
        for event in events:
            (self.report if event.positive else self.invalidate)(event.source, event.target, event.timestamp)

    def to_wire(self) -> Tuple[bytes, Tuple, Tuple, bytes]:
        """The whole stream as packed columns ``(timestamps, sources, targets, signs)``.

        Timestamps and signs travel as the raw bytes of their buffers, the
        way :class:`~repro.core.columnar.ColumnarBatch` ships its columns;
        vertices as tuples of values.  Plain scalars and bytes only, so the
        form crosses every worker transport without pickling rich objects.
        """
        return (self.timestamps.tobytes(), tuple(self.sources), tuple(self.targets), bytes(self.signs))

    @classmethod
    def from_wire(cls, wire) -> "ResultStream":
        """Rebuild a stream from its :meth:`to_wire` form.

        The distinct/active pair bookkeeping is folded from the columns on
        first inspection, so the copy behaves like the original stream for
        every inspection method.
        """
        timestamp_bytes, sources, targets, signs = wire
        timestamps = array("q")
        timestamps.frombytes(timestamp_bytes)
        return cls.from_columns(timestamps, list(sources), list(targets), bytearray(signs))

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def _fold(self) -> None:
        """Bring the pair bookkeeping up to date with the columns."""
        start, end = self._folded, len(self.signs)
        if start == end:
            return
        distinct = self._distinct
        active = self._active_counts
        pairs = zip(self.sources[start:end], self.targets[start:end])
        for pair, positive in zip(pairs, self.signs[start:end]):
            if positive:
                distinct.add(pair)
                active[pair] = active.get(pair, 0) + 1
            else:
                count = active.get(pair, 0)
                if count > 1:
                    active[pair] = count - 1
                else:
                    active.pop(pair, None)
        self._folded = end

    def _rows(self) -> Iterator[Tuple[int, Vertex, Vertex, int]]:
        return zip(self.timestamps, self.sources, self.targets, self.signs)

    @property
    def events(self) -> List[ResultEvent]:
        """All events in production order."""
        return list(self)

    @property
    def distinct_pairs(self) -> Set[Tuple[Vertex, Vertex]]:
        """All pairs ever reported (implicit window semantics, monotone)."""
        self._fold()
        return set(self._distinct)

    @property
    def active_pairs(self) -> Set[Tuple[Vertex, Vertex]]:
        """Pairs reported and not subsequently invalidated."""
        self._fold()
        return set(self._active_counts.keys())

    def positives(self) -> List[ResultEvent]:
        """Return only the positive (newly-reported) events."""
        return [ResultEvent(tau, source, target, True) for tau, source, target, sign in self._rows() if sign]

    def negatives(self) -> List[ResultEvent]:
        """Return only the invalidation events."""
        return [
            ResultEvent(tau, source, target, False) for tau, source, target, sign in self._rows() if not sign
        ]

    def pairs_reported_at(self, timestamp: int) -> Set[Tuple[Vertex, Vertex]]:
        """Return the pairs first reported exactly at ``timestamp``."""
        return {(source, target) for tau, source, target, sign in self._rows() if sign and tau == timestamp}

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self) -> Iterator[ResultEvent]:
        return (ResultEvent(tau, source, target, bool(sign)) for tau, source, target, sign in self._rows())

    def __contains__(self, pair: Tuple[Vertex, Vertex]) -> bool:
        self._fold()
        return pair in self._distinct

    def __str__(self) -> str:
        self._fold()
        return (
            f"ResultStream(events={len(self)}, "
            f"distinct={len(self._distinct)}, active={len(self._active_counts)})"
        )
