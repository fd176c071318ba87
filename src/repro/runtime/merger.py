"""Timestamp-ordered merging of per-shard result streams.

Each shard worker accumulates per-query :class:`~repro.core.results.ResultStream`
objects independently.  To present the runtime's output as *one* global
result stream — the shape the paper's single-threaded prototype produces —
the per-query streams are k-way merged by timestamp.  The merge reuses
:func:`repro.graph.stream.merge_by_timestamp` (the same lazy ``heapq``
merge backing :func:`~repro.graph.stream.merge_streams`), with events
tagged by their query name so consumers know which persistent query fired.

Within one stream events are already in timestamp order (streams are
append-only and inputs arrive in timestamp order), so the merge is exact;
ties across streams are broken deterministically by input position.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import count, repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from ..core.partition import vertex_sort_key
from ..core.results import ResultEvent, ResultStream
from ..graph.stream import merge_by_timestamp

__all__ = [
    "TaggedResultEvent",
    "merge_result_events",
    "merge_result_streams",
    "merge_partition_events",
    "collect_results",
]


class TaggedResultEvent(NamedTuple):
    """A result event annotated with the query that produced it."""

    timestamp: int
    query: str
    event: ResultEvent

    def __str__(self) -> str:
        return f"{self.query}:{self.event}"


def _tagged(query: str, events: Iterable[ResultEvent]) -> Iterator[TaggedResultEvent]:
    for event in events:
        yield TaggedResultEvent(event.timestamp, query, event)


def merge_result_events(streams: Dict[str, Iterable[ResultEvent]]) -> Iterator[TaggedResultEvent]:
    """Lazily merge named event streams into one timestamp-ordered stream.

    Args:
        streams: mapping of query name to its (timestamp-ordered) events.

    Yields:
        :class:`TaggedResultEvent` in non-decreasing timestamp order.
    """
    sources = [_tagged(query, events) for query, events in sorted(streams.items())]
    return merge_by_timestamp(*sources)


def merge_result_streams(streams: Dict[str, ResultStream]) -> List[TaggedResultEvent]:
    """Materialize the global merged stream of several result streams."""
    return list(merge_result_events({name: stream.events for name, stream in streams.items()}))


def merge_partition_events(parts: Sequence[Tuple[ResultStream, Sequence[int]]]) -> ResultStream:
    """Reassemble root-partition result streams into the exact global stream.

    Each input is one partition's ``(stream, emission_keys)`` pair as
    produced by a root-partitioned
    :class:`~repro.core.rapq.RAPQEvaluator`.  The merge key is
    ``(emission key, vertex_sort_key(source))``: the emission key pins
    the relevant tuple that produced the event (every partition counts
    the same relevant-tuple sequence), and the event's ``source`` is its
    spanning-tree root, which the evaluator visits in canonical
    :func:`~repro.core.partition.vertex_sort_key` order within a tuple.
    Events with equal keys come from the same tree, hence the same
    partition, where their relative order is already correct — so the
    stable k-way merge reproduces the unpartitioned evaluator's stream
    bit-for-bit (order and content, deletions included).

    The merge runs over the streams' columns and gathers the merged
    columns directly; no per-event object is built.

    Args:
        parts: per-partition ``(stream, keys)`` pairs; ``keys`` must be
            parallel to the stream's events.

    Returns:
        one :class:`~repro.core.results.ResultStream` holding the merged
        events in order (so distinct/active-pair bookkeeping matches the
        unpartitioned evaluator's).

    Raises:
        ValueError: if any partition's key list does not match its events.
    """
    runs = []
    for index, (stream, keys) in enumerate(parts):
        if len(stream) != len(keys):
            raise ValueError(f"partition stream has {len(stream)} events but {len(keys)} emission keys")
        # The trailing (partition, row) breaks ties the way a stable merge
        # does: by partition, then by position in the partition's stream.
        runs.append(zip(keys, map(vertex_sort_key, stream.sources), repeat(index), count()))
    streams = [stream for stream, _ in parts]
    timestamps = array("q")
    sources: List = []
    targets: List = []
    signs = bytearray()
    for _key, _root, index, row in heapq.merge(*runs):
        stream = streams[index]
        timestamps.append(stream.timestamps[row])
        sources.append(stream.sources[row])
        targets.append(stream.targets[row])
        signs.append(stream.signs[row])
    return ResultStream.from_columns(timestamps, sources, targets, signs)


def collect_results(streams: Iterable[ResultStream]) -> ResultStream:
    """Fold several result streams into a single global :class:`ResultStream`.

    Events are replayed in merged timestamp order, so the combined stream's
    distinct/active pair bookkeeping matches what a single engine evaluating
    all queries would have accumulated.
    """
    combined = ResultStream()
    combined.extend(merge_by_timestamp(*[stream.events for stream in streams]))
    return combined
