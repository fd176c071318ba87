"""The snapshot graph ``G_{W,tau}`` of a sliding window.

Definition 5 of the paper: the contents of the window at time ``tau``
define a snapshot graph whose edges are the edges appearing in window
tuples and whose vertices are the endpoints of those edges.

:class:`SnapshotGraph` is the in-memory representation of that snapshot.
It stores, for every labelled directed edge, the timestamp of its most
recent occurrence in the window, and maintains both forward and backward
adjacency so that the streaming algorithms can

* iterate over outgoing edges of a vertex during ``Insert`` / ``Extend``;
* iterate over incoming edges of a vertex during expiry reconnection;
* drop all edges older than the window watermark in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .tuples import Label, StreamingGraphTuple, Vertex

__all__ = ["SnapshotGraph", "LabeledEdge"]


@dataclass(frozen=True)
class LabeledEdge:
    """A labelled, timestamped edge of the snapshot graph."""

    source: Vertex
    target: Vertex
    label: Label
    timestamp: int

    def __str__(self) -> str:
        return f"{self.source}-[{self.label}@{self.timestamp}]->{self.target}"


class SnapshotGraph:
    """Window content ``G_{W,tau}`` with label-indexed adjacency.

    Re-inserting an edge that is already present refreshes its timestamp to
    the larger of the two (the newest occurrence keeps the edge alive the
    longest, matching the multiset window semantics where only the most
    recent occurrence matters for expiry).
    """

    def __init__(self) -> None:
        # forward adjacency: u -> (v, label) -> timestamp
        self._out: Dict[Vertex, Dict[Tuple[Vertex, Label], int]] = {}
        # backward adjacency: v -> (u, label) -> timestamp
        self._in: Dict[Vertex, Dict[Tuple[Vertex, Label], int]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, source: Vertex, target: Vertex, label: Label, timestamp: int) -> bool:
        """Insert (or refresh) the edge; return ``True`` if it is new."""
        out_edges = self._out.setdefault(source, {})
        key = (target, label)
        is_new = key not in out_edges
        if is_new:
            self._num_edges += 1
            out_edges[key] = timestamp
            self._in.setdefault(target, {})[(source, label)] = timestamp
        else:
            refreshed = max(out_edges[key], timestamp)
            out_edges[key] = refreshed
            self._in[target][(source, label)] = refreshed
        return is_new

    def insert_tuple(self, tup: StreamingGraphTuple) -> bool:
        """Insert the edge carried by an insertion tuple."""
        return self.insert(tup.source, tup.target, tup.label, tup.timestamp)

    def delete(self, source: Vertex, target: Vertex, label: Label) -> bool:
        """Remove the edge; return ``True`` if it was present."""
        out_edges = self._out.get(source)
        if not out_edges or (target, label) not in out_edges:
            return False
        del out_edges[(target, label)]
        if not out_edges:
            del self._out[source]
        in_edges = self._in[target]
        del in_edges[(source, label)]
        if not in_edges:
            del self._in[target]
        self._num_edges -= 1
        return True

    def expire(self, watermark: int) -> List[LabeledEdge]:
        """Remove every edge with ``timestamp <= watermark``; return them.

        This implements the window slide: edges whose timestamp falls outside
        ``(tau - |W|, tau]`` leave the snapshot.
        """
        expired: List[LabeledEdge] = []
        for source in list(self._out.keys()):
            out_edges = self._out[source]
            stale = [
                (target, label)
                for (target, label), timestamp in out_edges.items()
                if timestamp <= watermark
            ]
            for target, label in stale:
                expired.append(LabeledEdge(source, target, label, out_edges[(target, label)]))
                self.delete(source, target, label)
        return expired

    def clear(self) -> None:
        """Remove all edges."""
        self._out.clear()
        self._in.clear()
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def has_edge(self, source: Vertex, target: Vertex, label: Label) -> bool:
        """Return ``True`` if the labelled edge is currently in the window."""
        return (target, label) in self._out.get(source, {})

    def edge_timestamp(self, source: Vertex, target: Vertex, label: Label) -> Optional[int]:
        """Return the timestamp of the labelled edge, or ``None`` if absent."""
        return self._out.get(source, {}).get((target, label))

    def out_edges(self, source: Vertex) -> Iterator[LabeledEdge]:
        """Yield the outgoing edges of ``source``."""
        for (target, label), timestamp in self._out.get(source, {}).items():
            yield LabeledEdge(source, target, label, timestamp)

    def in_edges(self, target: Vertex) -> Iterator[LabeledEdge]:
        """Yield the incoming edges of ``target``."""
        for (source, label), timestamp in self._in.get(target, {}).items():
            yield LabeledEdge(source, target, label, timestamp)

    def edges(self) -> Iterator[LabeledEdge]:
        """Yield every edge of the snapshot."""
        for source, out_edges in self._out.items():
            for (target, label), timestamp in out_edges.items():
                yield LabeledEdge(source, target, label, timestamp)

    def in_order(self) -> List[Tuple[Vertex, List[Tuple[Vertex, Label]]]]:
        """The backward adjacency in its live iteration order.

        :meth:`in_edges` yields in this order, and expiry reconnection picks
        the first valid parent it sees, so the order is part of the
        evaluator's observable behaviour.  Checkpoints record it (the
        forward ordering is implied by :meth:`edges`) so a restored snapshot
        reconnects exactly like the original — required for the runtime's
        bit-identical live-migration guarantee.
        """
        return [(target, list(in_edges.keys())) for target, in_edges in self._in.items()]

    def restore_in_order(self, entries: List[Tuple[Vertex, List[Tuple[Vertex, Label]]]]) -> None:
        """Rebuild the backward adjacency verbatim from :meth:`in_order` output.

        Timestamps are taken from the (already restored) forward adjacency;
        the entries must describe exactly the edges currently present.

        Raises:
            ValueError: if the entries list a target twice, name an edge
                the snapshot does not hold, or do not cover every edge.
        """
        rebuilt: Dict[Vertex, Dict[Tuple[Vertex, Label], int]] = {}
        covered = 0
        for target, keys in entries:
            if target in rebuilt:
                raise ValueError("corrupt checkpoint: backward adjacency lists a target twice")
            inner: Dict[Tuple[Vertex, Label], int] = {}
            for source, label in keys:
                timestamp = self.edge_timestamp(source, target, label)
                if timestamp is None:
                    raise ValueError(
                        f"corrupt checkpoint: backward adjacency names the absent edge "
                        f"{source!r}-[{label!r}]->{target!r}"
                    )
                inner[(source, label)] = timestamp
            covered += len(inner)
            rebuilt[target] = inner
        if covered != self._num_edges:
            raise ValueError(
                f"corrupt checkpoint: backward adjacency covers {covered} edges, "
                f"snapshot holds {self._num_edges}"
            )
        self._in = rebuilt

    def vertices(self) -> Set[Vertex]:
        """Return the set of vertices that are an endpoint of some edge."""
        return set(self._out.keys()) | set(self._in.keys())

    def labels(self) -> Set[Label]:
        """Return the set of labels currently present in the window."""
        return {label for out_edges in self._out.values() for (_, label) in out_edges.keys()}

    @property
    def num_edges(self) -> int:
        """Number of distinct labelled edges in the window."""
        return self._num_edges

    @property
    def num_vertices(self) -> int:
        """Number of vertices that are an endpoint of some edge."""
        return len(self.vertices())

    def __contains__(self, edge: Tuple[Vertex, Vertex, Label]) -> bool:
        source, target, label = edge
        return self.has_edge(source, target, label)

    def __len__(self) -> int:
        return self._num_edges

    def __str__(self) -> str:
        return f"SnapshotGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
