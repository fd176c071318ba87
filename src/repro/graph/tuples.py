"""Streaming graph tuples (sgts) and related value types.

Definition 2 of the paper: a streaming graph tuple is a quadruple
``(tau, e, l, op)`` where ``tau`` is the event timestamp, ``e = (u, v)`` is
the directed edge, ``l`` is the edge label and ``op`` marks the tuple as an
insertion (``+``) or an explicit deletion (``-``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Tuple

__all__ = ["EdgeOp", "StreamingGraphTuple", "sgt", "Vertex", "Label"]

# Vertices and labels are arbitrary hashable values (typically str or int).
Vertex = Hashable
Label = str


class EdgeOp(enum.Enum):
    """Operation carried by a streaming graph tuple."""

    INSERT = "+"
    DELETE = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class StreamingGraphTuple:
    """A single element of a streaming graph (Definition 2).

    Attributes:
        timestamp: event (application) timestamp ``tau`` assigned by the source.
        source: source vertex ``u`` of the directed edge.
        target: target vertex ``v`` of the directed edge.
        label: edge label ``l`` from the graph alphabet.
        op: insertion or explicit deletion.

    The ordering is by timestamp first so that lists of tuples sort into
    stream order; the paper assumes tuples arrive in timestamp order.
    """

    timestamp: int
    source: Vertex
    target: Vertex
    label: Label
    op: EdgeOp = EdgeOp.INSERT

    @property
    def edge(self) -> Tuple[Vertex, Vertex]:
        """Return the directed edge ``(u, v)``."""
        return (self.source, self.target)

    @property
    def is_insert(self) -> bool:
        """Return ``True`` for an insertion tuple."""
        return self.op is EdgeOp.INSERT

    @property
    def is_delete(self) -> bool:
        """Return ``True`` for an explicit-deletion (negative) tuple."""
        return self.op is EdgeOp.DELETE

    def to_wire(self) -> Tuple:
        """Compact wire form ``(tau, u, v, l, op)`` with ``op`` as ``"+"``/``"-"``.

        The wire form is a plain tuple of scalars so it can cross process
        boundaries (or be JSON-encoded) without pickling rich objects; it is
        the tuple record of the runtime's write-ahead log and replication
        stream (:mod:`repro.runtime.durability`).
        """
        return (self.timestamp, self.source, self.target, self.label, self.op.value)

    @classmethod
    def from_wire(cls, wire: Tuple) -> "StreamingGraphTuple":
        """Rebuild a tuple from its :meth:`to_wire` form."""
        timestamp, source, target, label, op = wire
        return cls(timestamp=timestamp, source=source, target=target, label=label, op=EdgeOp(op))

    def as_delete(self, timestamp: int) -> "StreamingGraphTuple":
        """Return the negative tuple deleting this edge at ``timestamp``.

        The experiments of §5.4 generate explicit deletions by re-inserting a
        previously consumed edge as a negative tuple; this helper builds that
        negative tuple.
        """
        return StreamingGraphTuple(
            timestamp=timestamp,
            source=self.source,
            target=self.target,
            label=self.label,
            op=EdgeOp.DELETE,
        )

    def __str__(self) -> str:
        return f"({self.timestamp}, {self.source}-[{self.label}]->{self.target}, {self.op})"


def sgt(
    timestamp: int,
    source: Vertex,
    target: Vertex,
    label: Label,
    op: EdgeOp = EdgeOp.INSERT,
) -> StreamingGraphTuple:
    """Shorthand constructor for a :class:`StreamingGraphTuple`."""
    return StreamingGraphTuple(timestamp=timestamp, source=source, target=target, label=label, op=op)
