"""Struct-of-arrays batches of streaming graph tuples, and their wire form.

A :class:`ColumnarBatch` holds one batch of tuples as parallel columns —
timestamps, interned source/target vertex ids, interned label ids and
delete flags — plus the *per-batch* id -> value tables the ids refer to.
Tables are local to the batch (built fresh by :meth:`from_tuples`), so
the wire form is self-contained: no interner state needs to be
coordinated between coordinator and workers, across restarts, or through
migrations.

Every batch takes this one form from coordinator to evaluator: the
coordinator builds it, ``BATCH`` frames carry its packed wire form, and
WAL replay and standby apply hand it to the engine directly.  The packed
wire form (:meth:`to_wire` / :meth:`from_wire`) stays within the worker
protocol's "plain scalars, strings and bytes" discipline: columns travel
as the raw bytes of stdlib ``array`` buffers, tables as tuples of
scalars.  :meth:`from_wire` validates a payload completely before
returning, because its bytes may come from another machine.

Tracing never touches these bytes: a sampled batch's trace context rides
*beside* the payload as an optional trailing ``BATCH`` frame element, so
the wire form of a batch is bit-identical whether or not it was sampled.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from ...errors import WireProtocolError
from ...graph.tuples import EdgeOp, StreamingGraphTuple

__all__ = ["COLUMNAR_MARKER", "ColumnarBatch"]

#: First element of a packed ``BATCH`` payload.
COLUMNAR_MARKER = "COL1"

#: ``(name, array typecode)`` of the five byte columns, in payload order.
_COLUMNS = (
    ("timestamps", "q"),
    ("sources", "i"),
    ("targets", "i"),
    ("labels", "i"),
    ("deletes", "b"),
)


class ColumnarBatch:
    """One batch of streaming graph tuples in struct-of-arrays layout.

    Attributes:
        timestamps: ``array('q')`` of tuple timestamps, in stream order.
        sources / targets: ``array('i')`` of per-batch vertex ids.
        labels: ``array('i')`` of per-batch label ids.
        deletes: ``array('b')`` of flags (1 = explicit deletion).
        vertex_table: per-batch id -> vertex value table.
        label_table: per-batch id -> label table.
    """

    __slots__ = (
        "timestamps",
        "sources",
        "targets",
        "labels",
        "deletes",
        "vertex_table",
        "label_table",
        "_materialized",
    )

    def __init__(
        self,
        timestamps: array,
        sources: array,
        targets: array,
        labels: array,
        deletes: array,
        vertex_table: Tuple,
        label_table: Tuple,
    ) -> None:
        self.timestamps = timestamps
        self.sources = sources
        self.targets = targets
        self.labels = labels
        self.deletes = deletes
        self.vertex_table = vertex_table
        self.label_table = label_table
        self._materialized: Optional[List[StreamingGraphTuple]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_tuples(cls, batch: Sequence[StreamingGraphTuple]) -> "ColumnarBatch":
        """Build columns from tuples, interning vertices/labels batch-locally."""
        vertex_ids: dict = {}
        label_ids: dict = {}
        vertex_id = vertex_ids.setdefault
        label_id = label_ids.setdefault
        sources: List[int] = []
        targets: List[int] = []
        labels: List[int] = []
        append_source = sources.append
        append_target = targets.append
        append_label = labels.append
        for tup in batch:
            append_source(vertex_id(tup.source, len(vertex_ids)))
            append_target(vertex_id(tup.target, len(vertex_ids)))
            append_label(label_id(tup.label, len(label_ids)))
        return cls(
            array("q", [tup.timestamp for tup in batch]),
            array("i", sources),
            array("i", targets),
            array("i", labels),
            array("b", [1 if tup.is_delete else 0 for tup in batch]),
            tuple(vertex_ids),
            tuple(label_ids),
        )

    # ------------------------------------------------------------------ #
    # Wire form
    # ------------------------------------------------------------------ #

    def to_wire(self) -> Tuple:
        """Encode into the packed ``BATCH`` payload (scalars, bytes, tuples)."""
        return (
            COLUMNAR_MARKER,
            len(self.timestamps),
            self.timestamps.tobytes(),
            self.sources.tobytes(),
            self.targets.tobytes(),
            self.labels.tobytes(),
            self.deletes.tobytes(),
            self.vertex_table,
            self.label_table,
        )

    @classmethod
    def from_wire(cls, payload: Tuple) -> "ColumnarBatch":
        """Decode a payload produced by :meth:`to_wire`.

        Raises:
            WireProtocolError: the payload is not a packed batch (wrong
                marker or shape), a column's length differs from the
                tuple count, or a vertex or label id falls outside its
                table.  Nothing has been applied anywhere when it raises.
        """
        if not isinstance(payload, (tuple, list)) or len(payload) != 9 or payload[0] != COLUMNAR_MARKER:
            raise WireProtocolError(
                f"not a columnar BATCH payload: expected 9 elements led by {COLUMNAR_MARKER!r}"
            )
        count = payload[1]
        columns = []
        for (name, typecode), data in zip(_COLUMNS, payload[2:7]):
            column = array(typecode)
            if not isinstance(data, bytes) or len(data) != count * column.itemsize:
                raise WireProtocolError(f"BATCH column {name!r} does not hold {count!r} items")
            column.frombytes(data)
            columns.append(column)
        vertex_table = tuple(payload[7])
        label_table = tuple(payload[8])
        if not (
            _ids_below(payload[3], len(vertex_table))
            and _ids_below(payload[4], len(vertex_table))
            and _ids_below(payload[5], len(label_table))
        ):
            raise WireProtocolError("BATCH vertex or label id outside its table")
        return cls(*columns, vertex_table, label_table)

    # ------------------------------------------------------------------ #
    # Row access (scalar evaluators)
    # ------------------------------------------------------------------ #

    def tuples(self) -> List[StreamingGraphTuple]:
        """Materialize the batch as tuples (cached; for tuple-at-a-time evaluators)."""
        if self._materialized is None:
            vertex_table = self.vertex_table
            label_table = self.label_table
            self._materialized = [
                StreamingGraphTuple(
                    timestamp=self.timestamps[index],
                    source=vertex_table[self.sources[index]],
                    target=vertex_table[self.targets[index]],
                    label=label_table[self.labels[index]],
                    op=EdgeOp.DELETE if self.deletes[index] else EdgeOp.INSERT,
                )
                for index in range(len(self.timestamps))
            ]
        return self._materialized

    def __len__(self) -> int:
        return len(self.timestamps)

    def __str__(self) -> str:
        return (
            f"ColumnarBatch(n={len(self.timestamps)}, vertices={len(self.vertex_table)}, "
            f"labels={len(self.label_table)})"
        )


def _ids_below(data: bytes, size: int) -> bool:
    """Whether every ``'i'`` id packed in ``data`` lies in ``[0, size)``.

    Read as unsigned, a negative id is huge, so one ``max`` checks both ends.
    """
    return not data or max(memoryview(data).cast("I")) < size
