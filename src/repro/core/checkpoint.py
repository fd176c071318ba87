"""Checkpointing: persist and restore the state of an RAPQ evaluator.

Long-running persistent queries need to survive process restarts without
replaying the entire stream.  A checkpoint captures everything Algorithm
RAPQ maintains between tuples:

* the window content ``G_{W,tau}`` (labelled edges with timestamps);
* the Delta tree index (every spanning tree with parent pointers and path
  timestamps);
* the append-only result stream (positive and negative events);
* the clock (current time and last expiry boundary) and the statistics.

Checkpoints are plain JSON-compatible dictionaries, so they can be written
with :func:`json.dump` and shipped anywhere.  Vertices must be JSON scalars
(strings or integers); the loader restores integer vertices exactly and
leaves strings untouched.

Only the arbitrary-path evaluator is checkpointable: RSPQ trees contain
per-occurrence node instances whose identity is positional, which would
require a heavier encoding, and the recomputation baseline has no state
worth saving beyond the window itself.

Checkpoints are *order-exact* (format 2): besides the state itself they
record every iteration order the algorithms observe — tree-node insertion
order, the ``vertex -> tree roots`` reverse index, and the snapshot's
backward adjacency.  A restored evaluator therefore emits future results in
exactly the same order as the original would have, which is what lets the
runtime migrate a live query between shards without perturbing the global
result stream.  Format-1 checkpoints (pre-ordering) are refused.

This module is the only code that knows the layout.  It reads and writes
the columnar evaluator in place: ids are resolved through the evaluator's
interner tables on the way out, and values are interned as rows are read
on the way in.  Every checkpoint restores into a
:class:`~repro.core.columnar.evaluator.ColumnarRAPQEvaluator`, whichever
evaluator wrote it.

Format 2 additionally carries the *partitioning* sections (see
:mod:`repro.core.partition` and ``docs/CHECKPOINT_FORMAT.md``): an
``"emission"`` section tagging every result event with the relevant-tuple
index that produced it, and — for evaluators that are one root partition
of a split query — a ``"partition"`` section recording ``index``/``count``
so the restored evaluator keeps admitting exactly its own tree roots.
Checkpoints that predate these sections still load: emission keys are then
synthesized as ``1..n`` (strictly increasing, so any later merge preserves
the recorded history order exactly).
"""

from __future__ import annotations

import json
import math
import zlib
from array import array
from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import CheckpointError
from ..graph.window import WindowSpec
from ..regex.analysis import QueryAnalysis
from .columnar.evaluator import ColumnarRAPQEvaluator
from .rapq import RAPQEvaluator
from .results import ResultStream

__all__ = [
    "checkpoint_rapq",
    "restore_rapq",
    "encode_rapq",
    "decode_rapq",
    "save_checkpoint",
    "load_checkpoint",
    "canonical_bytes",
    "state_digest",
    "decode_state",
]

#: Format marker so that future layout changes can stay backward compatible.
#: Version 2 added the iteration orders (reverse index, backward adjacency)
#: that make restore order-exact; version 1 is no longer read.
_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (2,)

# JSON has no infinity literal that round-trips portably, so sentinel strings
# encode the root timestamp (+inf) and deletion markers (-inf).
_POS_INF = "+inf"
_NEG_INF = "-inf"


def _encode_timestamp(value: float) -> Union[float, str]:
    if value == math.inf:
        return _POS_INF
    if value == -math.inf:
        return _NEG_INF
    return value


def _decode_timestamp(value: Union[float, str]) -> float:
    if value == _POS_INF:
        return math.inf
    if value == _NEG_INF:
        return -math.inf
    return value


def _check_vertex(vertex) -> None:
    if not isinstance(vertex, (str, int)):
        raise TypeError(
            f"checkpointing requires str or int vertices, got {type(vertex).__name__}: {vertex!r}"
        )


class _Values:
    """Stands in for an interner table where keys already are the values."""

    __slots__ = ()

    def __getitem__(self, key):
        return key


_VALUES = _Values()


def _value_tables(evaluator: RAPQEvaluator):
    """The ``id -> value`` tables for the evaluator's vertex and label keys."""
    if isinstance(evaluator, ColumnarRAPQEvaluator):
        return evaluator._vertices.table, evaluator._labels.table
    return _VALUES, _VALUES


def checkpoint_rapq(evaluator: RAPQEvaluator) -> Dict:
    """Capture the complete state of an RAPQ evaluator as a JSON-compatible dict.

    The evaluator is read in place.  The columnar evaluator keys its
    snapshot, trees, reverse index and backward adjacency by interned ids;
    each id is resolved through the evaluator's interner tables as it is
    written.  The scalar oracle's keys already are the values.
    """
    vertex_of, label_of = _value_tables(evaluator)
    edges = []
    for edge in evaluator.snapshot.edges():
        source = vertex_of[edge.source]
        target = vertex_of[edge.target]
        _check_vertex(source)
        _check_vertex(target)
        edges.append([source, target, label_of[edge.label], edge.timestamp])

    trees = []
    for tree in evaluator.index.trees():
        nodes = [
            {
                "vertex": vertex_of[node.vertex],
                "state": node.state,
                "parent_vertex": vertex_of[node.parent[0]],
                "parent_state": node.parent[1],
                "timestamp": _encode_timestamp(node.timestamp),
            }
            for node in tree.nodes()
            if node.parent is not None  # the root is implied by the tree entry
        ]
        trees.append(
            {
                "root": vertex_of[tree.root_vertex],
                "root_cycle_reported": bool(getattr(tree, "root_cycle_reported", False)),
                "nodes": nodes,
            }
        )

    # Result rows straight from the stream's columns (no event objects).
    results = evaluator.results
    events = [
        {"timestamp": timestamp, "source": source, "target": target, "positive": bool(sign)}
        for timestamp, source, target, sign in zip(
            results.timestamps, results.sources, results.targets, results.signs
        )
    ]

    # The iteration orders the algorithms observe (format 2): which trees a
    # tuple visits, and which incoming edge reconnects an expired node first.
    # Recording them makes restore order-exact, so a migrated query keeps
    # emitting results in exactly the order the unmigrated one would have.
    reverse_index = [
        [vertex_of[vertex], [vertex_of[root] for root in roots]]
        for vertex, roots in evaluator.index.reverse_index().items()
    ]
    in_adjacency = [
        [vertex_of[target], [[vertex_of[source], label_of[label]] for source, label in keys]]
        for target, keys in evaluator.snapshot.in_order()
    ]

    state = {
        "format": _FORMAT_VERSION,
        "query": str(evaluator.analysis.expression),
        "window": {"size": evaluator.window.size, "slide": evaluator.window.slide},
        "result_semantics": evaluator.result_semantics,
        "current_time": evaluator.current_time,
        "last_expiry_boundary": evaluator._last_expiry_boundary,
        "stats": dict(evaluator.stats),
        "snapshot": edges,
        "trees": trees,
        "reverse_index": reverse_index,
        "in_adjacency": in_adjacency,
        "results": events,
        # Emission keys (one per result event) make the stream mergeable
        # with sibling root partitions; see repro.core.partition.
        "emission": {"seq": evaluator.emission_seq, "keys": evaluator.emission_keys.tolist()},
    }
    if evaluator.partition is not None:
        state["partition"] = {
            "index": evaluator.partition.index,
            "count": evaluator.partition.count,
        }
    return state


def restore_rapq(
    state: Dict,
    query: Optional[Union[str, QueryAnalysis]] = None,
) -> ColumnarRAPQEvaluator:
    """Rebuild an evaluator from a checkpoint produced by :func:`checkpoint_rapq`.

    The result is the columnar evaluator that
    :func:`~repro.core.engine.make_evaluator` builds for ``"arbitrary"``
    semantics, whichever evaluator wrote the checkpoint.  Vertex and label
    values are interned as the rows are read, and every recorded order is
    adopted verbatim, so the restored evaluator continues the stream
    exactly where the checkpointed one stopped.

    Args:
        state: the checkpoint dictionary.
        query: optionally a pre-compiled :class:`QueryAnalysis` (or expression
            string) to avoid recompiling; it must describe the same expression
            that was checkpointed.

    Raises:
        CheckpointError: the format is unknown, a section is missing or
            malformed, an order section contradicts the state it orders,
            or the supplied query does not match the checkpointed one.
    """
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint must decode to a dict of sections, got {type(state).__name__}"
        )
    if state.get("format") not in _SUPPORTED_FORMATS:
        raise CheckpointError(
            f"unsupported checkpoint format: {state.get('format')!r} "
            f"(this build reads formats {_SUPPORTED_FORMATS})"
        )
    try:
        return _restore_sections(state, query)
    except CheckpointError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        # A missing section, a malformed row or a contradictory order: report
        # *which* query and what was being decoded instead of the raw traceback.
        raise CheckpointError(
            f"corrupt checkpoint for query {state.get('query')!r}: "
            f"{type(exc).__name__} while restoring sections ({exc})"
        ) from exc


def _restore_sections(state: Dict, query) -> ColumnarRAPQEvaluator:
    """The body of :func:`restore_rapq` (section decoding, wrapped above)."""
    expression = state["query"]
    if query is None:
        query = expression
    elif isinstance(query, QueryAnalysis):
        if str(query.expression) != expression:
            raise CheckpointError(
                f"checkpoint was taken for query {expression!r}, got analysis for {query.expression}"
            )
    elif str(query) != expression:
        # A plain string must match after parsing/rendering; be permissive and
        # just recompile from the checkpointed expression.
        query = expression

    window = WindowSpec(size=state["window"]["size"], slide=state["window"]["slide"])
    partition = state.get("partition")
    if partition is not None:
        partition = (partition["index"], partition["count"])
    evaluator = ColumnarRAPQEvaluator(
        query,
        window,
        result_semantics=state.get("result_semantics", "implicit"),
        partition=partition,
    )
    vertex_id = evaluator._vertices.intern
    label_id = evaluator._intern_label

    snapshot = evaluator.snapshot
    for source, target, label, timestamp in state["snapshot"]:
        snapshot.insert(vertex_id(source), vertex_id(target), label_id(label), timestamp)
    # The rows come in adjacency order, not stream order: re-sort the FIFO
    # expiry queue, or its head would hide older edges from expiry.
    snapshot.rebuild_expiry_queue()

    index = evaluator.index
    for tree_state in state["trees"]:
        tree = index.get_or_create(vertex_id(tree_state["root"]))
        if tree_state.get("root_cycle_reported"):
            tree.root_cycle_reported = True
        # Nodes were recorded in the source tree's insertion order; adopt
        # them verbatim so node iteration (and with it expiry scans and
        # result emission order) reproduces exactly.
        tree.restore_nodes(
            [
                (
                    (vertex_id(node["vertex"]), node["state"]),
                    (vertex_id(node["parent_vertex"]), node["parent_state"]),
                    _decode_timestamp(node["timestamp"]),
                )
                for node in tree_state["nodes"]
            ]
        )
        # restore_nodes bypasses add_node, which keeps the bound that lets
        # expiry skip a tree; without this it would stay +inf.
        tree.recompute_min()

    # Adopt the recorded iteration orders verbatim: the tree reverse index
    # (which trees a tuple visits) and the snapshot's backward adjacency
    # (which parent reconnects an expired node).  Both refuse an order that
    # disagrees with the trees and edges restored above.
    index.restore_reverse_index(
        [(vertex_id(vertex), [vertex_id(root) for root in roots]) for vertex, roots in state["reverse_index"]]
    )
    snapshot.restore_in_order(
        [
            (vertex_id(target), [(vertex_id(source), label_id(label)) for source, label in keys])
            for target, keys in state["in_adjacency"]
        ]
    )

    rows = state["results"]
    evaluator.results = ResultStream.from_columns(
        array("q", [row["timestamp"] for row in rows]),
        [row["source"] for row in rows],
        [row["target"] for row in rows],
        bytearray(1 if row["positive"] else 0 for row in rows),
    )

    emission = state.get("emission")
    if emission is not None:
        keys = array("q", emission["keys"])
        if len(keys) != len(rows):
            raise CheckpointError(
                f"corrupt checkpoint: {len(keys)} emission keys for {len(rows)} result events"
            )
        evaluator._emission_keys = keys
        evaluator._emission_seq = int(emission["seq"])
    else:
        # Pre-emission checkpoint: synthesize strictly increasing keys so
        # the recorded history order survives any later merge verbatim,
        # and resume the counter past them.
        evaluator._emission_keys = array("q", range(1, len(rows) + 1))
        evaluator._emission_seq = len(rows)

    evaluator._current_time = state.get("current_time")
    evaluator._last_expiry_boundary = state.get("last_expiry_boundary")
    evaluator.stats.update(state.get("stats", {}))
    return evaluator


def encode_rapq(evaluator: RAPQEvaluator) -> bytes:
    """Serialize one evaluator's complete state to a compact byte string.

    Bytes in, bytes out: the blob is UTF-8 JSON of :func:`checkpoint_rapq`,
    so it can travel over a process boundary (the runtime's worker protocol
    ships query registration and checkpoints this way), be written to disk,
    or be posted to an external store — no pickling of rich objects.
    """
    return canonical_bytes(checkpoint_rapq(evaluator))


def decode_state(blob: bytes, what: str = "checkpoint") -> Dict:
    """Decode a checkpoint byte blob back into its state dict.

    Raises:
        CheckpointError: the blob is not valid UTF-8 JSON; the message
            carries ``what`` plus the byte offset where decoding failed,
            so a truncated or torn blob is diagnosable at a glance.
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"corrupt {what}: not UTF-8 at byte {exc.start} of {len(blob)} ({exc.reason})"
        ) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt {what}: invalid JSON at offset {exc.pos} of {len(text)} "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def decode_rapq(
    blob: bytes, query: Optional[Union[str, QueryAnalysis]] = None
) -> ColumnarRAPQEvaluator:
    """Rebuild an evaluator from an :func:`encode_rapq` byte string.

    Raises:
        CheckpointError: the blob is truncated, not valid JSON, or decodes
            to a state dict with missing or malformed sections.
    """
    return restore_rapq(decode_state(blob, what="evaluator checkpoint"), query=query)


def canonical_bytes(state: Dict) -> bytes:
    """The canonical compact-JSON encoding of a checkpoint state dict.

    One encoding (no whitespace, UTF-8) shared by the worker protocol, the
    durability subsystem's files, and :func:`state_digest` — so byte sizes
    and digests computed anywhere agree.
    """
    return json.dumps(state, separators=(",", ":")).encode("utf-8")


def state_digest(state: Dict) -> str:
    """A short stable digest of a state dict (CRC32 of :func:`canonical_bytes`).

    Used by the durability manifest to detect a checkpoint file that was
    damaged between writing and recovery; CRC32 matches the WAL's per-record
    checksum strength (corruption detection, not authentication).
    """
    return f"{zlib.crc32(canonical_bytes(state)) & 0xFFFFFFFF:08x}"


def save_checkpoint(evaluator: RAPQEvaluator, path: Union[str, Path]) -> Path:
    """Write the evaluator's checkpoint to ``path`` as JSON; returns the path."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump(checkpoint_rapq(evaluator), handle)
    return path


def load_checkpoint(
    path: Union[str, Path], query: Optional[Union[str, QueryAnalysis]] = None
) -> ColumnarRAPQEvaluator:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: the file is truncated, not valid JSON, or holds a
            state dict with missing or malformed sections.
    """
    path = Path(path)
    with path.open("rb") as handle:
        return restore_rapq(decode_state(handle.read(), what=f"checkpoint file {path}"), query=query)
