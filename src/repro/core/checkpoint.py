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
result stream.  Format-1 checkpoints (pre-ordering) still load, with
orders derived instead of reproduced.

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
#: that make restore order-exact; version-1 checkpoints still load.
_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)

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


def checkpoint_rapq(evaluator: RAPQEvaluator) -> Dict:
    """Capture the complete state of an RAPQ evaluator as a JSON-compatible dict.

    Evaluators that maintain a non-scalar internal representation (the
    columnar evaluator's interned state) expose ``checkpoint_state()``,
    which resolves into this same format-2 dict; dispatching on it here
    keeps every producer of checkpoints (durability, migration, the CLI)
    format-agnostic.
    """
    state_fn = getattr(evaluator, "checkpoint_state", None)
    if state_fn is not None:
        return state_fn()
    edges = []
    for edge in evaluator.snapshot.edges():
        _check_vertex(edge.source)
        _check_vertex(edge.target)
        edges.append([edge.source, edge.target, edge.label, edge.timestamp])

    trees = []
    for tree in evaluator.index.trees():
        nodes = []
        for node in tree.nodes():
            if node.parent is None:
                continue  # the root is implied by the tree entry
            nodes.append(
                {
                    "vertex": node.vertex,
                    "state": node.state,
                    "parent_vertex": node.parent[0],
                    "parent_state": node.parent[1],
                    "timestamp": _encode_timestamp(node.timestamp),
                }
            )
        trees.append(
            {
                "root": tree.root_vertex,
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
    reverse_index = [[vertex, list(roots)] for vertex, roots in evaluator.index.reverse_index().items()]
    in_adjacency = [
        [target, [[source, label] for source, label in keys]]
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
) -> RAPQEvaluator:
    """Rebuild an RAPQ evaluator from a checkpoint produced by :func:`checkpoint_rapq`.

    Args:
        state: the checkpoint dictionary.
        query: optionally a pre-compiled :class:`QueryAnalysis` (or expression
            string) to avoid recompiling; it must describe the same expression
            that was checkpointed.

    Raises:
        ValueError: if the checkpoint format is unknown or the supplied query
            does not match the checkpointed one.
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
    order_exact = state["format"] >= 2
    try:
        return _restore_rapq_checked(state, query, order_exact)
    except (KeyError, TypeError, IndexError) as exc:
        # A missing section or a malformed row inside one: report *which*
        # query and what was being decoded instead of the raw traceback.
        raise CheckpointError(
            f"corrupt checkpoint for query {state.get('query')!r}: "
            f"{type(exc).__name__} while restoring sections ({exc})"
        ) from exc


def _restore_rapq_checked(state: Dict, query, order_exact: bool) -> RAPQEvaluator:
    """The body of :func:`restore_rapq` (section decoding, wrapped above)."""
    expression = state["query"]
    if query is None:
        query = expression
    elif isinstance(query, QueryAnalysis):
        if str(query.expression) != expression:
            raise ValueError(
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
    evaluator = RAPQEvaluator(
        query,
        window,
        result_semantics=state.get("result_semantics", "implicit"),
        partition=partition,
    )

    for source, target, label, timestamp in state["snapshot"]:
        evaluator.snapshot.insert(source, target, label, timestamp)

    for tree_state in state["trees"]:
        tree = evaluator.index.get_or_create(tree_state["root"])
        if tree_state.get("root_cycle_reported"):
            tree.root_cycle_reported = True
        if order_exact:
            # Nodes were recorded in the source tree's insertion order;
            # adopt them verbatim so node iteration (and with it expiry
            # scans and result emission order) reproduces exactly.
            tree.restore_nodes(
                [
                    (
                        (node["vertex"], node["state"]),
                        (node["parent_vertex"], node["parent_state"]),
                        _decode_timestamp(node["timestamp"]),
                    )
                    for node in tree_state["nodes"]
                ]
            )
            continue
        # Format 1: parents must exist before children; insert in passes
        # until stable (node order is not reproduced exactly).
        pending = list(tree_state["nodes"])
        while pending:
            progressed = False
            remaining = []
            for node in pending:
                parent_key = (node["parent_vertex"], node["parent_state"])
                if parent_key in tree:
                    tree.add_node(
                        (node["vertex"], node["state"]),
                        parent=parent_key,
                        timestamp=_decode_timestamp(node["timestamp"]),
                    )
                    evaluator.index.register_node(tree, node["vertex"])
                    progressed = True
                else:
                    remaining.append(node)
            if not progressed:
                raise ValueError(
                    f"corrupt checkpoint: {len(remaining)} tree nodes have no reachable parent "
                    f"in the tree rooted at {tree_state['root']!r}"
                )
            pending = remaining

    if order_exact:
        # Adopt the recorded iteration orders verbatim: the tree reverse
        # index (which trees a tuple visits, in order) and the snapshot's
        # backward adjacency (which parent reconnects an expired node).
        reverse_index = {}
        for vertex, roots in state["reverse_index"]:
            for root in roots:
                if evaluator.index.get(root) is None:
                    raise ValueError(f"corrupt checkpoint: reverse index names unknown tree root {root!r}")
            reverse_index[vertex] = list(roots)
        evaluator.index.restore_reverse_index(reverse_index)
        evaluator.snapshot.restore_in_order(
            [(target, [(source, label) for source, label in keys]) for target, keys in state["in_adjacency"]]
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
            raise ValueError(f"corrupt checkpoint: {len(keys)} emission keys for {len(rows)} result events")
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


def decode_rapq(blob: bytes, query: Optional[Union[str, QueryAnalysis]] = None) -> RAPQEvaluator:
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
) -> RAPQEvaluator:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: the file is truncated, not valid JSON, or holds a
            state dict with missing or malformed sections.
    """
    path = Path(path)
    with path.open("rb") as handle:
        return restore_rapq(decode_state(handle.read(), what=f"checkpoint file {path}"), query=query)
