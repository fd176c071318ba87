"""Typed wire protocol between the runtime coordinator and shard workers.

Every interaction of :class:`~repro.runtime.service.StreamingQueryService`
with a :class:`~repro.runtime.worker.ShardWorker` travels as one of the
frames defined here — plain tuples of scalars, strings and ``bytes``, never
closures or rich engine objects.  Every concurrency backend speaks exactly
this protocol; only the transport differs (direct calls for the
``threading`` backend, ``multiprocessing.Queue`` for ``multiprocessing``,
length-prefixed CRC-checked socket frames for ``tcp`` —
:mod:`repro.runtime.transport_tcp`), so shard state is serializable by
construction and a worker can live in another process
or on another machine.

Request frames (coordinator -> worker)
======================================

Two shapes travel on the request queue:

``(BATCH, payload[, trace_ctx])``
    One batch of streaming graph tuples.  Fire-and-forget: no reply; the
    bounded request queue provides backpressure.  The optional trailing
    ``trace_ctx`` element (see **Trace-context extensions** below) is
    present only when the batch carries a sampled tuple; workers that do
    not know it ignore the tail.  ``payload`` is the packed form produced
    by :meth:`~repro.core.columnar.ColumnarBatch.to_wire`: a leading
    ``"COL1"`` marker, the tuple count, five parallel ``array`` buffers
    (``bytes``) and per-batch vertex/label tables — plain scalars/bytes,
    one object per *column* instead of one per tuple.  The worker decodes
    it with :meth:`~repro.core.columnar.ColumnarBatch.from_wire`, which
    refuses a malformed payload with
    :class:`~repro.errors.WireProtocolError` before any tuple is applied.

``(CONTROL, seq, op, payload)``
    A control call with a monotonically increasing ``seq``; the worker
    answers with a ``REPLY`` or ``ERROR`` frame carrying the same ``seq``.
    Control ops and their payloads:

    ============== ==================================================== ======================
    op             payload                                              reply payload
    ============== ==================================================== ======================
    ``REGISTER``   ``(name, expression, semantics,
                   max_nodes_per_tree, partition)`` — ``partition`` is
                   ``None`` or the ``(index, count)`` root partition
                   this engine-level query implements                   ``None``
    ``RESTORE``    ``(name, semantics, blob)`` — ``blob`` is an
                   :func:`~repro.core.checkpoint.encode_rapq` byte
                   string (evaluator state, bytes in / bytes out;
                   partition membership rides inside the blob)          ``None``
    ``DEREGISTER`` ``name``                                             ``None``
    ``RESULTS``    ``name``                                             the stream's packed
                                                                        columns ``(timestamps,
                                                                        sources, targets,
                                                                        signs)``
    ``PRESULTS``   ``name``                                             ``(columns, keys)`` —
                                                                        the packed columns
                                                                        plus the ``array('q')``
                                                                        bytes of the parallel
                                                                        emission keys needed
                                                                        to merge partition
                                                                        streams exactly
    ``CHECKPOINT`` ``name``                                             ``bytes`` (encoded
                                                                        evaluator)
    ``MIGRATE``    ``name``                                             ``(semantics,
                                                                        partition, blob)`` —
                                                                        the query's shippable
                                                                        form
    ``SUMMARY``    ``None``                                             per-query summary dict
    ``METRICS``    ``None``                                             shard counters dict
    ``DRAIN``      ``None``                                             ``None`` (barrier: the
                                                                        reply proves every
                                                                        earlier batch was
                                                                        processed)
    ``STOP``       ``ship_state`` (bool)                                final shard state
                                                                        (see below) or ``None``
    ============== ==================================================== ======================

    ``MIGRATE`` is the source half of the live-migration exchange: it
    drains the shard up to the frame (control frames are serialized with
    batches), then returns the query's complete evaluator state as an
    order-exact :func:`~repro.core.checkpoint.encode_rapq` blob *without*
    removing the query.  The coordinator ships the blob to the target
    shard in a ``RESTORE`` frame and only then sends ``DEREGISTER`` to the
    source, so a mid-flight failure leaves the query live where it was.
    Only ``"arbitrary"``-semantics evaluators are migratable (the same
    serialization restriction that stops a ``multiprocessing`` worker
    holding RSPQ state from restarting).  The ``partition`` element of the
    reply names the root partition the evaluator implements (``None`` for
    whole queries): live whale-splitting migrates the whole evaluator out,
    splits the blob with :func:`~repro.core.partition.partition_checkpoint`
    and restores each piece on its own shard, and ``PRESULTS`` is how the
    coordinator later fetches each piece's stream *with* the emission keys
    that make the k-way partition merge exact.

    **Operation-ID extensions (version tolerant).**  Multi-frame
    operations (migrate / split / recover) are correlated across the
    coordinator's and the workers' structured logs by an operation ID
    (:func:`~repro.runtime.observability.new_operation_id`).  The ID rides
    the existing frames as optional trailing payload elements rather than
    new ops: ``REGISTER`` and ``RESTORE`` accept one extra trailing
    element (``(name, ..., partition, operation_id)`` /
    ``(name, semantics, blob, operation_id)``), and the name-addressed
    ``DEREGISTER`` / ``MIGRATE`` accept ``(name, operation_id)`` in place
    of the bare name.  Workers unpack by position/shape and ignore what
    they do not know (``payload[:5]`` + optional tail), so an old
    coordinator can drive a new worker and vice versa.  The ``METRICS``
    reply is extended the same way: new keys (``batch_seconds`` histogram
    state, per-``queries`` sub-dicts, ``event_latency`` histogram state,
    a drained ``spans`` list) are added beside the original counters and
    consumers read them with ``.get()``.

    **Trace-context extensions (version tolerant).**  The operation-ID
    slot generalizes to a *trace context* on the data-path frames: a
    ``(trace_id, parent_span_id, stamp_wall)`` triple minted by the
    coordinator's head sampler
    (:mod:`repro.runtime.observability.tracing`).  It rides as

    * an optional third ``BATCH`` element (``(BATCH, payload, ctx)``) —
      never inside the payload bytes, so sampling cannot perturb
      evaluation;
    * the ``DRAIN`` payload (previously always ``None``);
    * a ``(name, ctx)`` pair in place of the bare ``CHECKPOINT`` name;
    * an optional trailing element on the replication session's
      ``REPLICATE`` frame and an operation-id element on ``PROMOTE``
      (:mod:`repro.runtime.replication`).

    Workers receiving a context record their span into the same trace
    (``parent_span_id`` becomes the parent), and close the end-to-end
    event latency against ``stamp_wall`` (the routing-time stamp of the
    sampled tuple).  All slots are optional and shape-checked
    (:func:`~repro.runtime.observability.tracing.parse_context`), so
    mixed-version fleets interoperate.

    ``STOP`` terminates the worker loop after replying.  When
    ``ship_state`` is true (process transport, whose memory dies with the
    child) the reply carries the shard's final state
    ``(metrics, batches, queries)`` where each query entry is
    ``(name, semantics, expression, blob_or_None, columns_or_None)`` —
    arbitrary-semantics evaluators ship their full encoded state,
    others ship their result stream's packed columns only.

Response frames (worker -> coordinator)
=======================================

All responses are multiplexed onto one unbounded queue so their relative
order is preserved (two separate queues would not guarantee cross-queue
ordering under ``multiprocessing``):

``(REPLY, seq, payload)``
    Successful completion of the control call ``seq``.

``(ERROR, seq, exc_wire)``
    The control call ``seq`` raised; ``exc_wire`` is the
    :func:`encode_exception` form and is re-raised at the coordinator.
    Control errors do not poison the shard.

``(EVENTS, payload)``
    Newly reported results of one processed batch, ``payload`` a tuple of
    ``(query_name, source, target, timestamp)``.  Emitted only when the
    worker was created with a live-result callback; the coordinator pumps
    these opportunistically and invokes the callback on its own thread.

``(FAILURE, exc_wire)``
    Batch processing raised.  The failure is sticky — the shard's window
    is missing tuples, so the worker discards later batches (releasing
    backpressure) and the coordinator re-raises a
    :class:`~repro.errors.ShardWorkerError` at every subsequent
    interaction.

Encodings
=========

:func:`encode_tuple` / :func:`decode_tuple` are the per-tuple wire form
``(tau, u, v, l, op)`` of :class:`~repro.graph.tuples.StreamingGraphTuple`
that the write-ahead log and the replication stream record;
:func:`encode_events` / :func:`decode_events` carry the live
``(query, source, target, timestamp)`` records.  Result streams travel
as packed columns (:meth:`~repro.core.results.ResultStream.to_wire`):
integer columns as ``array`` bytes, the same way
:class:`~repro.core.columnar.ColumnarBatch` ships its columns.
Exceptions cross the wire as
``(type_name, message)`` via :func:`encode_exception` /
:func:`decode_exception`, reconstructed against the library's exception
registry (falling back to ``RuntimeError`` for unknown types).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .. import errors as _errors
from ..graph.tuples import StreamingGraphTuple

__all__ = [
    "BATCH",
    "CONTROL",
    "REGISTER",
    "RESTORE",
    "DEREGISTER",
    "RESULTS",
    "PARTITION_RESULTS",
    "CHECKPOINT",
    "MIGRATE",
    "SUMMARY",
    "METRICS",
    "DRAIN",
    "STOP",
    "REPLY",
    "ERROR",
    "EVENTS",
    "FAILURE",
    "CONTROL_OPS",
    "encode_tuple",
    "decode_tuple",
    "encode_events",
    "decode_events",
    "encode_exception",
    "decode_exception",
]

# --------------------------------------------------------------------- #
# Frame kinds (request queue)
# --------------------------------------------------------------------- #

#: Data frame: one packed columnar batch.  No reply.
BATCH = "BATCH"
#: Control frame ``(CONTROL, seq, op, payload)``; answered by seq.
CONTROL = "CTRL"

# Control ops ---------------------------------------------------------- #

REGISTER = "REGISTER"
RESTORE = "RESTORE"
DEREGISTER = "DEREGISTER"
RESULTS = "RESULTS"
PARTITION_RESULTS = "PRESULTS"
CHECKPOINT = "CHECKPOINT"
MIGRATE = "MIGRATE"
SUMMARY = "SUMMARY"
METRICS = "METRICS"
DRAIN = "DRAIN"
STOP = "STOP"

#: Every control op a worker must implement.
CONTROL_OPS = (
    REGISTER,
    RESTORE,
    DEREGISTER,
    RESULTS,
    PARTITION_RESULTS,
    CHECKPOINT,
    MIGRATE,
    SUMMARY,
    METRICS,
    DRAIN,
    STOP,
)

# --------------------------------------------------------------------- #
# Frame kinds (response queue)
# --------------------------------------------------------------------- #

REPLY = "REPLY"
ERROR = "ERROR"
EVENTS = "EVENTS"
FAILURE = "FAILURE"

# --------------------------------------------------------------------- #
# Payload encodings
# --------------------------------------------------------------------- #


def encode_tuple(tup: StreamingGraphTuple) -> Tuple:
    """Encode one tuple into its compact wire form ``(tau, u, v, l, op)``.

    The durability subsystem's write-ahead log and the replication
    stream record tuples in this form; replay rebuilds
    :class:`~repro.core.columnar.ColumnarBatch` batches from it.
    """
    return tup.to_wire()


def decode_tuple(wire: Tuple) -> StreamingGraphTuple:
    """Decode one tuple wire form (inverse of :func:`encode_tuple`)."""
    return StreamingGraphTuple.from_wire(wire)


def encode_events(events: Iterable[Tuple]) -> Tuple[Tuple, ...]:
    """Encode ``(query, source, target, timestamp)`` live-result records."""
    return tuple(events)


def decode_events(payload: Iterable[Tuple]) -> List[Tuple]:
    """Decode an ``EVENTS`` payload (inverse of :func:`encode_events`)."""
    return list(payload)


# Exception registry: library exceptions plus the builtins a worker can
# plausibly raise.  Reconstruction is by type name with a single message
# argument; unknown types degrade to RuntimeError.
_EXCEPTION_TYPES = {
    name: getattr(_errors, name)
    for name in _errors.__all__
    if isinstance(getattr(_errors, name), type)
}
_EXCEPTION_TYPES.update(
    {
        exc.__name__: exc
        for exc in (
            ValueError,
            KeyError,
            TypeError,
            RuntimeError,
            ArithmeticError,
            ZeroDivisionError,
            IndexError,
            AttributeError,
            NotImplementedError,
            OSError,
            MemoryError,
        )
    }
)


def encode_exception(exc: BaseException) -> Tuple[str, str]:
    """Encode an exception as ``(type_name, message)`` for the wire."""
    return (type(exc).__name__, str(exc))


def decode_exception(wire: Tuple[str, str]) -> BaseException:
    """Rebuild an exception from :func:`encode_exception` output.

    The reconstructed exception carries the original message; unknown
    types (or types whose constructor rejects a single message argument)
    come back as ``RuntimeError`` with the type name prefixed so no
    information is lost.
    """
    type_name, message = wire
    exc_type = _EXCEPTION_TYPES.get(type_name)
    if exc_type is not None:
        try:
            return exc_type(message)
        except Exception:  # pragma: no cover - exotic constructor signature
            pass
    return RuntimeError(f"{type_name}: {message}")
