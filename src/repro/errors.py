"""Exception types shared across the streaming RPQ library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "StreamOrderError",
    "ConfigError",
    "CheckpointError",
    "ConflictBudgetExceeded",
    "ReplicationError",
    "RuntimeStateError",
    "ShardWorkerError",
    "WALCorruptionError",
    "WorkerUnavailableError",
    "WireProtocolError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class StreamOrderError(ReproError, ValueError):
    """Raised when stream tuples violate the non-decreasing timestamp order."""


class ConfigError(ReproError, ValueError):
    """Raised when a configuration value is invalid.

    Raised at construction time (e.g. by
    :class:`~repro.runtime.RuntimeConfig`) so misconfigurations fail fast
    with a message listing the valid choices, instead of surfacing as a
    late ``KeyError`` deep inside the runtime.
    """


class CheckpointError(ReproError, ValueError):
    """Raised when a checkpoint blob cannot be decoded or restored.

    Loading a checkpoint crosses a trust boundary: the bytes may be
    truncated (a crash mid-write), corrupted, or produced by a different
    format version.  Every loader in :mod:`repro.core.checkpoint` and the
    durability subsystem reports such problems with this exception —
    carrying what was being decoded and where it went wrong — instead of
    leaking a raw ``KeyError`` / ``json.JSONDecodeError`` / ``struct.error``
    from deep inside the decoder.

    Subclasses :class:`ValueError` so callers that predate it keep working.
    """


class WALCorruptionError(CheckpointError):
    """Raised when a write-ahead-log segment holds an undecodable record.

    A truncated record at the *tail* of the last segment is the expected
    signature of a crash and is tolerated (replay simply stops there); a
    bad length prefix or CRC mismatch anywhere records should still be
    intact is real corruption and raised as this error, naming the segment
    file and byte offset.
    """


class WireProtocolError(ReproError, RuntimeError):
    """Raised when a runtime wire-protocol frame is malformed or unknown.

    The coordinator and its shard workers exchange only the typed frames
    defined in :mod:`repro.runtime.protocol`; anything else on the wire,
    including a ``BATCH`` payload whose columns or ids do not check out,
    is refused with this exception.
    """


class RuntimeStateError(ReproError, RuntimeError):
    """Raised when a runtime-service operation is invalid in its lifecycle state.

    Examples: ingesting into a :class:`~repro.runtime.StreamingQueryService`
    that has not been started, or starting a service twice.
    """


class ShardWorkerError(ReproError, RuntimeError):
    """Raised when a shard worker failed while processing its queue.

    The original exception raised on the worker thread is attached as
    ``__cause__`` and surfaced to the caller on the next interaction with
    the worker (submit, drain, stop or a control call).  The failure is
    sticky: the shard's engine may have missed tuples, so the worker stays
    poisoned and every later interaction re-raises.
    """

    def __init__(self, message: str, shard_id: int = -1) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class WorkerUnavailableError(ShardWorkerError):
    """Raised when a remote shard worker cannot be reached over its transport.

    The ``tcp`` backend raises it when dialing a worker address fails after
    the configured connect retries, when a connection drops mid-stream
    (torn frame, CRC mismatch, peer reset), or when a read stalls past the
    read timeout.  It subclasses :class:`ShardWorkerError`, so existing
    failure handling — the sticky-poisoning of the shard, re-raising on
    every later interaction, ``service.health()`` reporting — applies
    unchanged; the distinct type lets operators tell "the worker's engine
    raised" from "the worker's host went away" (the latter is recoverable
    by replaying the shard's WAL onto a fresh worker).
    """


class ReplicationError(ReproError, RuntimeError):
    """Raised when hot-standby replication cannot keep or use a standby.

    Covers both sides of the replication channel: the coordinator's
    :class:`~repro.runtime.replication.ReplicationManager` raises it when
    a standby cannot be armed, stops acknowledging shipped records, or a
    promotion cannot complete (the standby is dead, lags the promotion
    LSN, or rejects the unmute); the standby apply loop raises it when the
    replicated record stream arrives out of order (an LSN gap means
    records were lost or reordered, and applying past a gap would desync
    the replica — the session aborts instead).  A failed promotion never
    masks the original transport failure: the service re-raises the
    triggering :class:`WorkerUnavailableError` with this error attached as
    context, and cold WAL-replay recovery remains available.
    """


class ConflictBudgetExceeded(ReproError, RuntimeError):
    """Raised when RSPQ evaluation exceeds its node/work budget.

    RPQ evaluation under simple path semantics is NP-hard in general; on
    conflict-heavy inputs the spanning trees can grow exponentially.  The
    evaluator accepts a budget so that experiments (Table 4) can classify a
    query as "not successfully evaluated" instead of running forever.
    """

    def __init__(self, message: str, tree_root=None, nodes: int = 0) -> None:
        super().__init__(message)
        self.tree_root = tree_root
        self.nodes = nodes
