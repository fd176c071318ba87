"""Shard workers: each owns a private engine and speaks the wire protocol.

A shard worker is the unit of parallelism of the runtime.  It owns a
private :class:`~repro.core.engine.StreamingRPQEngine` (no state is shared
between shards, in the spirit of per-core silos in main-memory DBMSs) and
communicates with the coordinator *exclusively* through the typed frames
of :mod:`repro.runtime.protocol`:

* **batches** of streaming graph tuples, processed in stream order;
* **control frames** — registration, checkpointing, result fetches and
  metric reads, executed on the worker against its engine, serialized
  with the surrounding batches;
* **response frames** — replies, live result events and failure reports
  flowing back on one multiplexed queue.

Three cooperating pieces implement this:

* :class:`ShardEngineServer` — the backend-agnostic server side: decodes
  frames, executes them against the engine, encodes the results.
* :func:`serve_shard` — the worker loop, identical for every backend; it
  pulls request frames and pushes response frames.  One code path, two
  transports.
* :class:`ShardWorker` — the coordinator-side proxy: typed methods
  (``register_query``, ``fetch_results``, ``checkpoint_query``, ...) that
  frame requests, await replies and re-raise worker errors.  Transports
  subclass it: :class:`ThreadShardWorker` runs :func:`serve_shard` on a
  daemon thread over ``queue.Queue``; :class:`ProcessShardWorker` runs it
  in a child process over ``multiprocessing.Queue``, escaping the GIL for
  CPU-bound workloads; :class:`~repro.runtime.transport_tcp.TcpShardWorker`
  dials a remote ``repro worker --listen`` process and runs the same loop
  over CRC-checked socket frames — shards on other machines.

The bounded request queue provides backpressure: ``submit`` blocks once
the worker is ``queue_depth`` batches behind.

Because every frame payload is plain scalars/bytes, shard state is
explicitly serializable: the process backend boots its child from replayed
``REGISTER``/``RESTORE`` frames and ships final state back at ``STOP``, so
a stopped worker can still be inspected (and arbitrary-semantics queries
even restarted) from the coordinator.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from array import array
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.checkpoint import canonical_bytes, decode_rapq, encode_rapq
from ..core.columnar.batch import ColumnarBatch
from ..core.engine import StreamingRPQEngine
from ..core.results import ResultStream
from ..errors import RuntimeStateError, ShardWorkerError, WireProtocolError, WorkerUnavailableError
from ..graph.tuples import StreamingGraphTuple, Vertex
from ..graph.window import WindowSpec
from ..metrics.collectors import ThroughputMeter
from . import protocol
from .config import RuntimeConfig
from .observability.logs import configure_logging, get_logger
from .observability.registry import Histogram
from .observability.tracing import Tracer, parse_context

__all__ = [
    "ShardEngineServer",
    "ShardWorker",
    "ThreadShardWorker",
    "ProcessShardWorker",
    "WORKER_BACKENDS",
    "create_worker",
    "serve_shard",
]

#: Callback signature for live results: (query, source, target, timestamp).
ResultCallback = Callable[[str, Vertex, Vertex, int], None]

#: Seconds between liveness checks while awaiting a reply.
_REPLY_POLL_SECONDS = 1.0

#: Batches whose worker-CPU time exceeds this many seconds draw a WARNING
#: log record (rate-limited by :data:`SLOW_BATCH_WARN_INTERVAL`).
SLOW_BATCH_SECONDS = 1.0

#: Minimum wall-clock seconds between two slow-batch warnings per shard,
#: so a persistently slow shard warns periodically instead of flooding.
SLOW_BATCH_WARN_INTERVAL = 10.0

_LOG = get_logger("runtime.worker")


def _named_payload(payload) -> Tuple[str, Optional[str]]:
    """Split a name-addressed control payload into ``(name, operation_id)``.

    Older coordinators send the bare query name; newer ones may send a
    ``(name, operation_id)`` pair so worker-side log records share the
    coordinator's correlation ID.  Both decode here (version tolerance).
    """
    if isinstance(payload, tuple):
        return payload[0], (payload[1] if len(payload) > 1 else None)
    return payload, None


# --------------------------------------------------------------------- #
# Server side (runs wherever the engine lives)
# --------------------------------------------------------------------- #


class ShardEngineServer:
    """Executes protocol frames against a private engine.

    This is the *server* half of the worker protocol, shared verbatim by
    every backend: the threading transport runs it on a daemon thread, the
    multiprocessing transport in a child process, and a stopped worker
    executes control frames against it inline for assembly and inspection.
    """

    def __init__(self, shard_id: int, window: WindowSpec, config: RuntimeConfig) -> None:
        self.shard_id = shard_id
        self.window = window
        self.config = config
        self.engine = StreamingRPQEngine(window)
        self.meter = ThroughputMeter()
        self.batches_processed = 0
        self.batch_seconds = Histogram()
        self._last_slow_warning = float("-inf")
        # Tracing rides the config, so spawned/remote workers inherit the
        # sample rate through the shipped config dict (HELLO handshake,
        # _process_worker_main) with no extra plumbing.  The worker-side
        # tracer never flips coins — it only *continues* traces whose
        # context arrived on a frame — so ``sample_rate`` here merely
        # arms the buffer.
        self.tracer = Tracer(config.trace_sample_rate, process=f"worker-{shard_id}")
        # End-to-end event latency: routing-time stamp (rides the trace
        # context) to batch completion at this worker.
        self.event_latency = Histogram()

    # Batches ----------------------------------------------------------- #

    def process_batch(self, batch, collect_results: bool, ctx=None) -> Optional[Tuple]:
        """Process one batch; optionally collect live results.

        ``batch`` is a :class:`~repro.core.columnar.ColumnarBatch`, or its
        packed wire form as a ``BATCH`` frame carries it; a malformed wire
        form is refused with :class:`~repro.errors.WireProtocolError`
        before anything is applied.

        Returns the ``EVENTS`` payload (``(query, source, target, tau)``
        records) when ``collect_results`` and the batch produced any, else
        ``None``.

        ``ctx`` is the optional frame-borne trace context of a *sampled*
        batch: when present, evaluation is wrapped in a child span parented
        on the coordinator's ingest span, and the context's routing-time
        stamp closes the end-to-end event latency into
        :attr:`event_latency`.  The context never reaches the payload
        bytes, so evaluation is bit-identical with or without it.
        """
        parsed = parse_context(ctx)
        span = None
        if parsed is not None:
            trace_id, parent_id, stamp_wall = parsed
            span = self.tracer.start_span(
                "process_batch", trace_id=trace_id, parent_id=parent_id, shard=self.shard_id
            )
        # Busy time is *CPU* time of this worker's thread, not wall clock:
        # on a host with fewer cores than busy shards, wall clock charges
        # each batch for time other workers held the GIL/CPU, which would
        # make per-shard load (and the rebalancer's view of it) look worse
        # the more balanced the service is.
        started = time.thread_time()
        if not isinstance(batch, ColumnarBatch):
            batch = ColumnarBatch.from_wire(batch)
        count = len(batch)
        produced = self.engine.process_batch(batch)
        events = produced if collect_results and produced else None
        elapsed = time.thread_time() - started
        self.meter.record_batch(count, elapsed)
        self.batch_seconds.observe(elapsed)
        self.batches_processed += 1
        if span is not None:
            # Event latency is wall clock across processes: the routing
            # stamp was taken by the coordinator, so the measurement is as
            # good as the hosts' clock alignment (exact in-process).
            self.event_latency.observe(max(time.time() - stamp_wall, 0.0))
            self.tracer.finish(span, tuples=count, events=len(events) if events else 0)
        if elapsed >= SLOW_BATCH_SECONDS:
            now = time.monotonic()
            if now - self._last_slow_warning >= SLOW_BATCH_WARN_INTERVAL:
                self._last_slow_warning = now
                _LOG.warning(
                    "slow batch: %d tuples took %.3fs of worker CPU (threshold %.2fs)",
                    count,
                    elapsed,
                    SLOW_BATCH_SECONDS,
                    extra={"shard": self.shard_id},
                )
        return protocol.encode_events(events) if events else None

    # Control frames ---------------------------------------------------- #

    def _log_op(self, op: str, name: str, operation_id: Optional[str]) -> None:
        """INFO-log one topology-changing control op, carrying the operation ID."""
        extra: Dict[str, object] = {"shard": self.shard_id}
        if operation_id is not None:
            extra["operation_id"] = operation_id
        _LOG.info("%s %r on shard %d", op.lower(), name, self.shard_id, extra=extra)

    def execute(self, op: str, payload):
        """Execute one control op and return its reply payload.

        Payload shapes are version-tolerant on the coordinator-to-worker
        direction: ``REGISTER``/``RESTORE`` accept an optional trailing
        operation-ID element and ``DEREGISTER``/``MIGRATE`` accept either
        a bare name or a ``(name, operation_id)`` pair (see
        :mod:`repro.runtime.protocol`).
        """
        if op == protocol.REGISTER:
            name, expression, semantics, max_nodes_per_tree, partition = payload[:5]
            op_id = payload[5] if len(payload) > 5 else None
            self._log_op(op, name, op_id)
            self.engine.register(name, expression, semantics, max_nodes_per_tree, partition)
            return None
        if op == protocol.RESTORE:
            name, semantics, blob = payload[:3]
            op_id = payload[3] if len(payload) > 3 else None
            self._log_op(op, name, op_id)
            self.engine.register_evaluator(name, decode_rapq(blob), semantics)
            return None
        if op == protocol.DEREGISTER:
            name, op_id = _named_payload(payload)
            self._log_op(op, name, op_id)
            self.engine.deregister(name)
            return None
        if op == protocol.RESULTS:
            return self.engine.query(payload).results.to_wire()
        if op == protocol.PARTITION_RESULTS:
            registered = self.engine.query(payload)
            keys = getattr(registered.evaluator, "emission_keys", None)
            if keys is None:
                raise RuntimeStateError(
                    f"query {payload!r} on shard {self.shard_id} has no emission keys "
                    f"({registered.semantics!r} semantics); only RAPQ evaluators "
                    f"produce partition-mergeable streams"
                )
            return (registered.results.to_wire(), keys.tobytes())
        if op == protocol.CHECKPOINT:
            # Bare name, or ``(name, trace_ctx)`` from a tracing coordinator.
            name, ctx = payload if isinstance(payload, tuple) else (payload, None)
            return self._traced("checkpoint", ctx, lambda: encode_rapq(self.engine.query(name).evaluator))
        if op == protocol.MIGRATE:
            name, op_id = _named_payload(payload)
            self._log_op(op, name, op_id)
            registered = self.engine.query(name)
            if registered.semantics != "arbitrary":
                # The same serialization restriction that stops a process
                # worker holding RSPQ state from restarting: positional node
                # identity cannot cross a shard boundary.
                raise RuntimeStateError(
                    f"query {name!r} cannot migrate off shard {self.shard_id}: queries "
                    f"with non-'arbitrary' semantics ({registered.semantics!r}) hold "
                    f"evaluator state that cannot be shipped between shards"
                )
            partition = getattr(registered.evaluator, "partition", None)
            wire_partition = None if partition is None else partition.to_wire()
            return (registered.semantics, wire_partition, encode_rapq(registered.evaluator))
        if op == protocol.SUMMARY:
            return self.engine.summary()
        if op == protocol.METRICS:
            return self.metrics()
        if op == protocol.DRAIN:
            # The reply itself is the barrier; the payload (historically
            # always ``None``) may carry a trace context, recording the
            # barrier as a span of the sampled trace.
            return self._traced("drain", payload, lambda: None)
        raise WireProtocolError(f"unknown control op {op!r}")

    def _traced(self, name: str, ctx, fn):
        """Run ``fn`` inside a child span when ``ctx`` is a trace context."""
        parsed = parse_context(ctx)
        if parsed is None:
            return fn()
        trace_id, parent_id, _ = parsed
        span = self.tracer.start_span(name, trace_id=trace_id, parent_id=parent_id, shard=self.shard_id)
        try:
            return fn()
        finally:
            self.tracer.finish(span)

    def metrics(self) -> Dict[str, object]:
        """Processing counters and per-query statistics of this shard.

        The reply is a plain dict riding the typed ``METRICS`` frame, so
        both backends export identical numbers.  Alongside the original
        scalar counters it carries the batch-latency and end-to-end
        event-latency histogram states (adoptable via
        :meth:`.observability.Histogram.load_state`), the tracer's drained
        span buffer (``"spans"``, only when non-empty) and a ``queries``
        sub-dict with per-query tuple/result counters, window-expiry
        totals and Δ-index sizes — consumers use ``.get()`` so either
        side may be older (version tolerance).
        """
        stats: Dict[str, object] = {
            "tuples": float(self.meter.tuples),
            "batches": float(self.batches_processed),
            "busy_seconds": self.meter.elapsed_seconds,
            "batch_seconds": self.batch_seconds.state(),
            "event_latency": self.event_latency.state(),
        }
        spans = self.tracer.drain()
        if spans:
            # Buffered spans ride the existing METRICS snapshot to the
            # coordinator (drained: each span ships exactly once).
            stats["spans"] = spans
        if self.meter.elapsed_seconds > 0:
            stats["throughput_eps"] = self.meter.edges_per_second()
        queries: Dict[str, Dict[str, float]] = {}
        for registered in self.engine.queries():
            evaluator_stats = dict(getattr(registered.evaluator, "stats", {}))
            index = registered.evaluator.index_size()
            queries[registered.name] = {
                "tuples_processed": float(evaluator_stats.get("tuples_processed", 0.0)),
                "events": float(len(registered.results)),
                "index_trees": float(index.get("trees", 0)),
                "index_nodes": float(index.get("nodes", 0)),
                "expiry_seconds": float(evaluator_stats.get("expiry_seconds", 0.0)),
                "expiry_runs": float(evaluator_stats.get("expiry_runs", 0.0)),
            }
        stats["queries"] = queries
        return stats

    # Replication (muted standby apply) --------------------------------- #

    def apply_replica_records(self, records, ctx=None) -> None:
        """Apply a run of replicated WAL records into this engine, muted.

        ``ctx`` is the optional trace context that rode the ``REPLICATE``
        frame: when present the apply run is recorded as a child span, so
        a sampled tuple's trace extends from the coordinator through the
        primary *into the standby* — after a promotion the standby ships
        those spans back via ``METRICS`` like any worker, which is what
        makes a failover trace connected end to end.

        This is the *standby* half of hot-standby replication
        (:mod:`repro.runtime.replication`): each record is the
        coordinator's WAL form ``(record_type, data)`` — tuple records
        carry the tuple's wire form, topology records the same payloads
        the WAL logs — and applying them maintains exactly the engine
        state the primary built from the same stream.  Results are
        *suppressed* (``collect_results=False``): the replica's evaluators
        accumulate their result streams internally, so a later promotion
        can serve ``RESULTS`` fetches bit-identically, but no ``EVENTS``
        frames are produced while the shard is a standby.  Unmuting
        happens at promotion: the serve loop takes over from the exact
        LSN the apply loop reached, so live emission resumes with the
        first post-promotion batch.

        Consecutive tuple records are batched into one
        :class:`~repro.core.columnar.ColumnarBatch` and one engine pass —
        the same call the primary's ``BATCH`` frames reach, so a standby
        keeps up with its primary; topology records are barriers
        (execution order), exactly as WAL replay orders them.
        """
        from .durability import wal as wal_mod

        return self._traced(
            "replicate_apply", ctx, lambda: self._apply_replica_records(records, wal_mod)
        )

    def _apply_replica_records(self, records, wal_mod) -> None:
        pending = []

        def flush() -> None:
            if pending:
                self.process_batch(ColumnarBatch.from_tuples(pending), False)
                pending.clear()

        for record_type, data in records:
            if record_type == wal_mod.TUPLE:
                pending.append(StreamingGraphTuple.from_wire(data))
                continue
            flush()
            if record_type == wal_mod.REGISTER:
                name, expression, semantics, max_nodes, partition = data
                self.execute(
                    protocol.REGISTER,
                    (name, expression, semantics, max_nodes, tuple(partition) if partition else None),
                )
            elif record_type == wal_mod.RESTORE:
                name, semantics, state = data
                self.execute(protocol.RESTORE, (name, semantics, canonical_bytes(state)))
            elif record_type == wal_mod.DEREGISTER:
                self.execute(protocol.DEREGISTER, data)
            else:
                raise WireProtocolError(f"unknown replicated record type {record_type!r}")
        flush()

    # State shipping (process transport) -------------------------------- #

    def export_bootstrap(self) -> Tuple:
        """Replayable ``(op, payload)`` frames reconstructing this server.

        Arbitrary-semantics evaluators travel as encoded state (full
        fidelity even when restored from a checkpoint); other evaluators
        are stateless here pre-start, so their original registration is
        replayed instead.
        """
        frames = []
        for registered in self.engine.queries():
            if registered.semantics == "arbitrary":
                frames.append(
                    (protocol.RESTORE, (registered.name, "arbitrary", encode_rapq(registered.evaluator)))
                )
            else:
                frames.append(
                    (
                        protocol.REGISTER,
                        (
                            registered.name,
                            str(registered.analysis.expression),
                            registered.semantics,
                            getattr(registered.evaluator, "max_nodes_per_tree", None),
                            None,  # partitioned evaluators are arbitrary, shipped via RESTORE
                        ),
                    )
                )
        return tuple(frames)

    def export_state(self) -> Tuple:
        """Final shard state shipped in the ``STOP`` reply.

        Arbitrary evaluators ship their full encoded state; others ship
        their result stream's packed columns only (their tree state cannot
        be serialized, see :mod:`repro.core.checkpoint`).
        """
        queries = []
        for registered in self.engine.queries():
            blob = events = None
            if registered.semantics == "arbitrary":
                blob = encode_rapq(registered.evaluator)
            else:
                events = registered.results.to_wire()
            queries.append(
                (
                    registered.name,
                    registered.semantics,
                    str(registered.analysis.expression),
                    blob,
                    events,
                )
            )
        return (self.metrics(), self.batches_processed, tuple(queries))

    def apply_state(self, state: Tuple) -> Tuple[str, ...]:
        """Adopt a peer server's :meth:`export_state`; returns degraded names.

        Degraded queries are non-arbitrary ones on a shard that processed
        any batch: their results are replayed faithfully, but the
        evaluator's window and tree state could not cross the wire, so
        they can be inspected but not resumed.  The batch count is a
        conservative proxy — a relevant tuple may have reached the
        evaluator without producing a result yet, and resuming from an
        emptied window would silently diverge from the engine.
        """
        metrics, batches, queries = state
        self.meter.tuples = int(metrics.get("tuples", 0))
        self.meter.elapsed_seconds = float(metrics.get("busy_seconds", 0.0))
        self.batches_processed = int(batches)
        histogram_state = metrics.get("batch_seconds")
        if histogram_state:
            self.batch_seconds.load_state(histogram_state)
        event_state = metrics.get("event_latency")
        if event_state:
            self.event_latency.load_state(event_state)
        spans = metrics.get("spans")
        if spans:
            # Final spans shipped at STOP re-buffer here, so the next
            # coordinator metrics read still harvests them.
            self.tracer.ingest(spans)
        self.engine = StreamingRPQEngine(self.window)
        degraded = []
        for name, semantics, expression, blob, events in queries:
            if blob is not None:
                self.engine.register_evaluator(name, decode_rapq(blob), semantics)
            else:
                registered = self.engine.register(name, expression, semantics)
                registered.evaluator.results = ResultStream.from_wire(events)
                if batches:
                    degraded.append(name)
        return tuple(degraded)


def serve_shard(
    server: ShardEngineServer,
    requests,
    responses,
    emit_results: bool,
    ship_state_on_stop: bool,
) -> None:
    """The worker loop — identical for every backend (one code path).

    Pulls request frames from ``requests`` and pushes response frames to
    ``responses`` until a ``STOP`` control frame arrives.  A batch failure
    poisons the shard: the failure is reported once via a ``FAILURE``
    frame and later batches are consumed but discarded, so producers
    blocked on the bounded request queue are always released.
    """
    failed = False
    while True:
        frame = requests.get()
        kind = frame[0]
        if kind == protocol.BATCH:
            if failed:
                continue
            try:
                # Optional third element: trace context of a sampled batch.
                events = server.process_batch(
                    frame[1], emit_results, frame[2] if len(frame) > 2 else None
                )
            except BaseException as exc:  # noqa: BLE001 - reported to coordinator
                failed = True
                responses.put((protocol.FAILURE, protocol.encode_exception(exc)))
            else:
                if events:
                    responses.put((protocol.EVENTS, events))
        elif kind == protocol.CONTROL:
            _, seq, op, payload = frame
            if op == protocol.STOP:
                final = server.export_state() if ship_state_on_stop else None
                responses.put((protocol.REPLY, seq, final))
                return
            try:
                result = server.execute(op, payload)
            except BaseException as exc:  # noqa: BLE001 - reported to coordinator
                responses.put((protocol.ERROR, seq, protocol.encode_exception(exc)))
            else:
                responses.put((protocol.REPLY, seq, result))
        else:  # pragma: no cover - coordinator never sends other kinds
            responses.put(
                (
                    protocol.FAILURE,
                    protocol.encode_exception(WireProtocolError(f"unknown frame kind {kind!r}")),
                )
            )
            failed = True


# --------------------------------------------------------------------- #
# Coordinator side (proxy + transports)
# --------------------------------------------------------------------- #


class ShardWorker:
    """Coordinator-side proxy for one shard, speaking the wire protocol.

    Lifecycle: ``start()`` -> any number of ``submit()`` / typed control
    calls / ``drain()`` -> ``stop()``.  Before ``start`` (and after
    ``stop``), control calls execute inline against a local
    :class:`ShardEngineServer` so a service can be assembled, checkpointed
    and inspected without running workers.

    Args:
        shard_id: position of this worker in the service's shard list.
        window: window specification shared by every query on the shard.
        config: runtime configuration (queue depth is read from it).
        on_result: optional live-result callback, invoked from the
            coordinator thread (while it pumps response frames) as
            ``on_result(query_name, source, target, timestamp)`` for every
            newly reported pair.
    """

    #: Backend name as accepted by :class:`~repro.runtime.RuntimeConfig`.
    backend = "abstract"

    def __init__(
        self,
        shard_id: int,
        window: WindowSpec,
        config: RuntimeConfig,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        self.shard_id = shard_id
        self.window = window
        self.config = config
        self.on_result = on_result
        self._server = ShardEngineServer(shard_id, window, config)
        self._requests = None
        self._responses = None
        self._seq = 0
        self._failure: Optional[BaseException] = None
        self._degraded: Tuple[str, ...] = ()

    # Transport hooks ---------------------------------------------------- #

    #: Whether the ``STOP`` reply must carry final shard state back (the
    #: transport's memory does not outlive the worker).
    ship_state_on_stop = False

    def _make_channels(self) -> Tuple:
        """Return the ``(requests, responses)`` queue pair."""
        raise NotImplementedError

    def _launch(self) -> None:
        """Start the transport running :func:`serve_shard`."""
        raise NotImplementedError

    def _transport_alive(self) -> bool:
        """Whether the transport is still able to produce replies."""
        raise NotImplementedError

    def _join(self) -> None:
        """Wait for the transport to terminate and release its resources."""
        raise NotImplementedError

    def transport_stats(self) -> Optional[Dict[str, object]]:
        """Connection-level counters of a networked transport, or ``None``.

        In-process transports have no connection to report on; the tcp
        backend returns address, connectedness, reconnect counts and frame
        byte/latency counters.  Safe from any thread (plain attribute
        reads) — the observability refresh calls it even for a worker
        whose engine-side ``metrics()`` would raise.
        """
        return None

    # Lifecycle ---------------------------------------------------------- #

    @property
    def running(self) -> bool:
        """Whether the transport is started and still able to serve."""
        return self._requests is not None and self._transport_alive()

    @property
    def failure(self) -> Optional[BaseException]:
        """The sticky failure that poisoned this shard, or ``None``.

        A plain attribute read — safe from any thread (the health endpoint
        reads it), unlike the control-frame methods which are
        coordinator-thread only.
        """
        return self._failure

    @property
    def engine(self) -> StreamingRPQEngine:
        """The local engine (authoritative only while the worker is stopped)."""
        return self._server.engine

    def start(self) -> None:
        """Create the channels and launch the transport's serve loop."""
        if self.running:
            raise RuntimeStateError(f"shard {self.shard_id} is already running")
        self._check_failure()  # a poisoned shard cannot be restarted
        if self._degraded:
            raise RuntimeStateError(
                f"shard {self.shard_id} cannot restart: queries {sorted(self._degraded)} use "
                f"non-'arbitrary' semantics whose engine state could not be shipped back from "
                f"the previous {self.backend!r} run"
            )
        self._requests, self._responses = self._make_channels()
        try:
            self._launch()
        except BaseException:
            self._requests = None
            self._responses = None
            raise

    def submit(self, batch: Sequence[StreamingGraphTuple], trace_ctx=None) -> None:
        """Enqueue one batch; blocks when the worker is too far behind.

        ``trace_ctx`` (when the batch carries a sampled tuple) rides the
        frame as an optional trailing element — beside the payload, never
        inside it, so the encoded batch bytes are identical either way.
        The frame tuple is built once: the tcp transport's partial-send
        resume keys on object identity.
        """
        self._pump()
        self._check_failure()
        if not self.running:
            self._check_transport_death()
            raise RuntimeStateError(f"shard {self.shard_id} is not running; call start() first")
        frame = (protocol.BATCH, ColumnarBatch.from_tuples(batch).to_wire())
        if trace_ctx is not None:
            frame += (trace_ctx,)
        # Bounded put with liveness polling: a worker that dies while its
        # queue is full must surface as an error, not wedge the coordinator.
        while True:
            try:
                self._requests.put(frame, timeout=_REPLY_POLL_SECONDS)
                return
            except queue.Full:
                self._pump()
                self._check_failure()
                self._check_transport_death()

    def request(self, op: str, payload=None):
        """Send one control frame and return its reply payload.

        Executed inline against the local server when the worker is not
        running; otherwise framed onto the request queue, serialized with
        in-flight batches.
        """
        self._check_failure()
        if not self.running:
            self._check_transport_death()
            return self._server.execute(op, payload)
        self._seq += 1
        seq = self._seq
        self._requests.put((protocol.CONTROL, seq, op, payload))
        result = self._await_reply(seq)
        self._check_failure()
        return result

    def replay_batch(self, batch: Sequence[StreamingGraphTuple]) -> None:
        """Feed one batch to the local engine of a *stopped* worker.

        The durability subsystem's recovery path uses this to replay a
        shard's WAL tail: the batch reaches the same
        :meth:`ShardEngineServer.process_batch` call the live serve loop
        uses, as one :class:`~repro.core.columnar.ColumnarBatch`, so
        replayed work is evaluated and metered exactly like live work.

        Raises:
            RuntimeStateError: the worker is running — live batches must
                go through :meth:`submit` so they serialize with control
                frames on the request queue.
        """
        if self.running:
            raise RuntimeStateError(
                f"shard {self.shard_id} is running; replay_batch is only for "
                f"stopped workers (recovery replay) — use submit() instead"
            )
        self._check_failure()
        self._server.process_batch(ColumnarBatch.from_tuples(batch), False)

    def drain(self, trace_ctx=None) -> None:
        """Block until every batch submitted so far has been processed.

        The ``DRAIN`` payload (historically always ``None``) optionally
        carries a trace context so the barrier shows up as a span of the
        sampled trace.
        """
        self.request(protocol.DRAIN, trace_ctx)

    def stop(self) -> None:
        """Terminate the serve loop with ``STOP`` and adopt shipped state."""
        if self.running:
            self._seq += 1
            seq = self._seq
            self._requests.put((protocol.CONTROL, seq, protocol.STOP, self.ship_state_on_stop))
            final = self._await_reply(seq)
            self._join()
            self._requests = None
            self._responses = None
            if final is not None:
                self._degraded = self._server.apply_state(final)
        else:
            try:
                self._check_transport_death()  # a crash must not pass as a clean stop
            finally:
                self._requests = None
                self._responses = None
        self._check_failure()

    def bootstrap_frames(self) -> Tuple:
        """Replayable ``(op, payload)`` frames reconstructing this worker's engine.

        Authoritative only while the worker is stopped (before ``start``
        or after ``stop``), when the local server holds the engine.  The
        tcp transport ships these in its ``HELLO`` handshake; the
        replication layer ships the same frames when arming a hot standby.
        """
        return self._server.export_bootstrap()

    # Typed control calls (the service speaks only these) ---------------- #

    def register_query(
        self,
        name: str,
        expression: str,
        semantics: str = "arbitrary",
        max_nodes_per_tree: Optional[int] = None,
        partition: Optional[Tuple[int, int]] = None,
        operation_id: Optional[str] = None,
    ) -> None:
        """Register a persistent query (or one root partition of one)."""
        payload: Tuple = (name, expression, semantics, max_nodes_per_tree, partition)
        if operation_id is not None:
            payload += (operation_id,)
        self.request(protocol.REGISTER, payload)

    def restore_query(
        self,
        name: str,
        blob: bytes,
        semantics: str = "arbitrary",
        operation_id: Optional[str] = None,
    ) -> None:
        """Adopt an :func:`~repro.core.checkpoint.encode_rapq` evaluator blob."""
        payload: Tuple = (name, semantics, blob)
        if operation_id is not None:
            payload += (operation_id,)
        self.request(protocol.RESTORE, payload)

    def deregister_query(self, name: str, operation_id: Optional[str] = None) -> None:
        """Remove a query (its accumulated results are discarded)."""
        self.request(protocol.DEREGISTER, name if operation_id is None else (name, operation_id))

    def fetch_results(self, name: str) -> ResultStream:
        """A consistent point-in-time copy of one query's result stream."""
        return ResultStream.from_wire(self.request(protocol.RESULTS, name))

    def fetch_partition_results(self, name: str) -> Tuple[ResultStream, array]:
        """One partition's ``(result stream, emission keys)`` pair.

        The keys are what :func:`~repro.runtime.merger.merge_partition_events`
        needs to reassemble sibling partitions' streams into the exact
        unpartitioned stream; fetching them with the events (one control
        frame) keeps the pair consistent under concurrent batches.
        """
        stream, key_bytes = self.request(protocol.PARTITION_RESULTS, name)
        keys = array("q")
        keys.frombytes(key_bytes)
        return ResultStream.from_wire(stream), keys

    def checkpoint_query(self, name: str, trace_ctx=None) -> bytes:
        """Encode one query's evaluator state (bytes out, ships anywhere)."""
        return self.request(protocol.CHECKPOINT, name if trace_ctx is None else (name, trace_ctx))

    def migrate_query(
        self, name: str, operation_id: Optional[str] = None
    ) -> Tuple[str, Optional[Tuple[int, int]], bytes]:
        """Extract one query's shippable form: ``(semantics, partition, blob)``.

        Unlike ``CHECKPOINT`` (whose non-arbitrary failure is a raw
        ``TypeError`` from deep inside the encoder), ``MIGRATE`` refuses
        unshippable semantics with a typed error, and its reply names the
        semantics and root partition authoritatively — the worker, not the
        coordinator's bookkeeping, knows what is registered.  The reply
        barrier drains this shard up to the extraction point; the query
        stays registered here until the coordinator confirms the blob
        landed on the target shard and sends ``DEREGISTER``.
        """
        semantics, partition, blob = self.request(
            protocol.MIGRATE, name if operation_id is None else (name, operation_id)
        )
        return semantics, partition, blob

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-query summary of this shard's engine."""
        return self.request(protocol.SUMMARY)

    def metrics(self) -> Dict[str, object]:
        """Processing counters and per-query statistics of this shard."""
        if self.running:
            return self.request(protocol.METRICS)
        return self._server.metrics()

    def queue_depth(self) -> int:
        """Best-effort depth (in batches) of the request queue.

        Reports ``0`` when the worker is not running or the platform's
        ``multiprocessing.Queue`` does not implement ``qsize`` (macOS).
        Safe to call from any thread — it never touches the reply queue.
        """
        if self._requests is None:
            return 0
        try:
            return self._requests.qsize()
        except NotImplementedError:  # pragma: no cover - platform-dependent
            return 0

    # Response pumping --------------------------------------------------- #

    def _await_reply(self, seq: int):
        """Block until the reply for ``seq`` arrives, dispatching events."""
        while True:
            try:
                frame = self._responses.get(timeout=_REPLY_POLL_SECONDS)
            except queue.Empty:
                if not self._transport_alive():
                    self._failure = self._failure or ShardWorkerError(
                        f"shard {self.shard_id} worker died without replying", self.shard_id
                    )
                    self._check_failure()
                continue
            kind = frame[0]
            if kind == protocol.EVENTS:
                self._dispatch_events(frame[1])
            elif kind == protocol.FAILURE:
                self._record_failure(frame[1])
            elif kind == protocol.ERROR:
                _, error_seq, wire = frame
                if error_seq == seq:
                    raise protocol.decode_exception(wire)
            else:  # REPLY
                _, reply_seq, payload = frame
                if reply_seq == seq:
                    return payload

    def _pump(self) -> None:
        """Drain pending response frames without blocking."""
        if self._responses is None:
            return
        while True:
            try:
                frame = self._responses.get_nowait()
            except queue.Empty:
                return
            kind = frame[0]
            if kind == protocol.EVENTS:
                self._dispatch_events(frame[1])
            elif kind == protocol.FAILURE:
                self._record_failure(frame[1])
            # stray REPLY/ERROR frames cannot occur: control calls always
            # consume their reply before the coordinator continues

    def _dispatch_events(self, payload) -> None:
        if self.on_result is None:
            return
        for name, source, target, timestamp in protocol.decode_events(payload):
            self.on_result(name, source, target, timestamp)

    def _record_failure(self, wire) -> None:
        if self._failure is None:
            self._failure = protocol.decode_exception(wire)

    def _check_transport_death(self) -> None:
        """Report a transport that died without a STOP handshake as a failure."""
        if self._requests is not None and not self._transport_alive():
            # Drain any queued FAILURE report first: it carries the precise
            # error (e.g. a WorkerUnavailableError naming the disconnect
            # reason) where the fallback below can only say "died".
            self._pump()
            if self._failure is None:
                self._failure = ShardWorkerError(
                    f"shard {self.shard_id} worker died unexpectedly", self.shard_id
                )
            self._check_failure()

    def _check_failure(self) -> None:
        # The failure is sticky: once a batch failed, the engine's window is
        # missing tuples and every result it would produce is suspect, so the
        # shard stays poisoned and every later interaction re-raises.
        if self._failure is not None:
            # A lost-connection failure keeps its distinct type so callers
            # (and health()) can tell "the worker's host went away" — which
            # WAL replay onto a fresh worker recovers — from an engine error.
            wrapper = (
                WorkerUnavailableError
                if isinstance(self._failure, WorkerUnavailableError)
                else ShardWorkerError
            )
            raise wrapper(
                f"shard {self.shard_id} failed while processing: {self._failure}", self.shard_id
            ) from self._failure


class ThreadShardWorker(ShardWorker):
    """Shard worker backed by a daemon ``threading.Thread``.

    The serve loop shares the proxy's :class:`ShardEngineServer` object, so
    post-stop state is naturally current and ``STOP`` ships no state.
    Python threads share the GIL: this backend wins by label filtering
    (each shard only touches tuples its queries can use), not CPU
    parallelism — use :class:`ProcessShardWorker` for that.
    """

    backend = "threading"
    ship_state_on_stop = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._thread: Optional[threading.Thread] = None

    def _make_channels(self):
        return queue.Queue(maxsize=self.config.queue_depth), queue.Queue()

    def _launch(self) -> None:
        self._thread = threading.Thread(
            target=serve_shard,
            args=(
                self._server,
                self._requests,
                self._responses,
                self.on_result is not None,
                self.ship_state_on_stop,
            ),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def _transport_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _join(self) -> None:
        if self._thread is not None:
            self._thread.join()
        self._thread = None


def _mp_context():
    """Fork when the platform offers it (cheap, no re-import); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _process_worker_main(
    shard_id: int,
    window_args: Tuple[int, int],
    config_state: Dict[str, object],
    bootstrap: Tuple,
    requests,
    responses,
    emit_results: bool,
) -> None:
    """Child-process entry point: rebuild the server, replay, serve.

    Spawned children start with fresh logging state, so the runtime log
    configuration is re-applied here from the shipped config (forked
    children inherit the parent's handlers and simply reconfigure to the
    same settings).
    """
    config = RuntimeConfig.from_dict(config_state)
    configure_logging(config.log_level, config.log_format)
    server = ShardEngineServer(
        shard_id, WindowSpec(size=window_args[0], slide=window_args[1]), config
    )
    for op, payload in bootstrap:
        server.execute(op, payload)
    serve_shard(server, requests, responses, emit_results, ship_state_on_stop=True)


class ProcessShardWorker(ShardWorker):
    """Shard worker backed by a ``multiprocessing.Process`` — escapes the GIL.

    The child is bootstrapped from replayed ``REGISTER``/``RESTORE`` frames
    (shard state is explicitly serializable), and ``STOP`` ships the final
    state back so a stopped worker remains inspectable — and, for
    arbitrary-semantics queries, restartable — at the coordinator.  Result
    streams, metrics and checkpoints all travel the same typed frames as
    the threading backend; only the queue implementation differs.
    """

    backend = "multiprocessing"
    ship_state_on_stop = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ctx = _mp_context()
        self._process: Optional[multiprocessing.process.BaseProcess] = None

    def _make_channels(self):
        return self._ctx.Queue(maxsize=self.config.queue_depth), self._ctx.Queue()

    def _launch(self) -> None:
        self._process = self._ctx.Process(
            target=_process_worker_main,
            args=(
                self.shard_id,
                (self.window.size, self.window.slide),
                self.config.to_dict(),
                self._server.export_bootstrap(),
                self._requests,
                self._responses,
                self.on_result is not None,
            ),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._process.start()

    def _transport_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def _join(self) -> None:
        if self._process is not None:
            self._process.join()
            for channel in (self._requests, self._responses):
                channel.close()
                channel.join_thread()
        self._process = None


#: Registry of concurrency backends, keyed by ``RuntimeConfig.backend``.
WORKER_BACKENDS = {
    ThreadShardWorker.backend: ThreadShardWorker,
    ProcessShardWorker.backend: ProcessShardWorker,
}


def create_worker(
    shard_id: int,
    window: WindowSpec,
    config: RuntimeConfig,
    on_result: Optional[ResultCallback] = None,
) -> ShardWorker:
    """Build a shard worker using the backend named in ``config``."""
    if config.backend == "tcp" and config.backend not in WORKER_BACKENDS:
        # The tcp transport registers itself on import; import lazily so
        # this module stays socket-free for the in-process backends.
        from . import transport_tcp  # noqa: F401 - imported for registration

    try:
        backend = WORKER_BACKENDS[config.backend]
    except KeyError:
        raise ValueError(
            f"unknown worker backend {config.backend!r}; expected one of {sorted(WORKER_BACKENDS)}"
        ) from None
    return backend(shard_id, window, config, on_result=on_result)
