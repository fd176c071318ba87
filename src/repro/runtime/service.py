"""The sharded streaming-query service facade.

:class:`StreamingQueryService` glues the runtime pieces together: a
:class:`~repro.runtime.router.StreamRouter` places queries on shards and
decides which shards must see each tuple, :class:`~repro.runtime.worker.ShardWorker`
instances evaluate their resident queries in parallel, and the
:mod:`~repro.runtime.merger` presents the per-shard outputs as one global
timestamp-ordered result stream.

Parallelism is per query by default — every query lives on one shard, fed
in stream order — and optionally *within* a query: a heavy query can be
registered with ``partitions=K`` (or split live with :meth:`split`) into
``K`` root-partition evaluators on distinct shards, whose streams the
coordinator merges back exactly.  Either way the service produces
*exactly* the results the single-threaded
:class:`~repro.core.engine.StreamingRPQEngine` would — the runtime changes
who does the work, never what is computed.

The service never shares Python objects with its workers: every
interaction (registration, batches, result fetches, checkpoints, metrics)
is a typed frame of :mod:`repro.runtime.protocol`, so the same code drives
the ``threading`` and ``multiprocessing`` backends.  Live results flow
back over the workers' response queues and the optional ``on_result``
callback is invoked on the coordinator thread while it pumps them.

With a ``wal_dir`` configured the service is additionally *durable*: the
coordinator write-ahead-logs every routed tuple and topology change (one
log per shard) and takes periodic incremental checkpoints through its
:class:`~repro.runtime.durability.manager.DurabilityManager`, so a
killed process can be rebuilt — bit-identically — by
:class:`~repro.runtime.durability.recovery.RecoveryManager`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..core.checkpoint import canonical_bytes, decode_state
from ..core.partition import partition_checkpoint
from ..core.results import ResultStream
from ..errors import ReplicationError, RuntimeStateError, WorkerUnavailableError
from ..graph.tuples import StreamingGraphTuple, Vertex
from ..graph.window import WindowSpec
from ..regex.analysis import QueryAnalysis, analyze
from . import protocol
from .config import RuntimeConfig
from .durability import wal as wal_mod
from .durability.manager import DurabilityManager
from .replication import ReplicationManager
from .merger import TaggedResultEvent, merge_partition_events, merge_result_events
from .observability.logs import get_logger, new_operation_id
from .observability.registry import MetricsRegistry, histogram_quantiles, merge_histogram_states
from .observability.server import ObservabilityServer
from .observability.tracing import Tracer
from .rebalancer import RebalancePlan, ShardLoad, SplitPlan, make_rebalance_policy
from .router import StreamRouter
from .worker import ResultCallback, ShardWorker, create_worker

__all__ = ["StreamingQueryService"]

_LOG = get_logger("runtime.service")

#: Seconds between worker-metric snapshot refreshes on the ingest path
#: (only while the observability server is enabled; each refresh costs one
#: ``METRICS`` control round-trip per shard, which is also a partial drain
#: barrier on that shard's request queue).
_METRICS_REFRESH_SECONDS = 2.0

#: Service checkpoint layout version.  Version 2 added per-partition query
#: entries (one entry per root partition, all sharing the query's name and
#: carrying a ``"partition"`` section inside their state); version-1
#: checkpoints still load.
_SERVICE_FORMAT = 2
_SUPPORTED_SERVICE_FORMATS = (1, 2)


def _member_name(base: str, index: int) -> str:
    """Internal engine-level name of one root partition of ``base``.

    The ``::`` separator is reserved (``register`` refuses base names
    containing it), so member names can never collide with user queries.
    """
    return f"{base}::p{index}"


class StreamingQueryService:
    """Multi-worker execution runtime for persistent RPQs.

    Example:
        >>> from repro import WindowSpec, sgt
        >>> from repro.runtime import RuntimeConfig, StreamingQueryService
        >>> service = StreamingQueryService(WindowSpec(size=10, slide=1),
        ...                                 RuntimeConfig(shards=2, batch_size=2))
        >>> _ = service.register("chains", "follows+")
        >>> with service:
        ...     service.ingest([sgt(1, "a", "b", "follows"),
        ...                     sgt(2, "b", "c", "follows")])
        ...     service.drain()
        ...     pairs = sorted(service.answer_pairs("chains"))
        >>> pairs
        [('a', 'b'), ('a', 'c'), ('b', 'c')]

    Args:
        window: sliding-window specification shared by all queries.
        config: runtime tunables; defaults to :class:`RuntimeConfig()`.
        on_result: optional live callback ``(query, source, target,
            timestamp)`` invoked on the coordinator thread — while it
            pumps worker response queues — for every newly reported pair.
    """

    def __init__(
        self,
        window: WindowSpec,
        config: Optional[RuntimeConfig] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        self.window = window
        self.config = config or RuntimeConfig()
        self._on_result = on_result
        # Observability: every service owns a metrics registry; the HTTP
        # exposition server only exists when config.metrics_port is set.
        self.metrics_registry = MetricsRegistry()
        self._build_metric_families()
        self._obs_server: Optional[ObservabilityServer] = None
        self._heartbeats: Dict[int, float] = {}
        self._last_metrics_refresh = float("-inf")
        # Tracing: the coordinator's tracer owns head sampling (workers
        # only continue contexts that arrive on frames) and merges spans
        # shipped back inside worker METRICS snapshots.  `_trace_pending`
        # maps shard -> (open ingest span, frame context) for the batch
        # currently buffering toward that shard.
        self.tracer = Tracer(self.config.trace_sample_rate, process="coordinator")
        self._trace_pending: Dict[int, Tuple[Dict, Tuple[str, str, float]]] = {}
        self._event_latency_states: Dict[int, Dict] = {}
        self.router = StreamRouter(self.config.shards, self.config.sharding)
        self.workers: List[ShardWorker] = [
            create_worker(shard, window, self.config, on_result=on_result)
            for shard in range(self.config.shards)
        ]
        self._pending: List[List[StreamingGraphTuple]] = [[] for _ in self.workers]
        self._semantics: Dict[str, str] = {}
        # Intra-query data parallelism: a partitioned query is represented
        # by K engine-level "member" evaluators (one root partition each),
        # routed under reserved internal names.  `_partitions` maps the
        # user-facing name to its member names in partition order;
        # `_member_base` is the reverse map.
        self._partitions: Dict[str, List[str]] = {}
        self._member_base: Dict[str, str] = {}
        self._running = False
        self._tuples_ingested = 0
        self._tuples_dropped = 0
        # Rebalancing: the policy proposes live migrations from per-label
        # routed-tuple counts (the observation window resets at every
        # rebalance decision); applied moves are kept for the summary.
        self._rebalancer = make_rebalance_policy(self.config.rebalance_policy)
        self._label_loads: Counter = Counter()
        self._tuples_since_rebalance = 0
        self._migrating: Optional[str] = None
        self.migrations: List[Dict[str, object]] = []
        self.splits: List[Dict[str, object]] = []
        # Durability: when the config names a wal_dir, every routed tuple
        # and topology change is write-ahead-logged and checkpoints land
        # in that directory, so a killed service can be rebuilt by
        # repro.runtime.durability.RecoveryManager.  The manager is inert
        # until start() attaches it.
        self._durability: Optional[DurabilityManager] = None
        if self.config.wal_dir is not None:
            self._durability = DurabilityManager(
                Path(self.config.wal_dir),
                shards=self.config.shards,
                fsync=self.config.wal_fsync,
                segment_bytes=self.config.wal_segment_bytes,
                interval=self.config.checkpoint_interval,
                keep_deltas=self.config.checkpoint_keep_deltas,
                registry=self.metrics_registry,
            )
        # Replication: with standby_addresses configured, every logged
        # record also streams to each shard's hot standby, so a dead tcp
        # worker is *promoted* (repro.runtime.replication) instead of
        # WAL-replayed.  Promotions are recorded in `self.promotions`.
        self._replication: Optional[ReplicationManager] = None
        if self.config.standby_addresses is not None and any(self.config.standby_addresses):
            self._replication = ReplicationManager(window, self.config)
        self.promotions: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def _build_metric_families(self) -> None:
        """Create the service's metric families in :attr:`metrics_registry`."""
        registry = self.metrics_registry
        self._m_ingested = registry.counter(
            "repro_ingested_tuples_total", "Tuples ingested by the coordinator"
        )
        self._m_routed = registry.counter(
            "repro_router_tuples_routed_total", "Tuples routed to each shard", ("shard",)
        )
        self._m_dropped = registry.counter(
            "repro_router_tuples_dropped_total", "Tuples relevant to no resident query, dropped"
        )
        self._m_queue_depth = registry.gauge(
            "repro_shard_queue_depth", "Batches waiting in each shard's request queue", ("shard",)
        )
        self._m_shard_up = registry.gauge(
            "repro_shard_up", "Shard worker liveness (1 = transport alive and unpoisoned)", ("shard",)
        )
        self._m_shard_tuples = registry.counter(
            "repro_shard_tuples_total", "Tuples processed by each shard worker", ("shard",)
        )
        self._m_shard_batches = registry.counter(
            "repro_shard_batches_total", "Batches processed by each shard worker", ("shard",)
        )
        self._m_busy = registry.counter(
            "repro_shard_busy_seconds_total", "Worker-CPU seconds spent processing batches", ("shard",)
        )
        self._m_batch_seconds = registry.histogram(
            "repro_batch_seconds", "Per-batch worker-CPU latency in seconds", ("shard",)
        )
        self._m_event_latency = registry.histogram(
            "repro_event_latency_seconds",
            "End-to-end latency of sampled tuples: routing time at the "
            "coordinator to batch completion at the worker",
            ("shard",),
        )
        self._m_q_tuples = registry.counter(
            "repro_query_tuples_total", "Tuples processed per query evaluator", ("shard", "query")
        )
        self._m_q_events = registry.counter(
            "repro_query_result_events_total", "Result events emitted per query evaluator", ("shard", "query")
        )
        self._m_q_trees = registry.gauge(
            "repro_query_index_trees", "Spanning trees in the query's Delta index", ("shard", "query")
        )
        self._m_q_nodes = registry.gauge(
            "repro_query_index_nodes", "Nodes in the query's Delta index", ("shard", "query")
        )
        self._m_q_expiry_seconds = registry.counter(
            "repro_query_expiry_seconds_total", "Seconds spent in window expiry", ("shard", "query")
        )
        self._m_q_expiry_runs = registry.counter(
            "repro_query_expiry_runs_total", "Window-expiry runs", ("shard", "query")
        )
        self._m_ops = registry.counter(
            "repro_lifecycle_operations_total",
            "Lifecycle operations applied (migrate / split / rebalance)",
            ("operation",),
        )
        self._m_op_seconds = registry.histogram(
            "repro_lifecycle_operation_seconds", "Lifecycle operation wall time in seconds", ("operation",)
        )
        self._m_worker_connected = registry.gauge(
            "repro_worker_connected",
            "Transport connection to the shard worker is up (tcp backend; 1 = connected)",
            ("shard",),
        )
        self._m_worker_connects = registry.counter(
            "repro_worker_connects_total", "Successful worker connection establishments", ("shard",)
        )
        self._m_worker_connect_attempts = registry.counter(
            "repro_worker_connect_attempts_total",
            "Worker connection attempts, including failed dials",
            ("shard",),
        )
        self._m_worker_frame_bytes = registry.counter(
            "repro_worker_frame_bytes_total",
            "Protocol frame bytes over the worker transport",
            ("shard", "direction"),
        )
        self._m_worker_frames = registry.counter(
            "repro_worker_frames_total",
            "Protocol frames over the worker transport",
            ("shard", "direction"),
        )
        self._m_worker_send_seconds = registry.histogram(
            "repro_worker_frame_send_seconds",
            "Wall time to put one frame on the worker transport",
            ("shard",),
        )
        self._m_standby_connected = registry.gauge(
            "repro_standby_connected",
            "Hot standby armed and healthy for the shard (1 = armed)",
            ("shard",),
        )
        self._m_repl_lag = registry.gauge(
            "repro_replication_lag_records",
            "Records logged for the shard but not yet acknowledged by its standby",
            ("shard",),
        )
        self._m_repl_shipped = registry.counter(
            "repro_replication_shipped_records_total",
            "WAL records shipped to the shard's hot standby",
            ("shard",),
        )
        self._m_repl_acked = registry.gauge(
            "repro_replication_acked_lsn",
            "Last record LSN the shard's standby acknowledged applying",
            ("shard",),
        )
        self._m_promotions = registry.counter(
            "repro_promotions_total", "Hot-standby promotions after primary loss", ("shard",)
        )
        self._m_promotion_replayed = registry.counter(
            "repro_promotion_replayed_records_total",
            "WAL records replayed during promotions (zero by design: warm "
            "failover promotes shipped state, it never re-reads the log)",
            ("shard",),
        )
        self._m_promotion_seconds = registry.histogram(
            "repro_promotion_seconds", "Wall time of hot-standby promotions", ("shard",)
        )

    @property
    def observability_port(self) -> Optional[int]:
        """Bound port of the ``/metrics`` + ``/healthz`` server, or ``None``."""
        if self._obs_server is None or not self._obs_server.running:
            return None
        return self._obs_server.port

    def _refresh_worker_metrics(self) -> None:
        """Pull worker metric snapshots into the registry.

        Coordinator-thread only: worker proxies are single-consumer, so
        the HTTP scrape thread must never call this — it reads the
        registry that this method populates.  Each snapshot is one
        ``METRICS`` control round-trip per shard, serialized behind that
        shard's queued batches (a partial drain barrier).
        """
        self._m_ingested.labels().set_total(float(self._tuples_ingested))
        self._m_dropped.labels().set_total(float(self._tuples_dropped))
        for shard, count in self.router.tuples_routed.items():
            self._m_routed.labels(shard).set_total(float(count))
        if self._replication is not None:
            for shard in range(len(self.workers)):
                stats = self._replication.stats(shard)
                self._m_standby_connected.labels(shard).set(1.0 if stats["armed"] else 0.0)
                self._m_repl_lag.labels(shard).set(float(stats["lag_records"]))
                self._m_repl_shipped.labels(shard).set_total(float(stats["shipped_records"]))
                self._m_repl_acked.labels(shard).set(float(stats["acked_lsn"]))
        for worker in self.workers:
            shard = worker.shard_id
            self._m_queue_depth.labels(shard).set(float(worker.queue_depth()))
            # Transport counters are plain attribute reads, pulled before the
            # METRICS round-trip so a dead connection still reports
            # connected=0 with its final byte/frame totals.
            transport = worker.transport_stats()
            if transport is not None:
                self._m_worker_connected.labels(shard).set(float(transport.get("connected", 0.0)))
                self._m_worker_connects.labels(shard).set_total(transport.get("connects_total", 0.0))
                self._m_worker_connect_attempts.labels(shard).set_total(
                    transport.get("connect_attempts_total", 0.0)
                )
                self._m_worker_frame_bytes.labels(shard, "sent").set_total(
                    transport.get("bytes_sent", 0.0)
                )
                self._m_worker_frame_bytes.labels(shard, "received").set_total(
                    transport.get("bytes_received", 0.0)
                )
                self._m_worker_frames.labels(shard, "sent").set_total(transport.get("frames_sent", 0.0))
                self._m_worker_frames.labels(shard, "received").set_total(
                    transport.get("frames_received", 0.0)
                )
                send_state = transport.get("send_seconds")
                if send_state:
                    self._m_worker_send_seconds.labels(shard).load_state(send_state)
            try:
                snapshot = worker.metrics()
            except Exception:
                self._m_shard_up.labels(shard).set(0.0)
                continue
            self._m_shard_up.labels(shard).set(1.0 if (worker.running or not self._running) else 0.0)
            self._heartbeats[shard] = time.monotonic()
            self._m_shard_tuples.labels(shard).set_total(float(snapshot.get("tuples", 0.0)))
            self._m_shard_batches.labels(shard).set_total(float(snapshot.get("batches", 0.0)))
            self._m_busy.labels(shard).set_total(float(snapshot.get("busy_seconds", 0.0)))
            histogram_state = snapshot.get("batch_seconds")
            if histogram_state:
                self._m_batch_seconds.labels(shard).load_state(histogram_state)
            self._harvest_snapshot(shard, snapshot)
            for query, stats in (snapshot.get("queries") or {}).items():
                self._m_q_tuples.labels(shard, query).set_total(stats.get("tuples_processed", 0.0))
                self._m_q_events.labels(shard, query).set_total(stats.get("events", 0.0))
                self._m_q_trees.labels(shard, query).set(stats.get("index_trees", 0.0))
                self._m_q_nodes.labels(shard, query).set(stats.get("index_nodes", 0.0))
                self._m_q_expiry_seconds.labels(shard, query).set_total(stats.get("expiry_seconds", 0.0))
                self._m_q_expiry_runs.labels(shard, query).set_total(stats.get("expiry_runs", 0.0))

    def metrics_text(self, refresh: Optional[bool] = None) -> str:
        """Render the registry as Prometheus text exposition (format 0.0.4).

        ``refresh`` controls whether worker snapshots are pulled first.
        The default refreshes only when no observability server is running
        (a direct coordinator-thread call, e.g. from a notebook); the HTTP
        scrape thread must not issue worker frames, so it renders whatever
        the coordinator's periodic refresh last captured.
        """
        if refresh is None:
            refresh = self._obs_server is None or not self._obs_server.running
        if refresh:
            self._refresh_worker_metrics()
        return self.metrics_registry.render()

    def _harvest_snapshot(self, shard: int, snapshot: Dict[str, object]) -> None:
        """Absorb the tracing payload of one worker ``METRICS`` snapshot.

        Workers drain their span buffers into the snapshot (each span
        ships exactly once), so every snapshot consumer must route them
        into the coordinator's tracer or they are lost.  The end-to-end
        event-latency state is kept per shard for :meth:`summary`'s
        quantiles and mirrored into ``repro_event_latency_seconds``.
        """
        spans = snapshot.get("spans")
        if spans:
            self.tracer.ingest(spans)
        state = snapshot.get("event_latency")
        if state:
            self._event_latency_states[shard] = state
            self._m_event_latency.labels(shard).load_state(state)

    def traces_snapshot(self) -> List[Dict]:
        """Merged span view backing ``/debug/traces`` and ``repro trace``.

        Thread-safe (the tracer's ring is lock-protected; no worker frames
        are issued), so the HTTP debug endpoint may call it from the
        scrape thread.  Worker spans appear here once a metrics refresh
        has harvested them — on the ingest path's periodic refresh while
        the observability server runs, or on any
        :meth:`shard_metrics` / :meth:`summary` / :meth:`stop` call.
        """
        return self.tracer.snapshot()

    def health(self) -> Dict[str, object]:
        """Per-shard liveness summary backing ``/healthz`` (thread-safe).

        Reads only transport liveness, sticky failures and the heartbeat
        timestamps stamped by the coordinator's metric refreshes — no
        worker frames, so any thread may call it even while a shard is
        wedged.  ``healthy`` is false when any shard transport died or
        holds a sticky failure while the service is running.

        With replication configured each shard entry carries a
        ``"replication"`` sub-dict (standby armed/address, acked LSN,
        shipped/lag record counts — atomic attribute reads on the
        replica, same thread-safety) and the payload a top-level
        ``"pending_rearms"`` map of shards awaiting a fresh standby.  A
        lost standby does *not* flip ``healthy``: the primary still
        serves, which is what liveness probes must see.
        """
        now = time.monotonic()
        shards = []
        healthy = True
        for worker in self.workers:
            failure = worker.failure
            alive = worker.running
            ok = failure is None and (alive or not self._running)
            healthy = healthy and ok
            beat = self._heartbeats.get(worker.shard_id)
            entry = {
                "shard": worker.shard_id,
                "alive": bool(alive),
                "ok": bool(ok),
                "failure": None if failure is None else str(failure),
                "heartbeat_age_seconds": None if beat is None else round(now - beat, 3),
            }
            if self._replication is not None:
                stats = self._replication.stats(worker.shard_id)
                entry["replication"] = {
                    "standby_armed": bool(stats["armed"]),
                    "standby_address": stats["address"],
                    "acked_lsn": stats["acked_lsn"],
                    "shipped_records": stats["shipped_records"],
                    "lag_records": stats["lag_records"],
                    "pending_rearm": stats["pending_rearm"],
                }
            shards.append(entry)
        payload: Dict[str, object] = {"healthy": healthy, "running": self._running, "shards": shards}
        if self._replication is not None:
            payload["pending_rearms"] = {
                str(shard): address for shard, address in sorted(self._replication.pending_rearms().items())
            }
        return payload

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        """Whether the shard workers are currently started."""
        return self._running

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The durability manager, or ``None`` when no ``wal_dir`` is set."""
        return self._durability

    @property
    def replication(self) -> Optional[ReplicationManager]:
        """The replication manager, or ``None`` without standby addresses."""
        return self._replication

    def start(self) -> "StreamingQueryService":
        """Start all shard workers; returns ``self`` for chaining.

        With durability configured, the directory is attached first: the
        base checkpoint covering every query registered so far is written
        and the per-shard write-ahead logs open, so everything ingested
        after this call is recoverable.
        """
        if self._running:
            raise RuntimeStateError("service is already running")
        if self._durability is not None and not self._durability.attached:
            self._durability.attach(self, reset=self._durability.reset_on_attach)
            self._durability.reset_on_attach = False
        standby_bootstraps: Dict[int, Tuple] = {}
        if self._replication is not None:
            # Captured while the workers are stopped (the local engines are
            # authoritative) — byte-for-byte what each primary's HELLO ships.
            standby_bootstraps = {
                worker.shard_id: worker.bootstrap_frames() for worker in self.workers
            }
        for worker in self.workers:
            worker.start()
        self._running = True
        if self._replication is not None:
            # Arm failures are non-fatal (logged + visible in the
            # repro_standby_connected gauge): an unarmed shard simply falls
            # back to cold WAL recovery.
            self._replication.start(standby_bootstraps)
        if self.config.metrics_port is not None:
            server = ObservabilityServer(self, self.config.metrics_port)
            port = server.start()
            self._obs_server = server
            self._last_metrics_refresh = time.monotonic()
            self._refresh_worker_metrics()
            _LOG.info("observability server listening on port %d", port)
        return self

    def stop(self) -> None:
        """Drain outstanding work and stop all shard workers.

        Workers are always stopped and the service marked not-running,
        even when the drain surfaces a shard failure (which is re-raised).
        With durability attached, a final coordinated checkpoint is taken
        after the drain — a gracefully stopped service recovers without
        any WAL replay.
        """
        if not self._running:
            return
        clean_shutdown = False
        try:
            self._drain(rebalance=False)
            if self._durability is not None and self._durability.attached:
                self._durability.checkpoint(self, reason="stop")
            clean_shutdown = True
        finally:
            if self._obs_server is not None:
                # Capture final worker counters before the transports close,
                # then take the scrape endpoint down with the service.
                try:
                    self._refresh_worker_metrics()
                except Exception:
                    pass
                self._obs_server.stop()
                self._obs_server = None
            stop_error: Optional[BaseException] = None
            for worker in self.workers:
                try:
                    worker.stop()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if stop_error is None:
                        stop_error = exc
            if self._replication is not None:
                # After the primaries: closing a replication connection
                # makes its standby discard the replica state.
                self._replication.stop()
            self._running = False
            if self._durability is not None:
                # Only a clean shutdown (final checkpoint taken) lets this
                # service object wipe-and-reattach on a later start(); a
                # failed drain leaves the directory as crash evidence.
                self._durability.close(resettable=clean_shutdown)
            # Don't mask a drain failure already propagating out of the try.
            if stop_error is not None and sys.exc_info()[0] is None:
                raise stop_error

    def __enter__(self) -> "StreamingQueryService":
        if not self._running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()
        else:
            # Don't mask the original error with a drain of a broken run.
            if self._obs_server is not None:
                self._obs_server.stop()
                self._obs_server = None
            for worker in self.workers:
                try:
                    worker.stop()
                except Exception:
                    pass
            if self._replication is not None:
                try:
                    self._replication.stop()
                except Exception:
                    pass
            self._running = False
            if self._durability is not None:
                # No final checkpoint on the error path: the WAL already
                # holds everything logged, which is what recovery trusts.
                self._durability.close()

    # ------------------------------------------------------------------ #
    # Logged worker mutations
    #
    # Every engine-level topology change goes through these helpers so the
    # write-ahead log records it (in execution order, after the worker
    # confirmed it) — including the rollback deregistrations of failed
    # migrations and splits, which is what keeps each shard's log a
    # faithful history of its engine.
    # ------------------------------------------------------------------ #

    def _worker_register(
        self,
        shard: int,
        name: str,
        expression: str,
        semantics: str,
        max_nodes_per_tree: Optional[int],
        partition: Optional[Tuple[int, int]] = None,
        operation_id: Optional[str] = None,
    ) -> None:
        self.workers[shard].register_query(
            name, expression, semantics, max_nodes_per_tree, partition, operation_id=operation_id
        )
        lsn = None
        if self._durability is not None:
            lsn = self._durability.log_register(
                shard, self._tuples_ingested, name, expression, semantics, max_nodes_per_tree, partition
            )
        if self._replication is not None and self._running:
            # Pre-start registrations travel in the standby's bootstrap
            # frames instead, exactly like the primary's HELLO.
            self._replication.ship_topology(
                shard,
                wal_mod.REGISTER,
                self._tuples_ingested,
                0,
                [name, expression, semantics, max_nodes_per_tree, list(partition) if partition else None],
                lsn,
            )

    def _worker_restore(
        self,
        shard: int,
        name: str,
        blob: bytes,
        state: Optional[Dict] = None,
        operation_id: Optional[str] = None,
    ) -> None:
        self.workers[shard].restore_query(name, blob, "arbitrary", operation_id=operation_id)
        ship = self._replication is not None and self._running
        if state is None and (self._durability is not None or ship):
            state = decode_state(blob, what=f"evaluator blob for query {name!r}")
        lsn = None
        if self._durability is not None:
            lsn = self._durability.log_restore(shard, self._tuples_ingested, name, "arbitrary", state)
        if ship:
            self._replication.ship_topology(
                shard, wal_mod.RESTORE, self._tuples_ingested, 0, [name, "arbitrary", state], lsn
            )

    def _worker_deregister(self, shard: int, name: str, operation_id: Optional[str] = None) -> None:
        self.workers[shard].deregister_query(name, operation_id=operation_id)
        lsn = None
        if self._durability is not None:
            lsn = self._durability.log_deregister(shard, self._tuples_ingested, name)
        if self._replication is not None and self._running:
            self._replication.ship_topology(
                shard, wal_mod.DEREGISTER, self._tuples_ingested, 0, name, lsn
            )

    # ------------------------------------------------------------------ #
    # Query management (allowed before and while running)
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        query: Union[str, QueryAnalysis],
        semantics: str = "arbitrary",
        max_nodes_per_tree: Optional[int] = None,
        partitions: Optional[int] = None,
    ) -> int:
        """Register a persistent query; returns the shard of its first evaluator.

        Safe while the service is running: the registration is serialized
        with in-flight batches on the owning shard, so the query sees every
        tuple ingested after this call returns.

        With ``partitions=K > 1`` (default: ``config.partitions``) the
        query is registered as ``K`` root-partition evaluators spread over
        the ``K`` least-loaded shards — intra-query data parallelism for
        queries too heavy for one shard.  Each partition receives the
        query's full tuple stream but materializes only the spanning trees
        whose root it owns; :meth:`results` merges the partition streams
        back into the exact single-evaluator stream.  Partitioned
        registration requires ``"arbitrary"`` semantics and at most one
        partition per shard; the returned shard is partition 0's.

        Raises:
            ValueError: the name is taken (or contains the reserved
                ``::``), the partition count is out of range, or
                partitioning is combined with non-``"arbitrary"``
                semantics.
        """
        if name in self._semantics:
            raise ValueError(f"a query named {name!r} is already registered")
        if "::" in name:
            raise ValueError(
                f"query name {name!r} contains '::', which is reserved for "
                f"partition member names"
            )
        if self._durability is not None and semantics != "arbitrary":
            raise ValueError(
                f"query {name!r} uses semantics {semantics!r}: a durable service "
                f"(wal_dir set) accepts only 'arbitrary' queries — no other "
                f"evaluator state can be checkpointed for recovery"
            )
        count = self.config.partitions if partitions is None else partitions
        if count < 1:
            raise ValueError(f"partitions must be >= 1, got {count}")
        analysis = query if isinstance(query, QueryAnalysis) else analyze(query)
        if count == 1:
            shard = self.router.assign(name, analysis)
            # Flush the shard's buffered tuples first: they predate this
            # registration and must reach the engine before the new query does.
            self._flush_shard(shard)
            try:
                # The expression travels as its rendered string (round-trip
                # safe) so registration crosses process boundaries; the
                # worker recompiles.
                self._worker_register(shard, name, str(analysis.expression), semantics, max_nodes_per_tree)
            except Exception:
                self.router.release(name)
                raise
            self._semantics[name] = semantics
            return shard
        if semantics != "arbitrary":
            raise ValueError(
                f"partitioned registration requires 'arbitrary' semantics, got {semantics!r}: "
                f"only Algorithm RAPQ's per-root spanning trees split cleanly"
            )
        if count > len(self.workers):
            raise ValueError(
                f"partitions ({count}) cannot exceed shards ({len(self.workers)}): "
                f"each root partition runs on its own shard"
            )
        targets = self._partition_targets(count)
        members = [_member_name(name, index) for index in range(count)]
        placed: List[str] = []
        registered: List[Tuple[str, int]] = []
        try:
            for index, (member, shard) in enumerate(zip(members, targets)):
                self.router.assign_to(member, analysis, shard)
                placed.append(member)
                self._flush_shard(shard)
                self._worker_register(
                    shard, member, str(analysis.expression), "arbitrary", max_nodes_per_tree, (index, count)
                )
                registered.append((member, shard))
        except Exception:
            # Roll the partial registration back: the query either exists
            # whole (all members live) or not at all.
            for member, shard in registered:
                try:
                    self._worker_deregister(shard, member)
                except Exception:
                    pass
            for member in placed:
                try:
                    self.router.release(member)
                except Exception:
                    pass
            raise
        self._partitions[name] = members
        for member in members:
            self._member_base[member] = name
        self._semantics[name] = "arbitrary"
        return targets[0]

    def _partition_targets(self, count: int) -> List[int]:
        """The ``count`` least-loaded shards (by resident queries, then id)."""
        ranked = sorted(self.router.shards(), key=lambda view: (view.load, view.shard_id))
        return [view.shard_id for view in ranked[:count]]

    def deregister(self, name: str) -> None:
        """Remove a query (its accumulated results are discarded).

        For a partitioned query every member is removed.  A member whose
        worker refuses the removal (e.g. a poisoned shard) does not leave
        the name half-registered: the service-level bookkeeping and
        routing are torn down for *all* members regardless — so the name
        is reusable and no later call trips over missing members — and
        the first worker error is re-raised once teardown is complete
        (the failed worker keeps its engine-level state until stopped).
        """
        members = self._partitions.get(name)
        if members is None:
            shard = self.router.shard_of(name)
            # Flush this shard's buffered tuples first so the removal lands
            # after everything ingested before it, matching engine semantics.
            self._flush_shard(shard)
            self._worker_deregister(shard, name)
            self.router.release(name)
            del self._semantics[name]
            return
        error: Optional[BaseException] = None
        for member in members:
            shard = self.router.shard_of(member)
            try:
                self._flush_shard(shard)
                self._worker_deregister(shard, member)
            except BaseException as exc:  # noqa: BLE001 - re-raised after teardown
                if error is None:
                    error = exc
            self.router.release(member)
            del self._member_base[member]
        del self._partitions[name]
        del self._semantics[name]
        if error is not None:
            raise error

    def queries(self) -> List[str]:
        """Names of all registered queries (partitioned ones once, by base name)."""
        return sorted(self._semantics)

    def partitions_of(self, name: str) -> int:
        """How many root partitions ``name`` is split into (1 = unsplit).

        Raises:
            KeyError: ``name`` is not a registered query.
        """
        if name not in self._semantics:
            raise KeyError(f"no query named {name!r} is registered")
        members = self._partitions.get(name)
        return 1 if members is None else len(members)

    def shard_of(self, name: str, partition: Optional[int] = None) -> int:
        """The shard hosting ``name`` (or its ``partition``-th root partition).

        Raises:
            KeyError: ``name`` is not a registered query.
            ValueError: ``partition`` is out of range, or given for an
                unpartitioned query.
            RuntimeStateError: ``name`` is partitioned and no ``partition``
                was named (its members live on several shards).
        """
        members = self._partitions.get(name)
        if members is None:
            if name not in self._semantics:
                raise KeyError(f"no query named {name!r} is registered")
            if partition is not None:
                raise ValueError(f"query {name!r} is not partitioned; do not pass partition=")
            return self.router.shard_of(name)
        if partition is None:
            raise RuntimeStateError(
                f"query {name!r} is split into {len(members)} partitions on "
                f"several shards; name one with partition=i"
            )
        if not 0 <= partition < len(members):
            raise ValueError(f"partition {partition} out of range [0, {len(members)}) for query {name!r}")
        return self.router.shard_of(members[partition])

    def __contains__(self, name: str) -> bool:
        return name in self._semantics

    # ------------------------------------------------------------------ #
    # Live migration and rebalancing
    # ------------------------------------------------------------------ #

    def migrate(
        self,
        name: str,
        target_shard: int,
        reason: str = "manual",
        partition: Optional[int] = None,
    ) -> int:
        """Move a live query to another shard; returns the shard it now lives on.

        The move is transparent: the global result stream of a migrated run
        is bit-identical — order and content, deletions included — to a run
        that never migrated, on every backend.  The choreography:

        1. flush both shards' buffered tuples (everything already ingested
           must reach the query *before* its state moves, and must not be
           re-delivered *after*);
        2. ``MIGRATE`` on the source — the reply barrier drains the source
           up to the extraction point and returns the evaluator as an
           order-exact checkpoint blob, leaving the query registered;
        3. ``RESTORE`` on the target, serialized behind the target's
           flushed batches on its request queue;
        4. only once the target holds the state: ``DEREGISTER`` on the
           source and re-route in the :class:`StreamRouter` (epoch bump).

        A failure in step 3 (e.g. the target worker died) leaves the query
        live and routed on the source; the error is re-raised.  A route
        table change between steps 1 and 4 (a reentrant register /
        deregister / migrate from a result callback) voids the drain
        guarantee, so the move is rolled back and refused.

        A partitioned query cannot move as a whole — its partitions live on
        different shards by design — but each partition can: pass
        ``partition=i`` to move the ``i``-th root partition, with the same
        bit-identical guarantee (the partition's blob carries its
        membership, so it keeps admitting exactly its own tree roots on
        the new shard).

        Args:
            name: a registered query.
            target_shard: shard to move it to; moving to its current shard
                is a no-op.
            reason: free-form tag recorded in the migration history
                (rebalance policies put their justification here).
            partition: for a partitioned query, which root partition to
                move (required); must be ``None`` for unpartitioned ones.

        Raises:
            KeyError: ``name`` is not a registered query.
            ValueError: ``target_shard`` (or ``partition``) is out of range,
                or ``partition`` is given for an unpartitioned query.
            RuntimeStateError: the query's semantics cannot migrate, a whole
                partitioned query was addressed without ``partition``, or
                the route table changed mid-migration.
        """
        members = self._partitions.get(name)
        if members is None:
            if name not in self._semantics:
                raise KeyError(f"no query named {name!r} is registered")
            if partition is not None:
                raise ValueError(f"query {name!r} is not partitioned; do not pass partition=")
            routed = name
        else:
            if partition is None:
                raise RuntimeStateError(
                    f"query {name!r} is split into {len(members)} partitions; "
                    f"migrate one at a time with partition=i"
                )
            if not 0 <= partition < len(members):
                raise ValueError(f"partition {partition} out of range [0, {len(members)}) for query {name!r}")
            routed = members[partition]
        source = self.router.shard_of(routed)
        if not 0 <= target_shard < len(self.workers):
            raise ValueError(f"target shard {target_shard} out of range [0, {len(self.workers)})")
        if target_shard == source:
            return source
        semantics = self._semantics[name]
        if semantics != "arbitrary":
            # Same restriction as restarting a process worker with RSPQ
            # state: positional node identity cannot cross a shard boundary.
            raise RuntimeStateError(
                f"query {name!r} cannot migrate: queries with non-'arbitrary' semantics "
                f"({semantics!r}) hold evaluator state that cannot be shipped between shards"
            )
        if self._migrating is not None:
            raise RuntimeStateError(f"cannot migrate {name!r} while query {self._migrating!r} is migrating")
        op_id = new_operation_id("migrate")
        started = time.perf_counter()
        _LOG.info(
            "migrating query %r from shard %d to shard %d (%s)",
            routed,
            source,
            target_shard,
            reason,
            extra={"operation_id": op_id},
        )
        self._migrating = routed
        try:
            self._flush_shard(source)
            self._flush_shard(target_shard)
            epoch = self.router.epoch
            # MIGRATE refuses non-'arbitrary' semantics on the worker (the
            # coordinator check above is just the cheap fast path), so the
            # blob is always an arbitrary-semantics evaluator.
            _, _, blob = self.workers[source].migrate_query(routed, operation_id=op_id)
            self._worker_restore(target_shard, routed, blob, operation_id=op_id)
            if self.router.epoch != epoch:
                self._worker_deregister(target_shard, routed, operation_id=op_id)
                raise RuntimeStateError(
                    f"route table changed while migrating {name!r} (reentrant "
                    f"register/deregister/migrate); the move was rolled back"
                )
            try:
                self._worker_deregister(source, routed, operation_id=op_id)
            except BaseException:
                # The source kept the query; take it back off the target so
                # exactly one shard owns it before the error surfaces.
                try:
                    self._worker_deregister(target_shard, routed, operation_id=op_id)
                except Exception:
                    pass
                raise
        finally:
            self._migrating = None
        self.router.move(routed, target_shard)
        elapsed = time.perf_counter() - started
        self._m_ops.labels("migrate").inc()
        self._m_op_seconds.labels("migrate").observe(elapsed)
        _LOG.info(
            "migrated query %r to shard %d in %.3fs",
            routed,
            target_shard,
            elapsed,
            extra={"operation_id": op_id},
        )
        self.migrations.append(
            {
                "query": name,
                "partition": partition,
                "source": source,
                "target": target_shard,
                "reason": reason,
                "at_tuples": self._tuples_ingested,
                "operation_id": op_id,
            }
        )
        return target_shard

    def split(self, name: str, partitions: Optional[int] = None, reason: str = "manual") -> List[int]:
        """Split a live query into root partitions across shards ("split the whale").

        The inverse problem of :meth:`migrate`: when one query dominates
        its shard, moving it whole only relocates the hot spot.  Splitting
        turns it into ``partitions`` independent evaluators — each owning
        the spanning trees whose root it
        :meth:`~repro.core.partition.RootPartition.admits` — hosted on the
        least-loaded shards, so the query's tree work runs data-parallel.
        Like migration, the split is transparent: the merged result stream
        (past and future events) stays bit-identical to the never-split
        run.

        The choreography mirrors :meth:`migrate`: flush the source and
        every target shard, extract the evaluator with ``MIGRATE`` (reply
        barrier = consistent cut), split the order-exact blob with
        :func:`~repro.core.partition.partition_checkpoint`, ``RESTORE``
        each piece under a reserved member name, verify the route-table
        epoch, and only then deregister the original and re-route.  Any
        failure rolls back to the unsplit query, still live on its shard.

        Args:
            name: a registered, unpartitioned, ``"arbitrary"``-semantics
                query.
            partitions: how many partitions to split into, between 2 and
                the shard count (default: one per shard).
            reason: free-form tag recorded in the split history.

        Returns:
            the shards now hosting the partitions, in partition order.

        Raises:
            KeyError: ``name`` is not a registered query.
            ValueError: the partition count is out of range.
            RuntimeStateError: the service has a single shard, the query is
                already split (re-splitting is not supported), its
                semantics cannot ship, a migration is in flight, or the
                route table changed mid-split.
        """
        if name not in self._semantics:
            raise KeyError(f"no query named {name!r} is registered")
        if name in self._partitions:
            raise RuntimeStateError(
                f"query {name!r} is already split into {len(self._partitions[name])} partitions; "
                f"re-splitting is not supported (the query stays live as-is)"
            )
        if len(self.workers) < 2:
            raise RuntimeStateError(
                f"cannot split {name!r} on a single-shard service: there is no "
                f"second shard to host another partition"
            )
        semantics = self._semantics[name]
        if semantics != "arbitrary":
            raise RuntimeStateError(
                f"query {name!r} cannot be split: queries with non-'arbitrary' semantics "
                f"({semantics!r}) hold evaluator state that cannot be partitioned"
            )
        count = len(self.workers) if partitions is None else partitions
        if not 2 <= count <= len(self.workers):
            raise ValueError(
                f"partitions must be between 2 and the shard count "
                f"({len(self.workers)}), got {count}"
            )
        if self._migrating is not None:
            raise RuntimeStateError(f"cannot split {name!r} while query {self._migrating!r} is migrating")
        source = self.router.shard_of(name)
        op_id = new_operation_id("split")
        started = time.perf_counter()
        _LOG.info(
            "splitting query %r on shard %d into %d partitions (%s)",
            name,
            source,
            count,
            reason,
            extra={"operation_id": op_id},
        )
        self._migrating = name
        try:
            self._flush_shard(source)
            targets = self._partition_targets(count)
            for shard in targets:
                self._flush_shard(shard)
            epoch = self.router.epoch
            _, _, blob = self.workers[source].migrate_query(name, operation_id=op_id)
            # ValueError here (old format, explicit semantics...) aborts
            # before anything moved: the query is untouched on its shard.
            states = partition_checkpoint(decode_state(blob, what=f"evaluator blob for {name!r}"), count)
            analysis = analyze(states[0]["query"])
            members = [_member_name(name, index) for index in range(count)]
            restored: List[Tuple[str, int]] = []
            try:
                for member, shard, state in zip(members, targets, states):
                    blob_bytes = canonical_bytes(state)
                    self._worker_restore(shard, member, blob_bytes, state=state, operation_id=op_id)
                    restored.append((member, shard))
                if self.router.epoch != epoch:
                    raise RuntimeStateError(
                        f"route table changed while splitting {name!r} (reentrant "
                        f"register/deregister/migrate); the split was rolled back"
                    )
                self._worker_deregister(source, name, operation_id=op_id)
            except BaseException:
                # Unwind the restored pieces; the original never left source.
                for member, shard in restored:
                    try:
                        self._worker_deregister(shard, member, operation_id=op_id)
                    except Exception:
                        pass
                raise
            self.router.release(name)
            for member, shard in zip(members, targets):
                self.router.assign_to(member, analysis, shard)
        finally:
            self._migrating = None
        self._partitions[name] = members
        for member in members:
            self._member_base[member] = name
        elapsed = time.perf_counter() - started
        self._m_ops.labels("split").inc()
        self._m_op_seconds.labels("split").observe(elapsed)
        _LOG.info(
            "split query %r across shards %s in %.3fs",
            name,
            list(targets),
            elapsed,
            extra={"operation_id": op_id},
        )
        self.splits.append(
            {
                "query": name,
                "source": source,
                "targets": list(targets),
                "partitions": count,
                "reason": reason,
                "at_tuples": self._tuples_ingested,
                "operation_id": op_id,
            }
        )
        return list(targets)

    def rebalance(self) -> List[RebalancePlan]:
        """Consult the rebalance policy and apply what it proposes.

        Called automatically at drain boundaries (non-``"manual"`` policy)
        and every ``rebalance_interval`` ingested tuples; safe to call
        manually at any time.  Returns the applied plans — migrations of
        whole queries or single partitions, and whale splits.  The
        per-label load observation window resets at every decision.
        """
        self._tuples_since_rebalance = 0
        started = time.perf_counter()
        proposals = self._rebalancer.propose(self._shard_loads())
        self._label_loads.clear()
        applied: List[RebalancePlan] = []
        for plan in proposals:
            if isinstance(plan, SplitPlan):
                if plan.query not in self._semantics or plan.query in self._partitions:
                    continue  # raced with a deregister or an earlier split
                if self.router.shard_of(plan.query) != plan.source:
                    continue  # already moved; the split decision is stale
                self.split(plan.query, plan.parts, reason=plan.reason)
                applied.append(plan)
                continue
            base = self._member_base.get(plan.query)
            if base is None:
                if plan.query not in self._semantics:
                    continue  # raced with a deregister; the plan is stale
                if self.router.shard_of(plan.query) != plan.source:
                    continue  # already moved (e.g. by an earlier plan's rollback)
                self.migrate(plan.query, plan.target, reason=plan.reason)
            else:
                members = self._partitions.get(base)
                if members is None or plan.query not in members:
                    continue  # the base query was deregistered mid-decision
                if self.router.shard_of(plan.query) != plan.source:
                    continue
                self.migrate(base, plan.target, reason=plan.reason, partition=members.index(plan.query))
            applied.append(plan)
        if applied:
            self._m_ops.labels("rebalance").inc()
            self._m_op_seconds.labels("rebalance").observe(time.perf_counter() - started)
            _LOG.info("rebalance applied %d plan(s): %s", len(applied), "; ".join(map(str, applied)))
        return applied

    def _shard_loads(self) -> List[ShardLoad]:
        """Per-shard load summaries for the rebalance policy.

        Partition members appear as individually movable entries under
        their internal member names, each carrying ``1/count`` of the
        query's routed-tuple load (the tree work is split about evenly by
        the root hash).  Unpartitioned ``"arbitrary"`` queries are
        additionally marked splittable so the policy can propose breaking
        up a whale instead of pinning it.
        """
        loads: List[ShardLoad] = []
        for view in self.router.shards():
            query_loads: Dict[str, float] = {}
            pinned = 0.0
            splittable = set()
            for name in sorted(view.queries):
                load = float(sum(self._label_loads.get(label, 0) for label in self.router.alphabet_of(name)))
                base = self._member_base.get(name)
                if base is not None:
                    query_loads[name] = load / len(self._partitions[base])
                elif self._semantics[name] == "arbitrary":
                    query_loads[name] = load
                    if len(self.workers) >= 2:
                        splittable.add(name)
                else:
                    pinned += load
            loads.append(
                ShardLoad(
                    shard_id=view.shard_id,
                    query_loads=query_loads,
                    pinned_load=pinned,
                    splittable=splittable,
                )
            )
        return loads

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest_one(self, tup: StreamingGraphTuple) -> None:
        """Route one tuple to the shards hosting queries that can use it."""
        if not self._running:
            raise RuntimeStateError("cannot ingest into a stopped service; call start() first")
        if self._migrating is not None:
            # (e.g. from an on_result callback) — new tuples would bypass
            # the drain barrier the in-flight migration relies on.
            raise RuntimeStateError(f"cannot ingest while query {self._migrating!r} is migrating")
        self._tuples_ingested += 1
        shards = self.router.route(tup)
        if not shards:
            self._tuples_dropped += 1
            return
        self._label_loads[tup.label] += 1
        if self.tracer.enabled:
            # Head sampling happens here, at routing time: the first
            # sampled tuple of a shard's buffering batch opens the trace's
            # root span, and the context (with this routing-time stamp)
            # rides the eventual BATCH frame — and, attached below, the
            # shard's next REPLICATE frame.  Rate 0.0 costs one attribute
            # read.
            stamp = time.time()
            for shard in shards:
                if shard not in self._trace_pending and self.tracer.sample():
                    span = self.tracer.start_span("ingest", shard=shard)
                    ctx = self.tracer.context_for(span, stamp)
                    self._trace_pending[shard] = (span, ctx)
                    if self._replication is not None:
                        self._replication.attach_context(shard, ctx)
        lsns = None
        if self._durability is not None:
            # Write-ahead: the tuple reaches every routed shard's log
            # before any worker can see it, so the WAL always covers
            # everything the engines have processed.
            lsns = self._durability.log_tuple(self._tuples_ingested, tup, shards)
        if self._replication is not None:
            # Same write-ahead discipline for the standbys: the record is
            # shipped (or at least buffered toward the standby) before any
            # primary can see the tuple, so a promotion never needs the
            # pending buffers — everything in them is already standby-bound.
            self._replication.ship_tuple(self._tuples_ingested, tup.to_wire(), shards, lsns)
        for shard in shards:
            pending = self._pending[shard]
            pending.append(tup)
            if len(pending) >= self.config.batch_size:
                self._flush_shard(shard)
        if self.config.rebalance_interval > 0:
            self._tuples_since_rebalance += 1
            if self._tuples_since_rebalance >= self.config.rebalance_interval:
                self.rebalance()
        if self._durability is not None:
            # The periodic incremental-checkpoint scheduler: every
            # checkpoint_interval logged tuples, drain and take a delta
            # against the chain's last state.
            self._durability.maybe_checkpoint(self)
        if self._obs_server is not None:
            # Periodic metric refresh for the scrape endpoint: the HTTP
            # thread must not talk to workers, so the coordinator snapshots
            # them here on a time gate.
            now = time.monotonic()
            if now - self._last_metrics_refresh >= _METRICS_REFRESH_SECONDS:
                self._last_metrics_refresh = now
                self._refresh_worker_metrics()

    def ingest(self, tuples: Iterable[StreamingGraphTuple]) -> None:
        """Route a stream of tuples (in timestamp order) into the shards."""
        for tup in tuples:
            self.ingest_one(tup)

    def _flush_shard(self, shard: int) -> None:
        pending = self._pending[shard]
        if pending and self._running:
            self._pending[shard] = []
            trace = self._trace_pending.pop(shard, None)
            try:
                self.workers[shard].submit(pending, trace[1] if trace is not None else None)
            except WorkerUnavailableError as exc:
                self._promote_or_raise(shard, exc)
                # The batch is NOT resubmitted: every tuple in it was
                # shipped to the standby at log time (write-ahead), so the
                # promoted engine already covers it — resubmitting would
                # double-process.
            finally:
                if trace is not None:
                    # The root span covers coordinator-side buffering plus
                    # the (possibly backpressured) enqueue; the worker's
                    # process_batch span parents on it via the context.
                    self.tracer.finish(trace[0], tuples=len(pending))

    def drain(self) -> None:
        """Flush buffers and block until every shard has caught up.

        A drain is also a rebalance boundary: with a non-``"manual"``
        policy configured, the service consults it here — the natural
        moment, since every shard is quiescent and migrations are cheap.
        The internal drains of :meth:`checkpoint` and :meth:`stop` skip
        the hook: a checkpoint must record the placement the caller just
        observed, and migrating right before shutdown is wasted work.
        """
        self._drain(rebalance=True)

    def _drain(self, rebalance: bool) -> None:
        for shard in range(len(self.workers)):
            self._flush_shard(shard)
        for shard in range(len(self.workers)):
            # Indexed re-read: a promotion swaps self.workers[shard] and
            # the retried drain must land on the new primary.
            span = ctx = None
            if self.tracer.sample():
                span = self.tracer.start_span("drain", shard=shard)
                ctx = self.tracer.context_for(span)
            try:
                self._with_failover(shard, lambda shard=shard: self.workers[shard].drain(ctx))
            finally:
                if span is not None:
                    self.tracer.finish(span)
        if self._replication is not None and self._running:
            # A drain is also a replication barrier: push out any buffered
            # tail and use the quiescent moment to re-arm lost standbys.
            self._replication.flush_all()
            self._maybe_rearm()
        if rebalance and self._running and self._rebalancer.name != "manual" and self._migrating is None:
            self.rebalance()

    # ------------------------------------------------------------------ #
    # Warm failover (hot-standby promotion)
    # ------------------------------------------------------------------ #

    def _with_failover(self, shard: int, call):
        """Run one worker interaction, promoting the shard's standby on loss.

        The retried call must index ``self.workers`` itself — after a
        promotion the slot holds the new primary.
        """
        try:
            return call()
        except WorkerUnavailableError as exc:
            self._promote_or_raise(shard, exc)
            return call()

    def _promote_or_raise(self, shard: int, cause: WorkerUnavailableError) -> ShardWorker:
        """Promote the shard's hot standby, or re-raise the transport failure.

        A failed (or impossible) promotion never masks the trigger: the
        original :class:`~repro.errors.WorkerUnavailableError` propagates
        — with the :class:`~repro.errors.ReplicationError` chained as its
        cause — and cold WAL-replay recovery remains available.  Refused
        while a migration or split is mid-flight: those choreographies
        hold engine state outside any single worker and run their own
        rollback on the original failure.
        """
        if self._replication is None or self._migrating is not None:
            raise cause
        # Minted here (not in _promote) so the failure path below logs the
        # same correlation id as every line of the attempt it reports on.
        op_id = new_operation_id("promote")
        try:
            self._promote(shard, operation_id=op_id)
        except (ReplicationError, RuntimeStateError) as exc:
            _LOG.warning(
                "shard %d: cannot promote after primary loss: %s",
                shard,
                exc,
                extra={"shard": shard, "operation_id": op_id},
            )
            raise cause from exc
        return self.workers[shard]

    def promote(self, shard: int) -> Dict[str, object]:
        """Promote the shard's hot standby to primary now; returns the facts.

        The crash path calls this automatically on
        :class:`~repro.errors.WorkerUnavailableError`; calling it directly
        is a *planned* failover (drill, maintenance): the old primary's
        session is abandoned — its engine state discarded once the socket
        closes — and the standby takes over exactly as in the crash path,
        with a bit-identical result stream and zero WAL replay.

        Returns:
            the promotion record also appended to :attr:`promotions`:
            ``shard``, ``address`` (new primary), ``previous_address``,
            ``lsn``, ``waited_records``, ``replayed_records`` (always 0)
            and ``seconds``.

        Raises:
            RuntimeStateError: the service is not running or a migration
                is mid-flight.
            ReplicationError: the shard has no live standby, or the
                standby failed the promotion handshake.
        """
        if not self._running:
            raise RuntimeStateError("cannot promote on a stopped service; call start() first")
        if self._migrating is not None:
            raise RuntimeStateError(
                f"cannot promote shard {shard} while query {self._migrating!r} is migrating"
            )
        return self._promote(shard)

    def _promote(self, shard: int, operation_id: Optional[str] = None) -> Dict[str, object]:
        replication = self._replication
        if replication is None:
            raise ReplicationError(
                f"shard {shard} has no replication manager (standby_addresses not configured)"
            )
        op_id = operation_id or new_operation_id("promote")
        span = None
        if self.tracer.enabled:
            span = self.tracer.start_span("promote", shard=shard, operation_id=op_id)
        old = self.workers[shard]
        old_address = (self.config.worker_addresses or (None,) * self.config.shards)[shard]
        try:
            sock, facts = replication.promote(
                shard, emit_results=self._on_result is not None, operation_id=op_id
            )
        except BaseException:
            if span is not None:
                self.tracer.finish(span, failed=True)
            raise
        # The promoted session is live on `sock`; swap the config so the
        # standby's address is the shard's primary from here on, build a
        # proxy around the socket, and retire the dead worker.
        new_addresses = list(self.config.worker_addresses)
        new_addresses[shard] = facts["address"]
        new_standbys = list(self.config.standby_addresses or [None] * self.config.shards)
        new_standbys[shard] = None
        new_config = dataclass_replace(
            self.config,
            worker_addresses=tuple(new_addresses),
            standby_addresses=tuple(new_standbys),
        )
        replacement = create_worker(shard, self.window, new_config, on_result=self._on_result)
        replacement.adopt_session(sock)
        self.workers[shard] = replacement
        self.config = new_config
        # Anything still buffered for the shard was shipped at log time;
        # the promoted engine already covers it.
        self._pending[shard] = []
        try:
            old.abandon()
        except Exception:  # noqa: BLE001 - the old transport is already dead
            pass
        if old_address is not None:
            replication.schedule_rearm(shard, old_address)
        facts["previous_address"] = old_address
        facts["operation_id"] = op_id
        self.promotions.append(facts)
        self._m_promotions.labels(shard).inc()
        self._m_promotion_replayed.labels(shard).inc(float(facts["replayed_records"]))
        self._m_promotion_seconds.labels(shard).observe(float(facts["seconds"]))
        if span is not None:
            self.tracer.finish(span, address=facts["address"])
        _LOG.warning(
            "shard %d: promoted standby at %s to primary (was %s); replayed %d WAL records",
            shard,
            facts["address"],
            old_address,
            facts["replayed_records"],
            extra={"shard": shard, "operation_id": op_id},
        )
        return facts

    def rearm_standby(self, shard: int, address: Optional[str] = None) -> None:
        """Arm a fresh hot standby for ``shard`` at ``address``.

        ``address`` defaults to the one scheduled by the shard's last
        promotion (the old primary's — restart a ``repro worker`` process
        there first).  The standby starts from a *consistent cut*: the
        shard is flushed and drained, its resident queries' checkpoint
        blobs become the bootstrap ``RESTORE`` frames, and the replica's
        base LSN is the shard's current record head — exactly where the
        shipped stream resumes.

        Raises:
            RuntimeStateError: no replication manager is configured.
            ReplicationError: no address is known, the shard hosts
                non-``'arbitrary'`` queries (their state cannot ship), or
                the worker at ``address`` is unreachable/busy.
        """
        replication = self._replication
        if replication is None:
            raise RuntimeStateError(
                "service has no replication manager (standby_addresses not configured)"
            )
        if address is None:
            address = replication.pending_rearms().get(shard)
            if address is None:
                raise ReplicationError(
                    f"shard {shard} has no scheduled re-arm address; pass one explicitly"
                )
        replication.arm(shard, address, self._standby_bootstrap(shard))
        new_standbys = list(self.config.standby_addresses or [None] * self.config.shards)
        new_standbys[shard] = address
        self.config = dataclass_replace(self.config, standby_addresses=tuple(new_standbys))

    def _standby_bootstrap(self, shard: int) -> Tuple:
        """Bootstrap frames reconstructing the shard at its current LSN."""
        if not self._running:
            return self.workers[shard].bootstrap_frames()
        self._flush_shard(shard)
        self.workers[shard].drain()
        if self._replication is not None:
            self._replication.flush(shard)
        frames = []
        for name in sorted(self.router.shards()[shard].queries):
            semantics = self._semantics.get(self._member_base.get(name, name), "arbitrary")
            if semantics != "arbitrary":
                raise ReplicationError(
                    f"cannot arm a standby for shard {shard} mid-run: query {name!r} "
                    f"uses semantics {semantics!r}, whose evaluator state cannot be "
                    f"shipped (only 'arbitrary' checkpoints)"
                )
            blob = self.workers[shard].checkpoint_query(name)
            frames.append((protocol.RESTORE, (name, "arbitrary", blob)))
        return tuple(frames)

    def _maybe_rearm(self) -> None:
        """Opportunistically re-arm lost standbys at a drain boundary.

        One quick connect attempt per pending shard: if the operator has
        restarted a worker on the scheduled address, the shard regains its
        standby; if not, the next drain tries again.  Never raises.
        """
        replication = self._replication
        if replication is None:
            return
        for shard, address in replication.pending_rearms().items():
            try:
                bootstrap = self._standby_bootstrap(shard)
                replication.arm(shard, address, bootstrap, connect_attempts=1)
            except (ReplicationError, WorkerUnavailableError, OSError):
                continue
            new_standbys = list(self.config.standby_addresses or [None] * self.config.shards)
            new_standbys[shard] = address
            self.config = dataclass_replace(self.config, standby_addresses=tuple(new_standbys))

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def results(self, name: str) -> ResultStream:
        """A snapshot of one query's result stream.

        The stream is wire-encoded on the owning shard's worker, serialized
        with in-flight batches, so it is a consistent point-in-time view
        even while the service keeps ingesting.

        For a partitioned query the member shards are flushed and drained
        first (so every partition reflects the same ingestion prefix),
        then the per-partition streams — fetched with their emission keys
        — are k-way merged back into the exact stream the unpartitioned
        evaluator would have produced.
        """
        members = self._partitions.get(name)
        if members is None:
            shard = self.router.shard_of(name)
            return self._with_failover(shard, lambda: self.workers[shard].fetch_results(name))
        shards = sorted({self.router.shard_of(member) for member in members})
        for shard in shards:
            self._flush_shard(shard)
        for shard in shards:
            self._with_failover(shard, lambda shard=shard: self.workers[shard].drain())
        parts = []
        for member in members:
            shard = self.router.shard_of(member)
            parts.append(
                self._with_failover(shard, lambda: self.workers[shard].fetch_partition_results(member))
            )
        return merge_partition_events(parts)

    def answer_pairs(self, name: str) -> Set[Tuple[Vertex, Vertex]]:
        """All distinct pairs reported so far by one query."""
        return self.results(name).distinct_pairs

    def result_triples(self, name: str) -> Set[Tuple[Vertex, Vertex, int]]:
        """Positive results of one query as ``(source, target, timestamp)`` triples."""
        return {(event.source, event.target, event.timestamp) for event in self.results(name).positives()}

    def global_events(self) -> Iterator[TaggedResultEvent]:
        """All queries' result events, k-way merged into timestamp order."""
        streams = {name: self.results(name).events for name in self.queries()}
        return merge_result_events(streams)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def shard_metrics(self) -> List[Dict[str, float]]:
        """Per-shard processing counters (tuples, batches, throughput)."""
        metrics = []
        for worker in self.workers:
            stats = dict(worker.metrics())
            # Every METRICS consumer must harvest the drained spans or
            # they are lost; the span list itself stays out of the
            # returned stats (it is trace data, not a counter).
            self._harvest_snapshot(worker.shard_id, stats)
            stats.pop("spans", None)
            stats["shard"] = float(worker.shard_id)
            stats["queries"] = float(len(self.router.shards()[worker.shard_id].queries))
            metrics.append(stats)
        return metrics

    def summary(self) -> Dict[str, object]:
        """Aggregated service summary: totals, per-shard and per-query stats.

        Partitioned queries appear once per partition, keyed by the
        internal member name with a ``"partition_of"`` field naming the
        user-facing query; the ``"partitioned"`` map lists each split
        query's member placement.
        """
        per_query: Dict[str, Dict[str, object]] = {}
        for shard, worker in enumerate(self.workers):
            shard_summary = worker.summary()
            for name, stats in shard_summary.items():
                stats["shard"] = shard
                base = self._member_base.get(name)
                if base is not None:
                    stats["partition_of"] = base
                per_query[name] = stats
        shards = self.shard_metrics()
        busy = [stats["busy_seconds"] for stats in shards]
        totals: Dict[str, object] = {
            "tuples_ingested": self._tuples_ingested,
            "tuples_dropped_unroutable": self._tuples_dropped,
            "shard_tuples": sum(stats["tuples"] for stats in shards),
            "busy_seconds_max": max(busy) if busy else 0.0,
            "busy_seconds_total": sum(busy),
            "migrations": len(self.migrations),
            "splits": len(self.splits),
        }
        # End-to-end latency quantiles of sampled tuples (the paper's
        # Fig. 4 axes): merge the per-shard histogram states harvested
        # from worker METRICS snapshots by shard_metrics() above.
        latency_states = [
            state for state in self._event_latency_states.values() if state and state.get("count")
        ]
        if latency_states:
            merged = merge_histogram_states(latency_states)
            p50, p95, p99 = histogram_quantiles(merged, (0.5, 0.95, 0.99))
            totals["event_latency"] = {
                "count": merged["count"],
                "p50_seconds": p50,
                "p95_seconds": p95,
                "p99_seconds": p99,
            }
        partitioned = {
            base: {member: self.router.shard_of(member) for member in members}
            for base, members in sorted(self._partitions.items())
        }
        return {
            "config": self.config.to_dict(),
            "totals": totals,
            "shards": shards,
            "queries": per_query,
            "partitioned": partitioned,
            "migrations": [dict(record) for record in self.migrations],
            "splits": [dict(record) for record in self.splits],
        }

    # ------------------------------------------------------------------ #
    # Coordinated checkpoint / restore
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> Dict:
        """Capture the state of every shard engine as one JSON-compatible dict.

        The checkpoint is *coordinated*: buffered tuples are flushed and all
        shards drained first, so every per-query state reflects the same
        ingestion prefix.  Only ``"arbitrary"``-semantics queries are
        checkpointable (the restriction of :mod:`repro.core.checkpoint`).
        """
        for name, semantics in self._semantics.items():
            if semantics != "arbitrary":
                raise ValueError(
                    f"query {name!r} uses semantics {semantics!r}; only 'arbitrary' "
                    f"queries can be checkpointed"
                )
        if self._running:
            # No rebalance hook here: the checkpoint must record the
            # placement the caller just observed, not a freshly shuffled one.
            self._drain(rebalance=False)
        span = ctx = None
        if self.tracer.sample():
            # One coin flip for the whole coordinated checkpoint; every
            # per-query CHECKPOINT frame carries the same context.
            span = self.tracer.start_span("checkpoint")
            ctx = self.tracer.context_for(span)
        queries = []
        for name in self.queries():
            # A partitioned query contributes one entry per member, all
            # sharing the user-facing name; each member's state carries its
            # "partition" section, which is how restore() tells them apart.
            for routed in self._partitions.get(name, [name]):
                shard = self.router.shard_of(routed)
                # The worker returns the evaluator's encoded byte blob (the
                # form that ships across process boundaries); decode it back
                # to the JSON-compatible dict for the service-level layout.
                blob = self._with_failover(
                    shard,
                    lambda shard=shard, routed=routed: self.workers[shard].checkpoint_query(
                        routed, trace_ctx=ctx
                    ),
                )
                state = decode_state(blob, what=f"evaluator blob for query {routed!r}")
                queries.append({"name": name, "shard": shard, "state": state})
        if span is not None:
            self.tracer.finish(span, queries=len(queries))
        return {
            "format": _SERVICE_FORMAT,
            "window": {"size": self.window.size, "slide": self.window.slide},
            "config": self.config.to_dict(),
            "tuples_ingested": self._tuples_ingested,
            "queries": queries,
        }

    @classmethod
    def restore(
        cls,
        state: Dict,
        config: Optional[RuntimeConfig] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> "StreamingQueryService":
        """Rebuild a stopped service from a :meth:`checkpoint` dict.

        Args:
            state: the checkpoint.
            config: optionally override the checkpointed runtime config
                (e.g. restore onto a different shard count); queries keep
                their recorded shard when it still exists and are re-placed
                by the sharding policy otherwise.
            on_result: live-result callback for the restored service.
        """
        if state.get("format") not in _SUPPORTED_SERVICE_FORMATS:
            raise ValueError(f"unsupported service checkpoint format: {state.get('format')!r}")
        window = WindowSpec(size=state["window"]["size"], slide=state["window"]["slide"])
        config = config or RuntimeConfig.from_dict(state["config"])
        service = cls(window, config, on_result=on_result)
        service._tuples_ingested = int(state.get("tuples_ingested", 0))
        for entry in state["queries"]:
            name = entry["name"]
            # Routing only needs the query's alphabet; the full evaluator
            # state travels to the owning worker as an opaque byte blob.
            analysis = analyze(entry["state"]["query"])
            partition = entry["state"].get("partition")
            if partition is None:
                routed = name
            else:
                # One root partition of a split query: restore it under its
                # reserved member name and rebuild the partition maps.
                index, count = partition["index"], partition["count"]
                routed = _member_name(name, index)
                members = service._partitions.setdefault(name, [None] * count)
                if len(members) != count or members[index] is not None:
                    raise ValueError(
                        f"corrupt service checkpoint: inconsistent partition entries "
                        f"for query {name!r}"
                    )
                members[index] = routed
                service._member_base[routed] = name
            shard = entry["shard"]
            if 0 <= shard < config.shards:
                service.router.assign_to(routed, analysis, shard)
            else:
                shard = service.router.assign(routed, analysis)
            service.workers[shard].restore_query(routed, canonical_bytes(entry["state"]), "arbitrary")
            service._semantics[name] = "arbitrary"
        for name, members in service._partitions.items():
            missing = [index for index, member in enumerate(members) if member is None]
            if missing:
                raise ValueError(
                    f"corrupt service checkpoint: query {name!r} is missing "
                    f"partition entries {missing}"
                )
        return service

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Write the coordinated checkpoint to ``path`` as JSON."""
        path = Path(path)
        with path.open("w") as handle:
            json.dump(self.checkpoint(), handle)
        return path

    @classmethod
    def load_checkpoint(
        cls,
        path: Union[str, Path],
        config: Optional[RuntimeConfig] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> "StreamingQueryService":
        """Load a checkpoint written by :meth:`save_checkpoint`."""
        with Path(path).open() as handle:
            state = json.load(handle)
        return cls.restore(state, config=config, on_result=on_result)

    def __str__(self) -> str:
        return (
            f"StreamingQueryService(shards={self.config.shards}, "
            f"policy={self.config.sharding}, backend={self.config.backend}, "
            f"queries={self.queries()}, running={self._running})"
        )
