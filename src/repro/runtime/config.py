"""Configuration of the sharded parallel runtime.

:class:`RuntimeConfig` bundles every knob of the execution subsystem:
how many shard workers to run, how tuples are batched into the workers'
bounded queues (batching amortizes queue overhead, the bound provides
backpressure), which concurrency backend drives the workers and which
sharding policy places queries onto shards.

All values are validated at construction time and raise
:class:`~repro.errors.ConfigError` listing the valid choices, so a
misconfiguration fails fast instead of surfacing deep inside the runtime.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "RuntimeConfig",
    "parse_worker_address",
    "BACKENDS",
    "SHARDING_POLICIES",
    "REBALANCE_POLICIES",
    "FSYNC_POLICIES",
    "LOG_LEVELS",
    "LOG_FORMATS",
]

#: Concurrency backends implemented by :mod:`repro.runtime.worker`.  All
#: speak the same wire protocol (:mod:`repro.runtime.protocol`); only the
#: transport differs: ``"threading"`` runs workers on daemon threads (GIL
#: bound — wins by label filtering only), ``"multiprocessing"`` in child
#: processes (true CPU parallelism for the paper's CPU-bound algorithms),
#: and ``"tcp"`` dials remote worker processes (``repro worker --listen``)
#: over length-prefixed CRC-checked socket frames
#: (:mod:`repro.runtime.transport_tcp`), requiring ``worker_addresses``.
BACKENDS = ("threading", "multiprocessing", "tcp")


def parse_worker_address(address: str, allow_ephemeral: bool = False) -> Tuple[str, int]:
    """Split a ``host:port`` worker address into its validated pair.

    Lives here (not in the transport module) so config validation and the
    CLI share it without importing socket machinery.  ``allow_ephemeral``
    admits port ``0`` — meaningful only for *listen* addresses
    (``repro worker --listen host:0`` binds an ephemeral port), never for
    the dial-out addresses in ``worker_addresses``.

    Raises:
        ConfigError: the address has no ``:``, an empty host, or a port
            outside the admitted range.
    """
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"invalid worker address {address!r}: expected host:port (e.g. 10.0.0.5:7300)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"invalid worker address {address!r}: port {port_text!r} is not an integer")
    low = 0 if allow_ephemeral else 1
    if not low <= port <= 65535:
        raise ConfigError(
            f"invalid worker address {address!r}: port must be in [{low}, 65535], got {port}"
        )
    return host, port

#: Query-placement policies implemented by :mod:`repro.runtime.router`.
SHARDING_POLICIES = ("round_robin", "hash", "label_affinity")

#: Rebalancing policies implemented by :mod:`repro.runtime.rebalancer`.
#: ``"manual"`` never moves a query on its own; ``"load_aware"`` proposes
#: live migrations off the hottest shard at drain/interval boundaries.
REBALANCE_POLICIES = ("manual", "load_aware")

#: WAL fsync policies implemented by :mod:`repro.runtime.durability.wal`.
#: Every policy flushes each record to the OS (surviving a killed
#: *process*); they differ in when ``fsync`` pushes records to the device
#: (surviving a crashed *machine*): ``"always"`` fsyncs every record,
#: ``"batch"`` fsyncs at checkpoint/close sync points (group commit),
#: ``"off"`` never fsyncs.
FSYNC_POLICIES = ("always", "batch", "off")

#: Log verbosities accepted by
#: :func:`repro.runtime.observability.configure_logging`.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: Log output formats: human-oriented text lines or one JSON object per
#: record (both carry the operation-ID extras of multi-frame operations).
LOG_FORMATS = ("text", "json")


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunables of the sharded runtime.

    Attributes:
        shards: number of shard workers, each owning a private engine.
        batch_size: tuples per batch handed to a worker queue; larger
            batches amortize hand-off (and, for the multiprocessing
            backend, serialization) overhead, smaller ones reduce the
            latency until a tuple's results become visible.
        queue_depth: bound (in batches) of each worker's input queue;
            ``ingest`` blocks when a worker is this far behind
            (backpressure instead of unbounded buffering).  The ``tcp``
            backend applies the bound on the *worker* side, so the same
            backpressure arrives at the coordinator through TCP flow
            control.
        backend: concurrency backend, one of :data:`BACKENDS`.
        worker_addresses: dial-out ``host:port`` addresses of the remote
            shard workers, one per shard in shard order.  Required by
            (and only valid with) the ``tcp`` backend; each address must
            have a ``repro worker --listen`` process accepting on it.
        standby_addresses: optional hot-standby ``host:port`` addresses,
            one entry per shard in shard order (``None`` entries leave a
            shard unprotected).  Each non-``None`` entry must point at a
            spare ``repro worker --listen`` process distinct from the
            shard's primary; the coordinator streams the shard's record
            log to it as it is written and *promotes* it — no WAL replay
            pause — when the primary becomes unreachable.  Only valid
            with the ``tcp`` backend.  See
            :mod:`repro.runtime.replication` and ``docs/NETWORKING.md``.
        tcp_connect_timeout: seconds one TCP connect attempt (and the
            handshake reply read) may take before it counts as failed.
        tcp_read_timeout: seconds a *mid-frame* read or a zero-progress
            send may stall before the connection is declared dead (an
            idle connection with no frame in flight is legal forever).
        tcp_connect_attempts: connect attempts per dial before raising
            :class:`~repro.errors.WorkerUnavailableError`, spaced by
            exponential backoff.
        tcp_connect_backoff: initial backoff in seconds between connect
            attempts; doubles per attempt (capped at 2s), so the default
            8 attempts x 0.25s ride out a worker that is still starting.
        sharding: query-placement policy name, one of
            :data:`SHARDING_POLICIES`.
        partitions: default number of root partitions per registered
            query (intra-query data parallelism).  ``1`` keeps each query
            a single evaluator on one shard; ``K > 1`` splits every
            registration into ``K`` per-root-partition evaluators spread
            over distinct shards (so it must not exceed ``shards``), each
            receiving the query's full tuple stream but materializing
            only its own spanning trees.  Per-query override:
            ``service.register(..., partitions=K)``.
        rebalance_policy: rebalancing policy name, one of
            :data:`REBALANCE_POLICIES`; non-``"manual"`` policies propose
            live query migrations at drain and interval boundaries.
        rebalance_interval: run the rebalance policy every this many
            ingested tuples (0 = only at drain boundaries).  Requires a
            non-``"manual"`` policy.
        wal_dir: durability directory.  When set, the coordinator
            write-ahead-logs every routed tuple and topology change (one
            log per shard) and checkpoints into this directory, so a
            killed service can be rebuilt by
            :class:`~repro.runtime.durability.RecoveryManager`.  ``None``
            (the default) disables durability entirely.
        wal_fsync: fsync policy of the write-ahead logs, one of
            :data:`FSYNC_POLICIES` (only meaningful with ``wal_dir``).
        wal_segment_bytes: rotate a shard's WAL segment once it exceeds
            this many bytes; smaller segments let checkpointing prune
            the log sooner at the cost of more files.
        checkpoint_interval: take an incremental durability checkpoint
            every this many logged (routed) tuples (0 = only at the final
            checkpoint on ``stop``).  Requires ``wal_dir``; shorter
            intervals bound WAL replay time at the cost of checkpoint
            I/O.
        checkpoint_keep_deltas: how many delta checkpoints may follow a
            base before the next checkpoint is promoted to a fresh full
            base (compacting the chain and pruning WAL segments behind
            it).
        metrics_port: when set, the service starts an HTTP observability
            server on this port exposing ``/metrics`` (Prometheus text)
            and ``/healthz`` (per-shard liveness); ``0`` binds an
            ephemeral port (read it back from
            ``service.observability_port``).  ``None`` (the default)
            disables the endpoint entirely — and with it the periodic
            worker-metrics refresh on the ingest path.
        log_level: runtime log verbosity, one of :data:`LOG_LEVELS`.
            Spawned worker processes configure their own logging from
            this value so coordinator and workers log consistently.
        log_format: log output format, one of :data:`LOG_FORMATS`.
        trace_sample_rate: probability in ``[0, 1]`` that an ingested
            tuple's batch (and each drain/checkpoint/promotion) starts a
            distributed trace (:mod:`repro.runtime.observability.tracing`).
            ``0.0`` (the default) disables tracing with zero hot-path
            cost; the value ships to every worker inside the config, so
            remote and spawned workers record spans at the same rate.
            Sampling never perturbs the result stream — the trace context
            rides *next to* frame payloads, never inside them.

    Raises:
        ConfigError: when any value is out of range, names an unknown
            backend / policy (the message lists valid choices), or combines
            rebalancing with a single shard (nowhere to move a query to).
    """

    shards: int = 2
    batch_size: int = 64
    queue_depth: int = 8
    backend: str = "threading"
    worker_addresses: Optional[Tuple[str, ...]] = None
    standby_addresses: Optional[Tuple[Optional[str], ...]] = None
    tcp_connect_timeout: float = 5.0
    tcp_read_timeout: float = 30.0
    tcp_connect_attempts: int = 8
    tcp_connect_backoff: float = 0.25
    sharding: str = "hash"
    partitions: int = 1
    rebalance_policy: str = "manual"
    rebalance_interval: int = 0
    wal_dir: Optional[str] = None
    wal_fsync: str = "batch"
    wal_segment_bytes: int = 4_000_000
    checkpoint_interval: int = 0
    checkpoint_keep_deltas: int = 4
    metrics_port: Optional[int] = None
    log_level: str = "warning"
    log_format: str = "text"
    trace_sample_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.partitions < 1:
            raise ConfigError(f"partitions must be >= 1, got {self.partitions}")
        if self.partitions > self.shards:
            raise ConfigError(
                f"partitions ({self.partitions}) cannot exceed shards ({self.shards}): "
                f"each root partition of a query runs on its own shard"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; valid choices: {', '.join(BACKENDS)}")
        if self.worker_addresses is not None and not isinstance(self.worker_addresses, tuple):
            # Checkpoints round-trip through JSON, which turns the tuple
            # into a list; normalize so to_dict()/from_dict() are exact
            # inverses (the dataclass is frozen, hence object.__setattr__).
            object.__setattr__(self, "worker_addresses", tuple(self.worker_addresses))
        if self.backend == "tcp":
            if not self.worker_addresses:
                raise ConfigError(
                    "the tcp backend requires worker_addresses: one host:port per shard, "
                    "each with a `repro worker --listen` process accepting on it"
                )
            if len(self.worker_addresses) != self.shards:
                raise ConfigError(
                    f"worker_addresses lists {len(self.worker_addresses)} addresses "
                    f"but shards is {self.shards}; the tcp backend needs exactly one "
                    f"host:port per shard, in shard order"
                )
            for address in self.worker_addresses:
                parse_worker_address(address)
        elif self.worker_addresses is not None:
            raise ConfigError(
                f"worker_addresses is only meaningful with backend 'tcp', "
                f"not {self.backend!r} (in-process backends have no address)"
            )
        if self.standby_addresses is not None:
            # Same JSON round-trip normalization as worker_addresses, plus
            # CLI-friendly placeholders: "", "none" and "-" mean "this
            # shard has no standby".
            normalized = tuple(
                None if entry in (None, "", "none", "-") else entry
                for entry in self.standby_addresses
            )
            object.__setattr__(self, "standby_addresses", normalized)
            if self.backend != "tcp":
                raise ConfigError(
                    f"standby_addresses is only meaningful with backend 'tcp', "
                    f"not {self.backend!r} (in-process backends cannot host a standby)"
                )
            if len(normalized) != self.shards:
                raise ConfigError(
                    f"standby_addresses lists {len(normalized)} entries but shards "
                    f"is {self.shards}; replication needs exactly one entry per "
                    f"shard in shard order (use None for an unprotected shard)"
                )
            for shard, address in enumerate(normalized):
                if address is None:
                    continue
                parse_worker_address(address)
                if address == self.worker_addresses[shard]:
                    raise ConfigError(
                        f"standby_addresses[{shard}] is {address!r}, the shard's own "
                        f"primary worker address; a hot standby must live on a "
                        f"different worker process"
                    )
        if self.tcp_connect_timeout <= 0:
            raise ConfigError(f"tcp_connect_timeout must be > 0, got {self.tcp_connect_timeout}")
        if self.tcp_read_timeout <= 0:
            raise ConfigError(f"tcp_read_timeout must be > 0, got {self.tcp_read_timeout}")
        if self.tcp_connect_attempts < 1:
            raise ConfigError(f"tcp_connect_attempts must be >= 1, got {self.tcp_connect_attempts}")
        if self.tcp_connect_backoff < 0:
            raise ConfigError(f"tcp_connect_backoff must be >= 0, got {self.tcp_connect_backoff}")
        if self.sharding not in SHARDING_POLICIES:
            raise ConfigError(
                f"unknown sharding policy {self.sharding!r}; "
                f"valid choices: {', '.join(SHARDING_POLICIES)}"
            )
        if self.rebalance_policy not in REBALANCE_POLICIES:
            raise ConfigError(
                f"unknown rebalance policy {self.rebalance_policy!r}; "
                f"valid choices: {', '.join(REBALANCE_POLICIES)}"
            )
        if self.rebalance_interval < 0:
            raise ConfigError(f"rebalance_interval must be >= 0, got {self.rebalance_interval}")
        if self.rebalance_interval > 0 and self.rebalance_policy == "manual":
            raise ConfigError(
                "rebalance_interval > 0 is meaningless with rebalance_policy "
                f"'manual' (it never proposes a move); valid choices: "
                f"{', '.join(name for name in REBALANCE_POLICIES if name != 'manual')}"
            )
        if self.shards == 1 and (self.rebalance_policy != "manual" or self.rebalance_interval > 0):
            raise ConfigError(
                f"rebalancing is meaningless with shards=1 (there is no other shard "
                f"to migrate a query to); use shards >= 2 or rebalance_policy "
                f"'manual' with rebalance_interval 0"
            )
        if self.wal_fsync not in FSYNC_POLICIES:
            raise ConfigError(
                f"unknown WAL fsync policy {self.wal_fsync!r}; "
                f"valid choices: {', '.join(FSYNC_POLICIES)}"
            )
        if self.wal_segment_bytes < 1:
            raise ConfigError(f"wal_segment_bytes must be >= 1, got {self.wal_segment_bytes}")
        if self.checkpoint_interval < 0:
            raise ConfigError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        if self.checkpoint_keep_deltas < 0:
            raise ConfigError(f"checkpoint_keep_deltas must be >= 0, got {self.checkpoint_keep_deltas}")
        if self.checkpoint_interval > 0 and self.wal_dir is None:
            raise ConfigError(
                "checkpoint_interval > 0 requires wal_dir: periodic incremental "
                "checkpoints are part of the durability subsystem and need a "
                "directory to land in"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ConfigError(
                f"metrics_port must be in [0, 65535] (0 = ephemeral) or None, got {self.metrics_port}"
            )
        if self.log_level not in LOG_LEVELS:
            raise ConfigError(
                f"unknown log level {self.log_level!r}; valid choices: {', '.join(LOG_LEVELS)}"
            )
        if self.log_format not in LOG_FORMATS:
            raise ConfigError(
                f"unknown log format {self.log_format!r}; valid choices: {', '.join(LOG_FORMATS)}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigError(
                f"trace_sample_rate must be within [0.0, 1.0] "
                f"(a head-sampling probability), got {self.trace_sample_rate}"
            )

    def with_shards(self, shards: int) -> "RuntimeConfig":
        """Return a copy of this config with a different shard count."""
        return replace(self, shards=shards)

    def with_backend(
        self, backend: str, worker_addresses: Optional[Tuple[str, ...]] = None
    ) -> "RuntimeConfig":
        """Return a copy of this config with a different worker backend.

        Switching *to* ``tcp`` requires passing ``worker_addresses`` (one
        ``host:port`` per shard); switching *away* from it clears any
        recorded addresses — they belong to the transport, not the
        workload, and a checkpoint restored onto another backend (or onto
        replacement hosts) must not drag stale addresses along.
        ``standby_addresses`` is always cleared: standbys are armed for a
        concrete fleet, and the addresses a checkpoint recorded belong to
        the run that wrote it, not to whatever fleet the restored service
        runs on — re-arm explicitly via ``RuntimeConfig(standby_addresses=...)``
        or :meth:`StreamingQueryService.rearm_standby`.
        """
        if backend != "tcp":
            return replace(self, backend=backend, worker_addresses=None, standby_addresses=None)
        addresses = worker_addresses if worker_addresses is not None else self.worker_addresses
        return replace(
            self,
            backend=backend,
            worker_addresses=tuple(addresses) if addresses else None,
            standby_addresses=None,
        )

    def without_wal(self) -> "RuntimeConfig":
        """Return a copy with durability disabled.

        Recovery builds the interim service with this config so that WAL
        replay does not itself get logged; the caller re-enables
        durability explicitly once the recovered state is safe.
        """
        return replace(self, wal_dir=None, checkpoint_interval=0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used in service checkpoints)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "RuntimeConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        known = {field: state[field] for field in cls.__dataclass_fields__ if field in state}
        return cls(**known)
