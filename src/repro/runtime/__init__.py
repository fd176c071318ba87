r"""Sharded parallel runtime: multi-worker execution subsystem for persistent RPQs.

The paper's algorithms are single-threaded per-query evaluators; this
package adds the execution layer that turns them into a scalable service.

Architecture — four cooperating pieces behind one facade::

    tuples ──> StreamRouter ──> per-shard bounded queues ──> ShardWorker (engine)
                  │                                             │
                  └─ ShardingPolicy places queries              └─ results
                                                                    │
    global result stream  <── timestamp-ordered k-way merge  <──────┘

* :mod:`~repro.runtime.config` — :class:`RuntimeConfig`: shard count,
  batch size, queue depth (backpressure bound), worker backend and
  sharding policy.
* :mod:`~repro.runtime.router` — :class:`StreamRouter` with pluggable
  :class:`ShardingPolicy` (``round_robin``, ``hash``, ``label_affinity``).
  Parallelism is per *query* by default — each query lives on exactly one
  shard, and a tuple is routed to every shard hosting a query whose
  alphabet contains the tuple's label (others cannot affect any result,
  §5.2) — and optionally *within* a query: one registered with
  ``partitions=K`` (or split live via
  :meth:`StreamingQueryService.split`) runs as ``K`` root-partition
  evaluators on distinct shards, whose streams merge back bit-exactly
  (:func:`merge_partition_events`).
* :mod:`~repro.runtime.protocol` — the typed wire protocol between the
  coordinator and its workers: control frames (``REGISTER`` / ``RESTORE``
  / ``DEREGISTER`` / ``RESULTS`` / ``PRESULTS`` / ``CHECKPOINT`` /
  ``MIGRATE`` / ``SUMMARY`` / ``METRICS`` / ``DRAIN`` / ``STOP``), batch
  frames and response frames (replies, live result events, failure
  reports), all with compact tuple-based encodings — no closures or rich
  objects ever cross a worker boundary.
* :mod:`~repro.runtime.worker` — :class:`ShardWorker`: a private
  :class:`~repro.core.engine.StreamingRPQEngine` per shard.  Three
  transports: :class:`InlineShardWorker` (``threading`` backend, batches
  run on the coordinator thread as they flush; wins by label filtering),
  and one serve loop fed from a bounded queue in :class:`ProcessShardWorker`
  (``multiprocessing`` backend, true CPU parallelism; shard state ships
  as serialized frames) and :class:`TcpShardWorker` (``tcp`` backend,
  :mod:`~repro.runtime.transport_tcp`: the coordinator dials
  ``repro worker --listen`` processes on remote hosts and the same frames
  flow over length-prefixed CRC-checked sockets — shards on other
  machines, recovered after a lost host by WAL replay; see
  ``docs/NETWORKING.md``).
* :mod:`~repro.runtime.merger` — lazy timestamp-ordered k-way merge of the
  per-query result streams into one global stream (shares the heap merge
  with :func:`repro.graph.stream.merge_streams`), plus the exact
  emission-key merge reassembling a partitioned query's streams.
* :mod:`~repro.runtime.rebalancer` — pluggable :class:`RebalancePolicy`
  (``manual``, ``load_aware``) proposing *live query migrations* between
  shards — and, for whale queries no migration can help, *live splits*
  (:class:`SplitPlan`) — from per-label routed-tuple loads.  The
  mechanisms are :meth:`StreamingQueryService.migrate` (drain the source
  shard, ship the evaluator as an order-exact checkpoint blob,
  ``MIGRATE`` -> ``RESTORE`` frames, re-route with an epoch bump) and
  :meth:`StreamingQueryService.split` (extract, partition the blob by
  tree root, restore each piece on its own shard) — the global result
  stream of a migrated or split run is bit-identical to an untouched one.
* :mod:`~repro.runtime.service` — :class:`StreamingQueryService`: lifecycle
  (``start`` / ``ingest`` / ``drain`` / ``stop``, also a context manager),
  dynamic ``register`` / ``deregister`` while running, aggregated
  per-shard metrics (:meth:`~service.StreamingQueryService.summary`) and
  coordinated checkpoint/restore of all shard engines
  (:meth:`~service.StreamingQueryService.checkpoint`, reusing
  :mod:`repro.core.checkpoint`).
* :mod:`~repro.runtime.durability` — crash safety:
  :class:`DurabilityManager` write-ahead-logs every routed tuple and
  topology change (one CRC-checked log per shard, written at routing
  time) and takes periodic *incremental* checkpoints (exact deltas
  against the last order-exact base, promoted to fresh bases so chain
  and log stay bounded); :class:`RecoveryManager` folds base + deltas,
  replays the per-shard WAL tails in parallel and hands back a service
  whose subsequent results are bit-identical to an uninterrupted run.
  Enable with ``RuntimeConfig(wal_dir=...)`` / ``serve --wal``; recover
  with ``repro recover``.
* :mod:`~repro.runtime.replication` — warm failover for the ``tcp``
  backend: with ``RuntimeConfig(standby_addresses=...)`` /
  ``serve --standby`` each shard keeps a *hot standby* on a second worker
  process — :class:`ReplicationManager` streams every logged record to a
  live-but-muted replica as it is written, and on primary loss the
  service *promotes* the standby (unmute at the exact acked LSN, adopt
  the session, re-arm in the background) instead of pausing for WAL
  replay: zero records replayed, bit-identical results.  See the
  replication section of ``docs/NETWORKING.md``.
* :mod:`~repro.runtime.observability` — the runtime's eyes:
  a dependency-free :class:`MetricsRegistry` (counters, gauges,
  log-bucketed histograms) that every service instruments itself into,
  rendered as Prometheus text exposition; structured logging
  (:func:`configure_logging`, text or JSON lines, operation-ID
  correlation across coordinator and workers for migrate / split /
  recover); and an :class:`ObservabilityServer` — a stdlib HTTP thread
  serving ``/metrics`` and ``/healthz`` when
  ``RuntimeConfig(metrics_port=...)`` / ``serve --metrics-port`` is set.
  Worker-side counters travel over the existing typed ``METRICS``
  frames, so both backends export identically-shaped series.  See
  ``docs/OBSERVABILITY.md``.

Because every shard sees its tuples in stream order — and a partitioned
query's members each see the query's full stream while owning disjoint
spanning trees — the service's output is tuple-for-tuple identical to the
single-threaded engine, verified by ``tests/test_runtime_service.py`` and
``tests/test_runtime_partition.py``.

Command-line interface::

    # evaluate one query through the sharded runtime, on real cores
    python -m repro run --query "a+" --input stream.csv --window 50 \
                        --shards 4 --batch-size 128 --backend multiprocessing

    # run a service with several persistent queries across shards
    python -m repro serve --input stream.csv --window 50 --shards 4 \
                          --query "chains=follows+" --query "pings=ping ping*" \
                          --policy label_affinity --checkpoint state.json

``serve`` flags: repeatable ``--query [name=]expr``, ``--shards``,
``--backend`` (worker backend), ``--batch-size``, ``--queue-depth``,
``--policy`` (sharding policy), ``--partitions`` (root partitions per
query), ``--rebalance`` / ``--rebalance-interval`` (live rebalancing),
``--semantics``, ``--deletions``, ``--limit``, ``--checkpoint PATH``
(write a coordinated checkpoint after draining), ``--show-results N``
(print the head of the merged global result stream).

Benchmarks: ``benchmarks/bench_runtime_scaling.py`` (backend × shard
count vs the single-threaded engine),
``benchmarks/bench_rebalancing.py`` (live migration vs a skewed
placement) and ``benchmarks/bench_partitioned_whale.py`` (whale splitting
vs a pinned placement); each emits a machine-readable
``results/BENCH_*.json`` record gated by
``benchmarks/check_regression.py``.
"""

from . import protocol
from .config import BACKENDS, FSYNC_POLICIES, REBALANCE_POLICIES, SHARDING_POLICIES, RuntimeConfig
from .durability import DurabilityManager, RecoveryManager, RecoveryResult
from .merger import (
    TaggedResultEvent,
    collect_results,
    merge_partition_events,
    merge_result_events,
    merge_result_streams,
)
from .observability import (
    MetricsRegistry,
    ObservabilityServer,
    configure_logging,
    get_logger,
    new_operation_id,
)
from .rebalancer import (
    LoadAwarePolicy,
    ManualPolicy,
    MigrationPlan,
    RebalancePlan,
    RebalancePolicy,
    ShardLoad,
    SplitPlan,
    make_rebalance_policy,
)
from .replication import ReplicationManager, StandbyReplica
from .router import (
    HashPolicy,
    LabelAffinityPolicy,
    RoundRobinPolicy,
    ShardingPolicy,
    ShardView,
    StreamRouter,
    make_policy,
)
from .service import StreamingQueryService
from .transport_tcp import TcpShardWorker, TcpWorkerServer
from .worker import (
    WORKER_BACKENDS,
    InlineShardWorker,
    ProcessShardWorker,
    ShardEngineServer,
    ShardWorker,
    create_worker,
)

__all__ = [
    "BACKENDS",
    "FSYNC_POLICIES",
    "REBALANCE_POLICIES",
    "SHARDING_POLICIES",
    "WORKER_BACKENDS",
    "DurabilityManager",
    "HashPolicy",
    "InlineShardWorker",
    "LabelAffinityPolicy",
    "LoadAwarePolicy",
    "ManualPolicy",
    "MetricsRegistry",
    "MigrationPlan",
    "ObservabilityServer",
    "ProcessShardWorker",
    "RebalancePlan",
    "RebalancePolicy",
    "RecoveryManager",
    "RecoveryResult",
    "ReplicationManager",
    "RoundRobinPolicy",
    "RuntimeConfig",
    "ShardEngineServer",
    "ShardLoad",
    "ShardView",
    "ShardWorker",
    "ShardingPolicy",
    "SplitPlan",
    "StandbyReplica",
    "StreamRouter",
    "StreamingQueryService",
    "TaggedResultEvent",
    "TcpShardWorker",
    "TcpWorkerServer",
    "collect_results",
    "configure_logging",
    "create_worker",
    "get_logger",
    "make_policy",
    "make_rebalance_policy",
    "merge_partition_events",
    "merge_result_events",
    "merge_result_streams",
    "new_operation_id",
    "protocol",
]
