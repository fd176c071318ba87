"""The traced pass: a staged replay of the pipeline inside this process.

The live run measures the program as users meet it; it cannot say where the
time went, and ``src/`` carries no per-stage spans yet.  This pass therefore
replays the warm-up and closed-loop tuples through the *same public functions*
the live pipeline calls, in pipeline order, one stage at a time::

    iter_csv -> StreamRouter.route -> DurabilityManager.log_tuple
      -> ColumnarBatch.from_tuples -> to_wire -> encode_frame -> decode_value
      -> ColumnarBatch.from_wire -> StreamingRPQEngine.process_batch
      -> protocol.encode_events / decode_events -> merge_partition_events

skipping the stages a workload's configuration lacks.  Router, durability
manager and per-shard engines are those of a real (never started)
:class:`~repro.runtime.StreamingQueryService`, so placement, partitioning and
checkpoints are the service's own.  Each stage call sits in a span; wrappers
over the pre-pass kernels, the snapshot graph and the evaluators split
``process_batch`` further (see :mod:`instrument`).  The replay's result
digests must equal the oracle reference — the proof that these stages compose
the real pipeline.

What the replay cannot see — queue waits, socket time, pickling on the
multiprocessing backend, the session loops — is the gap that
``trace.coverage_share`` reports.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import repro.core.columnar.evaluator as columnar_evaluator
import repro.runtime.service as service_module
import repro.runtime.worker as worker_module
from repro.core.columnar.batch import ColumnarBatch
from repro.core.columnar.evaluator import ColumnarRAPQEvaluator, ColumnarSnapshot
from repro.core.engine import StreamingRPQEngine
from repro.core.rspq import RSPQEvaluator
from repro.graph.snapshot import SnapshotGraph
from repro.graph.stream import iter_csv
from repro.graph.window import WindowSpec
from repro.regex.analysis import analyze
from repro.runtime import RuntimeConfig, StreamingQueryService, protocol
from repro.runtime.durability.manager import DurabilityManager
from repro.runtime.transport_tcp import decode_value, encode_frame, encode_value

import oracle
from instrument import Timers
from workloads import BATCH_SIZE, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Share of the closed-loop tuples the untraced comparison replay covers.
_OVERHEAD_SHARE = 0.2

_FRAME_HEADER_BYTES = 8  # transport_tcp frames: u32 length + u32 crc


class _NullTimers:
    """Stands in for :class:`Timers` in the untraced comparison replay."""

    batch_id = 0

    def begin(self, key: str) -> None:
        pass

    def end(self) -> int:
        return 0


class Replay:
    """Result of the traced pass."""

    def __init__(self) -> None:
        self.layers: Dict[str, float] = {}
        self.layer_self_s: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}


class _Pipeline:
    """The staged pipeline of one workload, fed tuple chunks by :func:`replay`."""

    def __init__(self, workload: Workload, scale: float, scratch: Path, timers) -> None:
        self.workload = workload
        self.timers = timers
        self.window = WindowSpec(size=workload.window, slide=workload.slide)
        self.wire = workload.backend != "engine"
        self.tcp = workload.backend == "tcp"
        self.service: Optional[StreamingQueryService] = None
        self.durability: Optional[DurabilityManager] = None
        self.checkpoint_every = workload.checkpoint_every(scale)
        if workload.backend == "engine":
            engine = StreamingRPQEngine(self.window)
            for query in workload.queries:
                engine.register(query.name, query.expression, query.semantics)
            self.engines = [engine]
        else:
            wal_dir = scratch / "staged-wal" if workload.durable else None
            config = RuntimeConfig(
                shards=workload.shards,
                backend="threading",  # never started: only router, engines and WAL are used
                wal_dir=None if wal_dir is None else str(wal_dir),
                wal_fsync="batch",
                checkpoint_interval=self.checkpoint_every,
            )
            self.service = StreamingQueryService(self.window, config)
            for query in workload.queries:
                self.service.register(
                    query.name, query.expression, semantics=query.semantics, partitions=query.partitions
                )
            self.engines = [worker.engine for worker in self.service.workers]
            if workload.durable:
                self.durability = self.service.durability
                self.durability.attach(self.service)
        self.pending: List[list] = [[] for _ in self.engines]
        self.ingested = 0
        self.logged_since_checkpoint = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        self.batched_tuples = 0
        self.batches = 0
        self.logged = 0
        self.events = 0
        self.wire_bytes = 0
        self.frame_bytes = 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.peaks = {"rapq_nodes": 0, "rapq_trees": 0, "rspq_nodes": 0, "edges": 0}

    def evaluators(self):
        for engine in self.engines:
            for registered in engine.queries():
                yield registered.evaluator

    # ------------------------------------------------------------------ #

    def feed(self, chunk: list) -> None:
        """Push one chunk of input tuples through route, log and the batches."""
        timers = self.timers
        service = self.service
        if service is None:
            for tup in chunk:
                self._append(0, tup)
            self.ingested += len(chunk)
            return
        timers.begin("runtime.router")
        route = service.router.route
        routes = [route(tup) for tup in chunk]
        timers.end()
        if self.durability is not None:
            timers.begin("runtime.durability.log")
            log_tuple = self.durability.log_tuple
            index = self.ingested
            for tup, shards in zip(chunk, routes):
                index += 1
                if shards:
                    log_tuple(index, tup, shards)
                    self.logged += 1
                    self.logged_since_checkpoint += 1
            timers.end()
        self.ingested += len(chunk)
        timers.begin("runtime.service")
        for tup, shards in zip(chunk, routes):
            for shard in shards:
                self._append(shard, tup)
        if self.durability is not None and self.logged_since_checkpoint >= self.checkpoint_every:
            self.flush_all()
            self._checkpoint()
        timers.end()

    def _append(self, shard: int, tup) -> None:
        pending = self.pending[shard]
        pending.append(tup)
        if len(pending) >= BATCH_SIZE:
            self.pending[shard] = []
            self._batch(shard, pending)

    def flush_all(self) -> None:
        for shard, pending in enumerate(self.pending):
            if pending:
                self.pending[shard] = []
                self._batch(shard, pending)

    def _checkpoint(self) -> None:
        timers = self.timers
        timers.begin("runtime.durability.checkpoint")
        entry = self.durability.checkpoint(self.service, reason="interval")
        timers.end()
        self.logged_since_checkpoint = 0
        self.checkpoints += 1
        self.checkpoint_bytes += (self.durability.directory / entry["file"]).stat().st_size

    def _batch(self, shard: int, tuples: list) -> None:
        """One shard batch through build, wire, frame, engine and event codec."""
        timers = self.timers
        timers.batch_id += 1
        timers.begin("batch")
        timers.begin("core.columnar.batch.build")
        batch = ColumnarBatch.from_tuples(tuples)
        timers.end()
        if self.wire:
            timers.begin("core.columnar.batch.to_wire")
            payload = batch.to_wire()
            timers.end()
            self.wire_bytes += sum(len(part) for part in payload if isinstance(part, bytes))
            self.wire_bytes += len(encode_value(payload[7:]))
            if self.tcp:
                payload = self._cross_socket((protocol.BATCH, payload))[1]
            timers.begin("core.columnar.batch.from_wire")
            batch = ColumnarBatch.from_wire(payload)
            timers.end()
        timers.begin("core.engine")
        events = self.engines[shard].process_batch(batch)
        timers.end()
        if self.wire and events:
            timers.begin("runtime.protocol")
            wire_events = protocol.encode_events(events)
            timers.end()
            if self.tcp:
                wire_events = self._cross_socket((protocol.EVENTS, wire_events))[1]
            timers.begin("runtime.protocol")
            protocol.decode_events(wire_events)
            timers.end()
        timers.end()
        self.batches += 1
        self.batched_tuples += len(tuples)
        self.events += len(events)

    def _cross_socket(self, frame):
        """What a frame costs on the tcp transport, minus the socket itself."""
        timers = self.timers
        timers.begin("runtime.transport_tcp.encode")
        data = encode_frame(frame)
        timers.end()
        self.frame_bytes += len(data)
        timers.begin("runtime.transport_tcp.decode")
        body = data[_FRAME_HEADER_BYTES:]
        zlib.crc32(body)  # recv_frame verifies the checksum before decoding
        decoded = decode_value(body)
        timers.end()
        return decoded

    def sample_sizes(self) -> None:
        """Record index and snapshot sizes (outside every span)."""
        rapq_nodes = rapq_trees = rspq_nodes = edges = 0
        for evaluator in self.evaluators():
            size = evaluator.index_size()
            if isinstance(evaluator, RSPQEvaluator):
                rspq_nodes += size.get("nodes", 0)
            else:
                rapq_nodes += size.get("nodes", 0)
                rapq_trees += size.get("trees", 0)
            edges += len(evaluator.snapshot)
        peaks = self.peaks
        peaks["rapq_nodes"] = max(peaks["rapq_nodes"], rapq_nodes)
        peaks["rapq_trees"] = max(peaks["rapq_trees"], rapq_trees)
        peaks["rspq_nodes"] = max(peaks["rspq_nodes"], rspq_nodes)
        peaks["edges"] = max(peaks["edges"], edges)

    def results(self, name: str):
        if self.service is not None:
            return self.service.results(name)
        return self.engines[0].query(name).results

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Evaluator ``stats`` summed per evaluator family."""
        totals: Dict[str, Dict[str, float]] = {"rapq": {}, "rspq": {}}
        for evaluator in self.evaluators():
            family = totals["rspq" if isinstance(evaluator, RSPQEvaluator) else "rapq"]
            for key, value in evaluator.stats.items():
                family[key] = family.get(key, 0) + value
            family["events"] = family.get("events", 0) + len(evaluator.results)
        return totals

    def close(self) -> None:
        if self.durability is not None and self.durability.attached:
            self.durability.close()


def _install_wrappers(timers: Timers) -> None:
    for kernel in ("map_labels", "relevant_indices", "first_decrease", "boundary_crossings"):
        timers.patch(columnar_evaluator, kernel, "core.columnar.kernels")
    timers.patch(ColumnarSnapshot, "insert", "graph.snapshot.insert.columnar")
    timers.patch(SnapshotGraph, "insert", "graph.snapshot.insert")
    timers.patch(SnapshotGraph, "delete", "graph.snapshot.delete")
    timers.patch(ColumnarSnapshot, "expire", "graph.snapshot.expire.columnar")
    timers.patch(SnapshotGraph, "expire", "graph.snapshot.expire")
    timers.patch(ColumnarRAPQEvaluator, "process_batch", "core.rapq")
    timers.patch(RSPQEvaluator, "process", "core.rspq")
    timers.patch(RSPQEvaluator, "observe", "core.rspq")
    timers.patch(worker_module, "encode_rapq", "core.checkpoint")
    timers.patch(service_module, "merge_partition_events", "runtime.merger")


def _chunks(source, count: int, timers, parse: bool):
    """Yield ``count`` tuples from ``source`` in chunks of one batch.

    With ``parse`` the pull is a ``graph.stream`` span: the source is the lazy
    CSV reader, so materializing a chunk is the parse.
    """
    remaining = count
    while remaining > 0:
        if parse:
            timers.begin("graph.stream")
        chunk = list(itertools.islice(source, min(BATCH_SIZE, remaining)))
        if parse:
            timers.end()
        if not chunk:
            raise RuntimeError(f"input ended {remaining} tuples early")
        remaining -= len(chunk)
        yield chunk


def _drive(pipeline: _Pipeline, source, parse: bool, warm: int, closed: int, mark: int):
    """Replay the warm-up, then ``closed`` tuples; returns timing of the closed part.

    ``mark`` is a closed-loop tuple count whose wall-clock crossing time is
    returned too (the range the overhead comparison covers).
    """
    timers = pipeline.timers
    traced = isinstance(timers, Timers)
    for chunk in _chunks(source, warm, timers, parse):
        pipeline.feed(chunk)
    pipeline.flush_all()
    if traced:
        timers.reset()
    pipeline.reset_counters()
    baseline = pipeline.stats()
    fed = 0
    marked = None
    cpu_started = time.process_time()
    started = time.perf_counter()
    for chunk in _chunks(source, closed, timers, parse):
        pipeline.feed(chunk)
        fed += len(chunk)
        if traced:
            pipeline.sample_sizes()
        if marked is None and fed >= mark:
            marked = time.perf_counter() - started
    pipeline.flush_all()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return wall, cpu, marked if marked is not None else wall, baseline


def replay(workload: Workload, tuples: list, scale: float, scratch: Path, live) -> Replay:
    """Run the traced pass (plus the short untraced comparison) for one workload."""
    out = Replay()
    layers = out.layers
    warm, closed, _ = workload.phase_sizes(scale)
    mark = max(BATCH_SIZE, int(closed * _OVERHEAD_SHARE))
    parse = workload.csv_input

    def source():
        return iter(iter_csv(scratch / "stream.csv")) if parse else iter(tuples)

    compile_seconds = []
    for _ in range(5):
        started = time.perf_counter()
        analyses = [analyze(query.expression) for query in workload.queries]
        compile_seconds.append(time.perf_counter() - started)
    layers["regex.compile_ms"] = 1e3 * statistics.median(compile_seconds)
    layers["regex.dfa_states"] = float(sum(analysis.num_states for analysis in analyses))

    timers = Timers(keep_spans=True)
    _install_wrappers(timers)
    pipeline = _Pipeline(workload, scale, scratch, timers)
    try:
        wall, cpu, marked_wall, baseline = _drive(pipeline, source(), parse, warm, closed, mark)
        timers.begin("results")
        streams = {query.name: pipeline.results(query.name) for query in workload.queries}
        timers.end()
    finally:
        timers.restore()
        pipeline.close()
    out.digests = {name: oracle.digest_events(stream.events) for name, stream in streams.items()}

    plain = _Pipeline(workload, scale, scratch / "untraced", _NullTimers())
    try:
        plain_wall, _, _, _ = _drive(plain, source(), parse, warm, mark, mark)
    finally:
        plain.close()
    layers["trace.overhead_share"] = (marked_wall - plain_wall) / marked_wall if marked_wall > 0 else 0.0
    layers["trace.coverage_share"] = cpu / live.closed_cpu if live.closed_cpu > 0 else 0.0

    _derive_layers(layers, timers, pipeline, baseline, closed, streams, workload)
    out.layer_self_s = timers.self_seconds()
    out.layer_self_s["staged.wall"] = wall
    _write_trace(workload, timers, pipeline, wall, cpu)
    return out


def _derive_layers(
    layers, timers: Timers, pipeline: _Pipeline, baseline, count: int, streams, workload
) -> None:
    batched = max(1, pipeline.batched_tuples)

    def per(seconds: float, units: float) -> float:
        return 1e9 * seconds / units if units else 0.0

    layers["graph.stream.parse_ns_per_tuple"] = per(timers.self_s("graph.stream"), count)
    layers["runtime.router.route_ns_per_tuple"] = per(timers.self_s("runtime.router"), count)
    layers["core.columnar.batch.build_ns_per_tuple"] = per(
        timers.self_s("core.columnar.batch.build"), batched
    )
    layers["core.columnar.batch.to_wire_ns_per_tuple"] = per(
        timers.self_s("core.columnar.batch.to_wire"), batched
    )
    layers["core.columnar.batch.from_wire_ns_per_tuple"] = per(
        timers.self_s("core.columnar.batch.from_wire"), batched
    )
    layers["core.columnar.batch.wire_bytes_per_tuple"] = pipeline.wire_bytes / batched
    layers["runtime.transport_tcp.encode_frame_ns_per_tuple"] = per(
        timers.self_s("runtime.transport_tcp.encode"), batched
    )
    layers["runtime.transport_tcp.decode_ns_per_tuple"] = per(
        timers.self_s("runtime.transport_tcp.decode"), batched
    )
    layers["runtime.transport_tcp.frame_bytes_per_tuple"] = pipeline.frame_bytes / batched
    layers["runtime.protocol.events_codec_ns_per_event"] = per(
        timers.self_s("runtime.protocol"), pipeline.events
    )
    layers["core.columnar.kernels.prepass_ns_per_tuple"] = per(
        timers.self_s("core.columnar.kernels"), batched
    )

    after = pipeline.stats()

    def delta(family: str, key: str) -> float:
        return float(after[family].get(key, 0) - baseline.get(family, {}).get(key, 0))

    processed = delta("rapq", "tuples_processed") + delta("rspq", "tuples_processed")
    seen = processed + delta("rapq", "tuples_discarded") + delta("rspq", "tuples_discarded")
    layers["core.columnar.kernels.relevant_share"] = processed / seen if seen else 0.0

    insert_self = timers.self_s("graph.snapshot.insert") + timers.self_s("graph.snapshot.insert.columnar")
    layers["graph.snapshot.insert_ns_per_edge"] = per(insert_self, timers.calls("graph.snapshot.insert"))
    columnar_expire = timers.total_s("graph.snapshot.expire.columnar")
    layers["graph.snapshot.expire_s"] = columnar_expire + timers.total_s("graph.snapshot.expire")
    layers["graph.snapshot.edges_peak"] = float(pipeline.peaks["edges"])

    rapq_expiry = max(0.0, delta("rapq", "expiry_seconds") - columnar_expire)
    layers["core.rapq.expiry_s"] = rapq_expiry
    layers["core.rapq.tree_s"] = max(0.0, timers.self_s("core.rapq") - rapq_expiry)
    for key in ("expiry_runs", "nodes_expired", "insert_calls", "deletions_processed"):
        layers[f"core.rapq.{key}"] = delta("rapq", key)
    layers["core.rapq.index_nodes_peak"] = float(pipeline.peaks["rapq_nodes"])
    layers["core.rapq.index_trees_peak"] = float(pipeline.peaks["rapq_trees"])
    layers["core.rapq.results_per_ktuple"] = 1e3 * delta("rapq", "events") / count
    layers["core.rspq.process_ns_per_tuple"] = per(timers.total_s("core.rspq"), timers.calls("core.rspq"))
    layers["core.rspq.index_nodes_peak"] = float(pipeline.peaks["rspq_nodes"])

    layers["core.checkpoint.encode_ms"] = 1e3 * timers.total_s("core.checkpoint")
    layers["core.checkpoint.bytes"] = float(pipeline.checkpoint_bytes)
    merged = sum(len(streams[query.name]) for query in workload.queries if query.partitions > 1)
    layers["runtime.merger.merge_ns_per_event"] = per(timers.total_s("runtime.merger"), merged)
    layers["runtime.merger.events"] = float(merged if timers.calls("runtime.merger") else 0)
    layers["runtime.durability.log_ns_per_tuple"] = per(
        timers.self_s("runtime.durability.log"), pipeline.logged
    )


def _write_trace(workload: Workload, timers: Timers, pipeline: _Pipeline, wall: float, cpu: float) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "staged_wall_s": wall,
        "staged_cpu_s": cpu,
        "batches": pipeline.batches,
        "span_fields": ["id", "parent", "batch", "name", "start_ns", "end_ns"],
        "spans": timers.spans,
        "aggregated": {
            key: {"total_ns": total, "self_ns": own, "calls": calls}
            for key, (total, own, calls) in sorted(timers.records.items())
            if calls
        },
    }
    (OUT_DIR / f"trace-{workload.name}.json").write_text(json.dumps(record))
