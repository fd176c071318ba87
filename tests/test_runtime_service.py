"""Tests for the sharded runtime service.

The load-bearing property: the multi-worker runtime must be *semantically
invisible* — on the same input it produces exactly the results of the
single-threaded engine, including under explicit deletions and window
expiry.  Plus lifecycle, dynamic registration, backpressure-path smoke,
metrics and coordinated checkpoint/restore.
"""

from __future__ import annotations

import threading

import pytest

from repro import RuntimeStateError, StreamingRPQEngine, WindowSpec, sgt
from repro.datasets.synthetic import UniformStreamGenerator
from repro.graph.stream import with_deletions
from repro.runtime import RuntimeConfig, StreamingQueryService

QUERIES = {
    "chains-a": "a+",
    "alternate": "(a b)+",
    "c-then-b": "c b*",
    "pair": "b c",
}

WINDOW = WindowSpec(size=40, slide=4)


def synthetic_stream(num_edges: int, deletion_ratio: float = 0.1, seed: int = 11):
    generator = UniformStreamGenerator(
        num_vertices=80, labels=("a", "b", "c", "noise"), edges_per_timestamp=5, seed=seed
    )
    stream = list(generator.generate(num_edges))
    if deletion_ratio > 0:
        stream = with_deletions(stream, deletion_ratio, seed=seed)
    return stream


def reference_triples(stream, queries=QUERIES, window=WINDOW):
    engine = StreamingRPQEngine(window)
    for name, expression in queries.items():
        engine.register(name, expression)
    engine.process_stream(stream)
    return {
        name: {(e.source, e.target, e.timestamp) for e in engine.query(name).results.positives()}
        for name in queries
    }


def service_triples(stream, config, queries=QUERIES, window=WINDOW):
    service = StreamingQueryService(window, config)
    for name, expression in queries.items():
        service.register(name, expression)
    with service:
        service.ingest(stream)
        service.drain()
        return {name: service.result_triples(name) for name in queries}


class TestEquivalenceWithSingleThreadedEngine:
    def test_four_shards_match_engine_on_10k_tuples_with_deletions(self):
        """Acceptance: shards=4 == single engine on a 10k synthetic stream."""
        stream = synthetic_stream(10_000, deletion_ratio=0.1)
        assert len(stream) > 10_000  # insertions plus injected deletions
        expected = reference_triples(stream)
        actual = service_triples(stream, RuntimeConfig(shards=4, batch_size=64))
        assert actual == expected
        assert any(expected.values())  # the comparison is not vacuous

    @pytest.mark.parametrize("policy", ["round_robin", "hash", "label_affinity"])
    def test_all_policies_preserve_results(self, policy):
        stream = synthetic_stream(2_000, deletion_ratio=0.15, seed=23)
        expected = reference_triples(stream)
        config = RuntimeConfig(shards=3, batch_size=17, sharding=policy)
        assert service_triples(stream, config) == expected

    def test_single_shard_matches_engine(self):
        stream = synthetic_stream(1_500, deletion_ratio=0.1, seed=5)
        expected = reference_triples(stream)
        assert service_triples(stream, RuntimeConfig(shards=1, batch_size=8)) == expected

    def test_tiny_batches_force_backpressure(self):
        """batch_size=1 and queue_depth=1 exercise the blocking-queue path."""
        stream = synthetic_stream(600, deletion_ratio=0.2, seed=9)
        expected = reference_triples(stream)
        # The in-process backend has no queue; only out-of-process ones block.
        config = RuntimeConfig(shards=2, batch_size=1, queue_depth=1, backend="multiprocessing")
        assert service_triples(stream, config) == expected

    def test_negative_events_preserved(self):
        stream = synthetic_stream(2_000, deletion_ratio=0.3, seed=31)
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=4))
        engine = StreamingRPQEngine(WINDOW)
        for name, expression in QUERIES.items():
            service.register(name, expression)
            engine.register(name, expression)
        engine.process_stream(stream)
        with service:
            service.ingest(stream)
            service.drain()
            for name in QUERIES:
                expected = [
                    (e.source, e.target, e.timestamp, e.positive)
                    for e in engine.query(name).results.events
                ]
                actual = [(e.source, e.target, e.timestamp, e.positive) for e in service.results(name).events]
                assert actual == expected, name


class TestLifecycle:
    def test_ingest_requires_running_service(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2))
        service.register("q", "a+")
        with pytest.raises(RuntimeStateError):
            service.ingest_one(sgt(1, "x", "y", "a"))

    def test_double_start_rejected(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2))
        with service:
            with pytest.raises(RuntimeStateError):
                service.start()
        assert not service.running

    def test_stop_is_idempotent(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2))
        service.start()
        service.stop()
        service.stop()
        assert not service.running

    def test_register_while_running_sees_later_tuples_only(self):
        # One shard so both queries are co-located, and batch_size > 1 so
        # the first tuple is still *buffered* when the late query registers:
        # registration must flush it to the shard first, or the new query
        # would see a pre-registration tuple.
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=1, batch_size=8))
        service.register("early", "a+")
        with service:
            service.ingest_one(sgt(1, "u", "v", "a"))
            service.register("late", "a+")
            service.ingest_one(sgt(2, "v", "w", "a"))
            service.drain()
            assert service.answer_pairs("early") == {("u", "v"), ("u", "w"), ("v", "w")}
            # the late query never saw the first tuple
            assert service.answer_pairs("late") == {("v", "w")}

    def test_deregister_while_running(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2, batch_size=1))
        service.register("gone", "a+")
        service.register("kept", "a+")
        with service:
            service.ingest_one(sgt(1, "u", "v", "a"))
            service.deregister("gone")
            assert "gone" not in service
            service.ingest_one(sgt(2, "v", "w", "a"))
            service.drain()
            assert service.answer_pairs("kept") == {("u", "v"), ("u", "w"), ("v", "w")}
        assert service.queries() == ["kept"]

    def test_duplicate_registration_rejected(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2))
        service.register("q", "a+")
        with pytest.raises(ValueError):
            service.register("q", "b+")


class TestResultsAndMetrics:
    def test_global_events_are_timestamp_ordered_and_complete(self):
        stream = synthetic_stream(2_000, deletion_ratio=0.1, seed=17)
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=3))
        for name, expression in QUERIES.items():
            service.register(name, expression)
        with service:
            service.ingest(stream)
            service.drain()
            merged = list(service.global_events())
            per_query = {name: len(service.results(name).events) for name in QUERIES}
        stamps = [tagged.timestamp for tagged in merged]
        assert stamps == sorted(stamps)
        assert len(merged) == sum(per_query.values())
        assert {tagged.query for tagged in merged} <= set(QUERIES)

    def test_on_result_callback_fires_for_every_positive(self):
        stream = synthetic_stream(1_000, deletion_ratio=0.0, seed=3)
        lock = threading.Lock()
        seen = []

        def on_result(name, source, target, timestamp):
            with lock:
                seen.append((name, source, target, timestamp))

        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2), on_result=on_result)
        for name, expression in QUERIES.items():
            service.register(name, expression)
        with service:
            service.ingest(stream)
            service.drain()
            expected = {(name, *triple) for name in QUERIES for triple in service.result_triples(name)}
        assert set(seen) == expected

    def test_results_arrive_within_the_flushing_ingest(self):
        seen = []
        service = StreamingQueryService(
            WINDOW,
            RuntimeConfig(shards=1, batch_size=4),
            on_result=lambda *event: seen.append(event),
        )
        service.register("q", "a+")
        with service:
            for timestamp, (source, target) in enumerate(["uv", "vw", "wx"], start=1):
                service.ingest_one(sgt(timestamp, source, target, "a"))
            assert seen == []  # the batch is still buffering
            service.ingest_one(sgt(4, "x", "y", "a"))  # fills and flushes it
            assert ("q", "u", "y", 4) in seen and len(seen) == 10

    def test_in_process_backend_starts_no_thread(self):
        stream = synthetic_stream(400, deletion_ratio=0.0, seed=13)
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=1, batch_size=16))
        service.register("q", "a+")
        before = threading.active_count()
        with service:
            assert threading.active_count() == before
            worker = service.workers[0]
            service.ingest(stream[:200])
            busy = worker.metrics()["busy_seconds"]
            assert busy > 0 and worker.queue_depth() == 0
            service.ingest(stream[200:])
            assert worker.metrics()["busy_seconds"] > busy

    def test_summary_aggregates_shards_and_queries(self):
        stream = synthetic_stream(1_000, deletion_ratio=0.1, seed=7)
        config = RuntimeConfig(shards=3, sharding="round_robin")
        service = StreamingQueryService(WINDOW, config)
        for name, expression in QUERIES.items():
            service.register(name, expression)
        with service:
            service.ingest(stream)
            service.drain()
            summary = service.summary()
        assert summary["config"]["shards"] == 3
        assert summary["totals"]["tuples_ingested"] == len(stream)
        assert len(summary["shards"]) == 3
        assert set(summary["queries"]) == set(QUERIES)
        # "noise"-labelled tuples are relevant to no query and dropped at the router
        assert summary["totals"]["tuples_dropped_unroutable"] > 0
        for stats in summary["shards"]:
            assert stats["tuples"] >= 0

    def test_worker_failure_surfaces_at_drain(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=1, batch_size=1))
        service.register("q", "a+")
        from repro import ShardWorkerError

        with pytest.raises(ShardWorkerError):
            with service:
                # An out-of-order batch makes the engine raise on the worker;
                # the failure must surface at the next coordination point.
                service.ingest_one(sgt(5, "x", "y", "a"))
                service.ingest_one(sgt(1, "y", "z", "a"))
                service.drain()
        # the failure must not leak running workers or a running service
        assert not service.running
        assert all(not worker.running for worker in service.workers)

    def test_stop_shuts_workers_down_even_when_drain_fails(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2, batch_size=1))
        service.register("q", "a+")
        service.start()
        service.ingest_one(sgt(5, "x", "y", "a"))
        service.ingest_one(sgt(1, "y", "z", "a"))  # poisons the owning shard
        from repro import ShardWorkerError

        with pytest.raises(ShardWorkerError):
            service.stop()
        assert not service.running
        assert all(not worker.running for worker in service.workers)

    def test_poisoned_shard_stays_poisoned(self):
        """Every interaction after a batch failure re-raises (sticky failure)."""
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=1, batch_size=1))
        service.register("q", "a+")
        from repro import ShardWorkerError

        with pytest.raises(ShardWorkerError):
            with service:
                service.ingest_one(sgt(5, "x", "y", "a"))
                service.ingest_one(sgt(1, "y", "z", "a"))
                service.drain()
        with pytest.raises(ShardWorkerError):
            service.results("q")
        with pytest.raises(ShardWorkerError):
            service.workers[0].start()


class TestCheckpointRestore:
    def test_round_trip_resumes_identically(self, tmp_path):
        """Checkpoint mid-stream, restore, finish: results match an unbroken run."""
        stream = synthetic_stream(4_000, deletion_ratio=0.1, seed=19)
        half = len(stream) // 2
        config = RuntimeConfig(shards=4, batch_size=32)

        service = StreamingQueryService(WINDOW, config)
        for name, expression in QUERIES.items():
            service.register(name, expression)
        path = tmp_path / "service.json"
        with service:
            service.ingest(stream[:half])
            service.save_checkpoint(path)  # checkpoint() drains first
            service.ingest(stream[half:])
            service.drain()
            unbroken = {name: service.result_triples(name) for name in QUERIES}

        restored = StreamingQueryService.load_checkpoint(path)
        assert restored.queries() == sorted(QUERIES)
        assert restored.config == config
        with restored:
            restored.ingest(stream[half:])
            restored.drain()
            resumed = {name: restored.result_triples(name) for name in QUERIES}
        assert resumed == unbroken

    def test_restore_onto_different_shard_count(self, tmp_path):
        stream = synthetic_stream(2_000, deletion_ratio=0.1, seed=29)
        half = len(stream) // 2
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=4))
        for name, expression in QUERIES.items():
            service.register(name, expression)
        path = tmp_path / "service.json"
        with service:
            service.ingest(stream[:half])
            service.save_checkpoint(path)
            service.ingest(stream[half:])
            service.drain()
            unbroken = {name: service.result_triples(name) for name in QUERIES}

        narrow = StreamingQueryService.load_checkpoint(path, config=RuntimeConfig(shards=2, batch_size=16))
        with narrow:
            narrow.ingest(stream[half:])
            narrow.drain()
            assert {name: narrow.result_triples(name) for name in QUERIES} == unbroken

    def test_checkpoint_rejects_non_arbitrary_semantics(self):
        service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2))
        service.register("simple", "a+", semantics="simple")
        with pytest.raises(ValueError):
            service.checkpoint()

    def test_restore_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            StreamingQueryService.restore({"format": 999})
