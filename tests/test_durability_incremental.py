"""Incremental checkpoints: exactness, compression, cross-version chains."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import canonical_bytes, checkpoint_rapq, restore_rapq
from repro.core.rapq import RAPQEvaluator
from repro.datasets.synthetic import UniformStreamGenerator
from repro.errors import CheckpointError
from repro.graph.stream import with_deletions
from repro.graph.window import WindowSpec
from repro.runtime import RuntimeConfig, StreamingQueryService
from repro.runtime.durability.incremental import (
    apply_evaluator_delta,
    apply_service_delta,
    encoded_size,
    evaluator_delta,
    service_delta,
)

WINDOW = WindowSpec(size=30, slide=3)


def make_stream(count, seed=13, deletions=0.1):
    generator = UniformStreamGenerator(
        num_vertices=40, labels=("a", "b", "c"), edges_per_timestamp=4, seed=seed
    )
    stream = list(generator.generate(count))
    return with_deletions(stream, deletions, seed=seed) if deletions else stream


def snapshot_state(evaluator):
    """A JSON-round-tripped checkpoint, as the durability manager sees it."""
    return json.loads(canonical_bytes(checkpoint_rapq(evaluator)))


def future_events(evaluator, tuples):
    for tup in tuples:
        evaluator.process(tup)
    return [(e.source, e.target, e.timestamp, e.positive) for e in evaluator.results.events]


class TestEvaluatorDelta:
    def test_apply_reproduces_the_current_state_exactly(self):
        stream = make_stream(1_500)
        evaluator = RAPQEvaluator("a b*", WINDOW)
        for tup in stream[:800]:
            evaluator.process(tup)
        base = snapshot_state(evaluator)
        for tup in stream[800:]:
            evaluator.process(tup)
        current = snapshot_state(evaluator)
        delta = evaluator_delta(base, current)
        assert apply_evaluator_delta(base, delta) == current

    def test_restored_chain_emits_identical_future_results(self):
        stream = make_stream(1_600, seed=29)
        evaluator = RAPQEvaluator("a+", WINDOW)
        for tup in stream[:700]:
            evaluator.process(tup)
        base = snapshot_state(evaluator)
        for tup in stream[700:1_100]:
            evaluator.process(tup)
        delta = evaluator_delta(base, snapshot_state(evaluator))
        restored = restore_rapq(apply_evaluator_delta(base, delta))
        # bit-identical continuation: same events, same order, from here on
        assert future_events(restored, stream[1_100:]) == future_events(evaluator, stream[1_100:])

    def test_steady_state_delta_is_smaller_than_a_full_checkpoint(self):
        stream = make_stream(3_000, seed=41)
        evaluator = RAPQEvaluator("a b*", WINDOW)
        for tup in stream[:2_000]:  # well past one window: steady state
            evaluator.process(tup)
        base = snapshot_state(evaluator)
        for tup in stream[2_000:2_400]:
            evaluator.process(tup)
        current = snapshot_state(evaluator)
        delta = evaluator_delta(base, current)
        assert apply_evaluator_delta(base, delta) == current
        assert encoded_size(delta) < encoded_size(current)

    def test_unchanged_state_deltas_to_almost_nothing(self):
        stream = make_stream(600, seed=7)
        evaluator = RAPQEvaluator("a+", WINDOW)
        for tup in stream:
            evaluator.process(tup)
        state = snapshot_state(evaluator)
        delta = evaluator_delta(state, state)
        assert apply_evaluator_delta(state, delta) == state
        # only the scalar header survives: no section entries at all
        assert set(delta) == {"delta_format", "query", "scalars"}

    def test_delta_refuses_cross_query_states(self):
        one = snapshot_state(RAPQEvaluator("a+", WINDOW))
        other = snapshot_state(RAPQEvaluator("b+", WINDOW))
        with pytest.raises(ValueError, match="query"):
            evaluator_delta(one, other)

    def test_apply_rejects_mismatched_base(self):
        stream = make_stream(400, seed=3)
        evaluator = RAPQEvaluator("a+", WINDOW)
        for tup in stream[:200]:
            evaluator.process(tup)
        base = snapshot_state(evaluator)
        for tup in stream[200:]:
            evaluator.process(tup)
        delta = evaluator_delta(base, snapshot_state(evaluator))
        wrong = snapshot_state(RAPQEvaluator("b c", WINDOW))
        with pytest.raises(CheckpointError, match="applied to a"):
            apply_evaluator_delta(wrong, delta)

    def test_apply_rejects_unknown_delta_format(self):
        state = snapshot_state(RAPQEvaluator("a+", WINDOW))
        with pytest.raises(CheckpointError, match="delta format"):
            apply_evaluator_delta(state, {"delta_format": 99, "query": "a+"})


class TestFormatOneRefused:
    def test_format_1_checkpoint_is_refused(self):
        """A pre-ordering checkpoint cannot seed a chain: restore refuses it."""
        original = RAPQEvaluator("a b*", WINDOW)
        for tup in make_stream(1_200, seed=17)[:600]:
            original.process(tup)
        v2_state = checkpoint_rapq(original)
        # The format-1 layout: no iteration orders, no emission keys.
        v1_state = {
            "format": 1,
            "query": v2_state["query"],
            "window": dict(v2_state["window"]),
            "result_semantics": v2_state["result_semantics"],
            "current_time": v2_state["current_time"],
            "last_expiry_boundary": v2_state["last_expiry_boundary"],
            "stats": dict(v2_state["stats"]),
            "snapshot": v2_state["snapshot"],
            "trees": v2_state["trees"],
            "results": v2_state["results"],
        }
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            restore_rapq(json.loads(json.dumps(v1_state)))


class TestServiceDelta:
    def build_service_state(self, stream_slice, service=None):
        if service is None:
            service = StreamingQueryService(WINDOW, RuntimeConfig(shards=2, batch_size=32))
            service.register("edges", "a+")
            service.register("pairs", "b c", partitions=2)
            service.start()
        service.ingest(stream_slice)
        return service, json.loads(json.dumps(service.checkpoint()))

    def test_service_delta_round_trips_members_and_removals(self):
        stream = make_stream(1_500, seed=53)
        service, base = self.build_service_state(stream[:800])
        service.register("late", "c+")
        service.deregister("edges")
        _, current = self.build_service_state(stream[800:], service=service)
        service.stop()
        delta = service_delta(base, current)
        folded = apply_service_delta(base, delta)
        assert folded == current
        names = {entry["name"] for entry in folded["queries"]}
        assert names == {"pairs", "late"}
        # the partitioned query contributes one entry per member
        assert sum(1 for entry in folded["queries"] if entry["name"] == "pairs") == 2

    def test_apply_rejects_dangling_reference(self):
        stream = make_stream(900, seed=59)
        service, base = self.build_service_state(stream[:500])
        _, current = self.build_service_state(stream[500:], service=service)
        service.stop()
        delta = service_delta(base, current)
        base["queries"] = [entry for entry in base["queries"] if entry["name"] != "edges"]
        with pytest.raises(CheckpointError, match="absent from its base"):
            apply_service_delta(base, delta)
