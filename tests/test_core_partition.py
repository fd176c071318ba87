"""Root partitioning of the RAPQ evaluator (repro.core.partition).

The contract under test: K root-partitioned evaluators fed the same tuple
stream produce, after the exact k-way merge, *bit-for-bit* the
unpartitioned evaluator's result stream — order and content, deletions
included — and an evaluator split mid-stream by partitioning its
checkpoint continues that stream seamlessly.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    RAPQEvaluator,
    RootPartition,
    checkpoint_rapq,
    make_evaluator,
    partition_checkpoint,
    restore_rapq,
    root_partition,
    vertex_sort_key,
)
from repro.datasets.synthetic import UniformStreamGenerator
from repro.graph.stream import with_deletions
from repro.graph.window import WindowSpec
from repro.runtime.merger import merge_partition_events

WINDOW = WindowSpec(size=40, slide=4)
QUERY = "a b* a"


def synthetic_stream(num_edges=4000, deletion_ratio=0.05, seed=11):
    generator = UniformStreamGenerator(
        num_vertices=60, labels=("a", "b", "c"), edges_per_timestamp=5, seed=seed
    )
    return with_deletions(list(generator.generate(num_edges)), deletion_ratio, seed=seed)


def run_full(stream, query=QUERY, window=WINDOW):
    evaluator = RAPQEvaluator(query, window)
    evaluator.process_stream(stream)
    return evaluator


def merge_parts(parts):
    return merge_partition_events([(p.results, p.emission_keys) for p in parts])


class TestOwnershipFunctions:
    def test_root_partition_is_stable_and_in_range(self):
        for vertex in ("alice", "bob", 7, 123456, "v-42"):
            first = root_partition(vertex, 4)
            assert first == root_partition(vertex, 4)
            assert 0 <= first < 4
        assert root_partition("x", 1) == 0

    def test_root_partition_rejects_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            root_partition("x", 0)

    def test_partitions_cover_all_roots_disjointly(self):
        vertices = [f"v{i}" for i in range(200)] + list(range(200))
        filters = [RootPartition(i, 3) for i in range(3)]
        for vertex in vertices:
            assert sum(f.admits(vertex) for f in filters) == 1

    def test_vertex_sort_key_totally_orders_mixed_types(self):
        vertices = ["b", 10, "a", 2, ("t", 1), "c", 1]
        ordered = sorted(vertices, key=vertex_sort_key)
        assert sorted(ordered, key=vertex_sort_key) == ordered
        # ints sort before strings, exotic types last
        assert ordered[:3] == [1, 2, 10]

    def test_root_partition_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            RootPartition(3, 3)
        with pytest.raises(ValueError, match="count"):
            RootPartition(0, 0)
        assert RootPartition.coerce((1, 4)) == RootPartition(1, 4)
        assert RootPartition.coerce(None) is None


class TestPartitionedEvaluation:
    @pytest.mark.parametrize("k", [2, 4])
    def test_union_of_partitions_is_bit_identical(self, k):
        stream = synthetic_stream()
        full = run_full(stream)
        parts = [RAPQEvaluator(QUERY, WINDOW, partition=(i, k)) for i in range(k)]
        for tup in stream:
            for part in parts:
                part.process(tup)
        merged = merge_parts(parts)
        assert merged.events == full.results.events
        assert merged.distinct_pairs == full.results.distinct_pairs
        assert merged.active_pairs == full.results.active_pairs

    def test_partitions_materialize_only_owned_trees(self):
        stream = synthetic_stream(num_edges=1500)
        parts = [RAPQEvaluator(QUERY, WINDOW, partition=(i, 3)) for i in range(3)]
        for tup in stream:
            for part in parts:
                part.process(tup)
        for index, part in enumerate(parts):
            for tree in part.index.trees():
                assert root_partition(tree.root_vertex, 3) == index

    def test_emission_seq_is_partition_independent(self):
        stream = synthetic_stream(num_edges=1000)
        full = run_full(stream)
        part = RAPQEvaluator(QUERY, WINDOW, partition=(0, 2))
        for tup in stream:
            part.process(tup)
        assert part.emission_seq == full.emission_seq
        assert len(full.emission_keys) == len(full.results.events)

    def test_partition_requires_implicit_semantics(self):
        with pytest.raises(ValueError, match="implicit"):
            RAPQEvaluator(QUERY, WINDOW, result_semantics="explicit", partition=(0, 2))

    def test_make_evaluator_rejects_partitioned_non_arbitrary(self):
        with pytest.raises(ValueError, match="arbitrary"):
            make_evaluator(QUERY, WINDOW, "simple", partition=(0, 2))
        with pytest.raises(ValueError, match="arbitrary"):
            make_evaluator(QUERY, WINDOW, "baseline", partition=(0, 2))
        evaluator = make_evaluator(QUERY, WINDOW, "arbitrary", partition=(1, 2))
        assert evaluator.partition == RootPartition(1, 2)


class TestPartitionCheckpoint:
    def split_source(self, stream, upto):
        evaluator = RAPQEvaluator(QUERY, WINDOW)
        for tup in stream[:upto]:
            evaluator.process(tup)
        return evaluator

    @pytest.mark.parametrize("k", [2, 4])
    def test_mid_stream_split_continues_bit_identically(self, k):
        stream = synthetic_stream()
        full = run_full(stream)
        source = self.split_source(stream, len(stream) // 2)
        parts = [restore_rapq(s) for s in partition_checkpoint(checkpoint_rapq(source), k)]
        for tup in stream[len(stream) // 2 :]:
            for part in parts:
                part.process(tup)
        merged = merge_parts(parts)
        assert merged.events == full.results.events

    def test_partition_sections_round_trip(self):
        stream = synthetic_stream(num_edges=1500)
        source = self.split_source(stream, 1000)
        states = partition_checkpoint(checkpoint_rapq(source), 3)
        assert [s["partition"] for s in states] == [
            {"index": 0, "count": 3},
            {"index": 1, "count": 3},
            {"index": 2, "count": 3},
        ]
        restored = restore_rapq(json.loads(json.dumps(states[1])))
        assert restored.partition == RootPartition(1, 3)
        assert restored.emission_seq == source.emission_seq
        # events and keys split consistently
        total_events = sum(len(s["results"]) for s in states)
        assert total_events == len(source.results.events)
        for state in states:
            assert len(state["emission"]["keys"]) == len(state["results"])

    def test_stats_stay_on_partition_zero(self):
        stream = synthetic_stream(num_edges=1500)
        source = self.split_source(stream, 1000)
        states = partition_checkpoint(checkpoint_rapq(source), 3)
        assert states[0]["stats"] == source.stats
        for state in states[1:]:
            assert all(value == 0 for value in state["stats"].values())

    def test_refuses_format_1(self):
        state = checkpoint_rapq(self.split_source(synthetic_stream(500), 300))
        state["format"] = 1
        with pytest.raises(ValueError, match="format-2"):
            partition_checkpoint(state, 2)

    def test_refuses_re_split(self):
        state = checkpoint_rapq(self.split_source(synthetic_stream(500), 300))
        once = partition_checkpoint(state, 2)
        with pytest.raises(ValueError, match="re-split"):
            partition_checkpoint(once[0], 2)

    def test_refuses_missing_emission_section(self):
        state = checkpoint_rapq(self.split_source(synthetic_stream(500), 300))
        del state["emission"]
        with pytest.raises(ValueError, match="emission"):
            partition_checkpoint(state, 2)

    def test_refuses_explicit_semantics(self):
        evaluator = RAPQEvaluator(QUERY, WINDOW, result_semantics="explicit")
        for tup in synthetic_stream(500)[:300]:
            evaluator.process(tup)
        with pytest.raises(ValueError, match="implicit"):
            partition_checkpoint(checkpoint_rapq(evaluator), 2)

    def test_pre_emission_checkpoints_synthesize_monotone_keys(self):
        source = self.split_source(synthetic_stream(1000), 800)
        state = checkpoint_rapq(source)
        del state["emission"]
        restored = restore_rapq(state)
        keys = restored.emission_keys
        assert list(keys) == list(range(1, len(source.results.events) + 1))
        # merging a single stream with synthesized keys preserves history
        merged = merge_partition_events([(restored.results, keys)])
        assert merged.events == source.results.events
