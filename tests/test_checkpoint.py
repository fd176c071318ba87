"""Tests for evaluator checkpointing (save/restore of RAPQ state)."""

from __future__ import annotations

import json

import pytest

from repro import RAPQEvaluator, WindowSpec, sgt
from repro.core.checkpoint import (
    checkpoint_rapq,
    load_checkpoint,
    restore_rapq,
    save_checkpoint,
)
from repro.core.columnar import ColumnarRAPQEvaluator
from repro.errors import CheckpointError
from repro.regex.analysis import analyze

from helpers import insert_stream


def build_evaluator(query="(follows mentions)+", window=WindowSpec(size=15, slide=1)):
    evaluator = RAPQEvaluator(query, window)
    stream = insert_stream(
        [
            (4, "y", "u", "mentions"),
            (6, "x", "z", "follows"),
            (9, "u", "v", "follows"),
            (13, "x", "y", "follows"),
            (14, "z", "u", "mentions"),
        ]
    )
    evaluator.process_stream(stream)
    return evaluator


class TestRoundTrip:
    def test_state_is_json_serializable(self):
        state = checkpoint_rapq(build_evaluator())
        json.dumps(state)  # must not raise

    def test_restored_evaluator_has_same_answers_and_index(self):
        original = build_evaluator()
        restored = restore_rapq(checkpoint_rapq(original))
        assert restored.answer_pairs() == original.answer_pairs()
        assert restored.index.size_summary() == original.index.size_summary()
        assert restored.snapshot.num_edges == original.snapshot.num_edges
        assert restored.current_time == original.current_time

    def test_restored_evaluator_continues_identically(self):
        """Processing the rest of the stream after restore gives the same results
        as never checkpointing at all."""
        full_stream = insert_stream(
            [
                (4, "y", "u", "mentions"),
                (6, "x", "z", "follows"),
                (9, "u", "v", "follows"),
                (13, "x", "y", "follows"),
                (14, "z", "u", "mentions"),
                (15, "u", "x", "mentions"),
                (18, "v", "y", "mentions"),
                (19, "w", "u", "follows"),
                (25, "x", "y", "follows"),
                (26, "y", "u", "mentions"),
            ]
        )
        window = WindowSpec(size=15, slide=1)
        uninterrupted = RAPQEvaluator("(follows mentions)+", window)
        uninterrupted.process_stream(full_stream)

        first_half, second_half = full_stream[:5], full_stream[5:]
        before = RAPQEvaluator("(follows mentions)+", window)
        before.process_stream(first_half)
        resumed = restore_rapq(checkpoint_rapq(before))
        resumed.process_stream(second_half)

        assert resumed.answer_pairs() == uninterrupted.answer_pairs()
        assert resumed.index.size_summary() == uninterrupted.index.size_summary()

    def test_file_round_trip(self, tmp_path):
        original = build_evaluator()
        path = save_checkpoint(original, tmp_path / "state.json")
        restored = load_checkpoint(path)
        assert restored.answer_pairs() == original.answer_pairs()

    def test_integer_vertices_round_trip(self):
        evaluator = RAPQEvaluator("a+", WindowSpec(size=100))
        evaluator.process_stream(insert_stream([(1, 1, 2, "a"), (2, 2, 3, "a")]))
        restored = restore_rapq(checkpoint_rapq(evaluator))
        assert restored.answer_pairs() == {(1, 2), (1, 3), (2, 3)}

    def test_result_events_preserved_including_invalidations(self):
        evaluator = RAPQEvaluator("a", WindowSpec(size=100))
        evaluator.process(sgt(1, "u", "v", "a"))
        evaluator.process(sgt(2, "u", "v", "a").as_delete(2))
        restored = restore_rapq(checkpoint_rapq(evaluator))
        assert restored.active_pairs() == set()
        assert restored.answer_pairs() == {("u", "v")}

    def test_explicit_semantics_preserved(self):
        evaluator = RAPQEvaluator("a", WindowSpec(size=5, slide=5), result_semantics="explicit")
        evaluator.process(sgt(1, "u", "v", "a"))
        restored = restore_rapq(checkpoint_rapq(evaluator))
        assert restored.result_semantics == "explicit"


class TestValidation:
    def test_unknown_format_rejected(self):
        state = checkpoint_rapq(build_evaluator())
        state["format"] = 99
        with pytest.raises(ValueError):
            restore_rapq(state)

    def test_mismatched_analysis_rejected(self):
        state = checkpoint_rapq(build_evaluator())
        with pytest.raises(ValueError):
            restore_rapq(state, query=analyze("somethingelse+"))

    def test_matching_precompiled_analysis_accepted(self):
        original = build_evaluator()
        analysis = original.analysis
        restored = restore_rapq(checkpoint_rapq(original), query=analysis)
        assert restored.analysis is analysis

    def test_corrupt_tree_rejected(self):
        state = checkpoint_rapq(build_evaluator())
        for tree in state["trees"]:
            for node in tree["nodes"]:
                node["parent_vertex"] = "nonexistent"
        if any(tree["nodes"] for tree in state["trees"]):
            with pytest.raises(ValueError):
                restore_rapq(state)

    @pytest.mark.parametrize("evaluator_cls", [RAPQEvaluator, ColumnarRAPQEvaluator])
    def test_unsupported_vertex_type_rejected(self, evaluator_cls):
        evaluator = evaluator_cls("a", WindowSpec(size=10))
        evaluator.process(sgt(1, ("tuple", "vertex"), "b", "a"))
        with pytest.raises(TypeError):
            checkpoint_rapq(evaluator)

    def test_in_adjacency_target_listed_twice_rejected(self):
        evaluator = RAPQEvaluator("a b*", WindowSpec(size=100))
        evaluator.process_stream(
            insert_stream([(1, "x", "y", "a"), (2, "y", "z", "b"), (3, "w", "z", "b")])
        )
        state = checkpoint_rapq(evaluator)
        rows = state["in_adjacency"]
        at = next(i for i, (target, _) in enumerate(rows) if target == "z")
        assert rows[at][1] == [["y", "b"], ["w", "b"]]
        # Split z's row in two: adopting the second would drop y-[b]->z.
        rows[at : at + 1] = [["z", [["y", "b"]]], ["z", [["w", "b"]]]]
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            restore_rapq(state)

    def test_reverse_index_that_contradicts_the_trees_rejected(self):
        evaluator = RAPQEvaluator("a b*", WindowSpec(size=100))
        evaluator.process_stream(insert_stream([(1, "x", "y", "a"), (2, "y", "z", "b")]))
        state = checkpoint_rapq(evaluator)
        intact = restore_rapq(state)
        assert intact.process(sgt(3, "z", "k", "b")) == [("x", "k")]
        # Without z's row, z-[b]->k would visit no tree and report nothing.
        state["reverse_index"] = [row for row in state["reverse_index"] if row[0] != "z"]
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            restore_rapq(state)


class TestRobustLoading:
    """Truncated / corrupted / unknown blobs fail with a clean CheckpointError."""

    def test_truncated_blob_reports_the_offset(self):
        from repro.core.checkpoint import decode_rapq, encode_rapq
        from repro.errors import CheckpointError

        blob = encode_rapq(build_evaluator())
        with pytest.raises(CheckpointError, match="offset"):
            decode_rapq(blob[: len(blob) // 2])

    def test_non_utf8_blob_reports_the_byte(self):
        from repro.core.checkpoint import decode_rapq
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError, match="not UTF-8 at byte"):
            decode_rapq(b"\xff\xfe broken")

    def test_unknown_format_is_a_checkpoint_error(self):
        from repro.errors import CheckpointError

        state = checkpoint_rapq(build_evaluator())
        state["format"] = 99
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            restore_rapq(state)
        # and still a ValueError for callers that predate CheckpointError
        assert issubclass(CheckpointError, ValueError)

    def test_missing_section_names_the_query_not_a_keyerror(self):
        from repro.errors import CheckpointError

        state = checkpoint_rapq(build_evaluator())
        del state["snapshot"]
        with pytest.raises(CheckpointError, match="corrupt checkpoint for query"):
            restore_rapq(state)

    def test_non_dict_blob_is_rejected(self):
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError, match="dict of sections"):
            restore_rapq(["not", "a", "checkpoint"])

    def test_truncated_checkpoint_file_names_the_file(self, tmp_path):
        from repro.errors import CheckpointError

        path = save_checkpoint(build_evaluator(), tmp_path / "ckpt.json")
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(CheckpointError, match="ckpt.json"):
            load_checkpoint(path)
