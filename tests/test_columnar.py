"""Tests for the columnar batched hot path (repro.core.columnar).

The central contract: the columnar evaluator is *bit-identical* to the
scalar :class:`~repro.core.rapq.RAPQEvaluator` — same result events in the
same order, same emission keys, same checkpoints — whether it is fed tuple
at a time or in batches of any size.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from typing import List

import pytest

from repro import RAPQEvaluator, WindowSpec, sgt
from repro.core.checkpoint import checkpoint_rapq, decode_rapq, encode_rapq, restore_rapq
from repro.core.columnar import (
    COLUMNAR_MARKER,
    ColumnarBatch,
    ColumnarRAPQEvaluator,
    Interner,
    fastpath_name,
)
from repro.core.engine import StreamingRPQEngine
from repro.core.partition import RootPartition
from repro.graph.snapshot import SnapshotGraph
from repro.graph.tuples import EdgeOp, StreamingGraphTuple
from repro.errors import WireProtocolError

QUERY = "(follows mentions)+"
WINDOW = WindowSpec(size=60, slide=15)


def make_stream(
    count: int = 4000,
    seed: int = 11,
    deletion_ratio: float = 0.05,
    labels=("follows", "mentions", "likes", "noise"),
    num_vertices: int = 60,
) -> List[StreamingGraphTuple]:
    """A deterministic random stream with explicit deletions."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(num_vertices)]
    tuples = []
    timestamp = 0
    for _ in range(count):
        timestamp += rng.choice((0, 0, 1, 1, 2))
        op = EdgeOp.DELETE if rng.random() < deletion_ratio else EdgeOp.INSERT
        tuples.append(
            StreamingGraphTuple(
                timestamp,
                rng.choice(vertices),
                rng.choice(vertices),
                rng.choice(labels),
                op,
            )
        )
    return tuples


def comparable_checkpoint(evaluator) -> dict:
    """The evaluator's checkpoint with the wall-clock stat zeroed.

    ``stats["expiry_seconds"]`` measures elapsed time, the only part of an
    evaluator's state that legitimately differs between two bit-identical
    runs.
    """
    state = checkpoint_rapq(evaluator)
    state["stats"] = dict(state["stats"], expiry_seconds=0.0)
    return state


def assert_bit_identical(scalar, columnar) -> None:
    """Events, order, emission keys and checkpoints all agree."""
    assert scalar.results.to_wire() == columnar.results.to_wire()
    assert scalar.emission_keys == columnar.emission_keys
    assert comparable_checkpoint(scalar) == comparable_checkpoint(columnar)


def feed_batched(evaluator: ColumnarRAPQEvaluator, stream, batch_size: int):
    """Drive the batch entry point, returning flattened (source, target) pairs."""
    pairs = []
    for start in range(0, len(stream), batch_size):
        batch = ColumnarBatch.from_tuples(stream[start : start + batch_size])
        pairs.extend((s, t) for _i, s, t in evaluator.process_batch(batch))
    return pairs


# --------------------------------------------------------------------- #
# ColumnarBatch and the packed wire form
# --------------------------------------------------------------------- #


def test_columnar_batch_roundtrip():
    stream = make_stream(200, seed=3)
    batch = ColumnarBatch.from_tuples(stream)
    assert len(batch) == len(stream)
    assert batch.tuples() == stream

    wire = batch.to_wire()
    assert wire[0] == COLUMNAR_MARKER
    assert ColumnarBatch.from_wire(wire).tuples() == stream


def test_columnar_batch_from_wire_rejects_rows():
    rows = tuple(t.to_wire() for t in make_stream(5))
    with pytest.raises(WireProtocolError):
        ColumnarBatch.from_wire(rows)


def test_interner_is_first_seen_dense():
    interner = Interner()
    assert [interner.intern(v) for v in ("b", "a", "b", "c")] == [0, 1, 0, 2]
    assert interner.table == ["b", "a", "c"]
    assert len(interner) == 3
    assert "a" in interner and "z" not in interner


# --------------------------------------------------------------------- #
# Scalar/columnar parity
# --------------------------------------------------------------------- #


def test_per_tuple_parity_with_deletions():
    stream = make_stream()
    scalar = RAPQEvaluator(QUERY, WINDOW)
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW)
    for tup in stream:
        assert scalar.process(tup) == columnar.process(tup)
    assert_bit_identical(scalar, columnar)
    assert len(scalar.results) > 0  # the workload actually produced results


@pytest.mark.parametrize("batch_size", [1, 7, 503])
def test_batched_parity(batch_size):
    stream = make_stream()
    scalar = RAPQEvaluator(QUERY, WINDOW)
    scalar.process_stream(stream)
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW)
    feed_batched(columnar, stream, batch_size)
    assert_bit_identical(scalar, columnar)


def test_batched_parity_explicit_semantics():
    stream = make_stream(2500, seed=23)
    scalar = RAPQEvaluator(QUERY, WINDOW, result_semantics="explicit")
    scalar.process_stream(stream)
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW, result_semantics="explicit")
    feed_batched(columnar, stream, 97)
    assert_bit_identical(scalar, columnar)


def test_batched_parity_under_root_partitioning():
    stream = make_stream(2500, seed=29)
    for index in range(3):
        partition = RootPartition(index=index, count=3)
        scalar = RAPQEvaluator(QUERY, WINDOW, partition=partition)
        scalar.process_stream(stream)
        columnar = ColumnarRAPQEvaluator(QUERY, WINDOW, partition=partition)
        feed_batched(columnar, stream, 128)
        assert_bit_identical(scalar, columnar)


def test_non_monotonic_timestamp_raises_identically():
    stream = [sgt(5, "a", "b", "follows"), sgt(3, "b", "c", "mentions")]
    scalar = RAPQEvaluator(QUERY, WINDOW)
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW)
    with pytest.raises(ValueError) as scalar_exc:
        scalar.process_stream(stream)
    with pytest.raises(ValueError) as columnar_exc:
        columnar.process_batch(ColumnarBatch.from_tuples(stream))
    assert str(scalar_exc.value) == str(columnar_exc.value)
    assert_bit_identical(scalar, columnar)


def test_non_monotonic_timestamp_raises_in_irrelevant_run():
    # Both out-of-order tuples are *irrelevant* to the query, so the
    # violation is detected inside the vectorized observe pre-pass.
    stream = [sgt(5, "a", "b", "noise"), sgt(3, "b", "c", "noise")]
    scalar = RAPQEvaluator(QUERY, WINDOW)
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW)
    with pytest.raises(ValueError) as scalar_exc:
        scalar.process_stream(stream)
    with pytest.raises(ValueError) as columnar_exc:
        columnar.process_batch(ColumnarBatch.from_tuples(stream))
    assert str(scalar_exc.value) == str(columnar_exc.value)
    assert_bit_identical(scalar, columnar)


def test_columnar_evaluator_owns_its_snapshot():
    # The shared-snapshot options exist on the scalar class only.
    with pytest.raises(TypeError):
        ColumnarRAPQEvaluator(QUERY, WINDOW, snapshot=SnapshotGraph())
    with pytest.raises(TypeError):
        ColumnarRAPQEvaluator(QUERY, WINDOW, manage_snapshot=False)


# --------------------------------------------------------------------- #
# Checkpointing, written and restored in place
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("evaluator_cls", [RAPQEvaluator, ColumnarRAPQEvaluator])
def test_checkpoint_of_restore_is_the_checkpoint(evaluator_cls):
    evaluator = evaluator_cls(QUERY, WINDOW)
    evaluator.process_stream(make_stream(2000, seed=41))
    restored = restore_rapq(checkpoint_rapq(evaluator))
    assert type(restored) is ColumnarRAPQEvaluator
    assert comparable_checkpoint(restored) == comparable_checkpoint(evaluator)


def test_restored_evaluator_expires_on_time():
    # Snapshot rows come in adjacency order (u's edges first), so the FIFO
    # expiry queue must be re-sorted and the trees' expiry bounds
    # recomputed on restore; otherwise w-a->x@5 outlives the window.
    window = WindowSpec(size=10, slide=1)
    stream = [sgt(1, "u", "v", "a"), sgt(5, "w", "x", "a"), sgt(6, "u", "y", "a")]
    columnar = ColumnarRAPQEvaluator("a+", window)
    columnar.process_stream(stream)
    restored = decode_rapq(encode_rapq(columnar))
    scalar = RAPQEvaluator("a+", window)
    scalar.process_stream(stream)
    for evaluator in (scalar, restored):
        evaluator.observe(15)
    assert restored.snapshot.num_edges == 1
    assert restored.index.size_summary() == {"trees": 1, "nodes": 2}
    assert_bit_identical(scalar, restored)


def test_restored_evaluator_continues_bit_identically():
    stream = make_stream()
    half = len(stream) // 2
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW)
    feed_batched(columnar, stream[:half], 256)
    restored = decode_rapq(encode_rapq(columnar))
    feed_batched(restored, stream[half:], 256)

    uninterrupted = RAPQEvaluator(QUERY, WINDOW)
    uninterrupted.process_stream(stream)
    assert_bit_identical(uninterrupted, restored)


# --------------------------------------------------------------------- #
# Kernels and dependencies
# --------------------------------------------------------------------- #


def test_pure_kernel_parity():
    assert fastpath_name() == "pure"
    stream = make_stream(2500, seed=47)
    scalar = RAPQEvaluator(QUERY, WINDOW)
    scalar.process_stream(stream)
    columnar = ColumnarRAPQEvaluator(QUERY, WINDOW)
    feed_batched(columnar, stream, 181)
    assert_bit_identical(scalar, columnar)


def test_import_does_not_load_numpy():
    code = (
        "import sys, repro, repro.runtime, repro.core.columnar; "
        "print('numpy' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# --------------------------------------------------------------------- #
# Engine integration: label routing and the batch entry point
# --------------------------------------------------------------------- #


def test_engine_routes_irrelevant_tuples_to_observe():
    engine = StreamingRPQEngine(WINDOW)
    engine.register("q", QUERY)
    engine.process(sgt(1, "a", "b", "noise"))
    engine.process(sgt(2, "a", "b", "follows"))
    evaluator = engine.query("q").evaluator
    # The irrelevant tuple still advanced the clock and was counted as
    # discarded — exactly what a full process() call would have done.
    assert evaluator.stats["tuples_discarded"] == 1
    assert evaluator.stats["tuples_processed"] == 1
    assert evaluator.current_time == 2


def test_engine_process_batch_matches_per_tuple():
    stream = make_stream(3000, seed=53, labels=("follows", "mentions", "x1", "x2"))

    per_tuple = StreamingRPQEngine(WINDOW)
    per_tuple.register("pairs", QUERY)
    per_tuple.register("hops", "x1 x2*")
    events = []
    for tup in stream:
        for name, pairs in per_tuple.process(tup).items():
            for source, target in pairs:
                events.append((name, source, target, tup.timestamp))

    batched = StreamingRPQEngine(WINDOW)
    batched.register("pairs", QUERY)
    batched.register("hops", "x1 x2*")
    batch_events = []
    for start in range(0, len(stream), 211):
        batch_events.extend(
            batched.process_batch(ColumnarBatch.from_tuples(stream[start : start + 211]))
        )

    assert events == batch_events
    for name in ("pairs", "hops"):
        assert_bit_identical(per_tuple.query(name).evaluator, batched.query(name).evaluator)


def test_engine_default_arbitrary_evaluator_is_columnar():
    engine = StreamingRPQEngine(WINDOW)
    engine.register("q", QUERY)
    assert isinstance(engine.query("q").evaluator, ColumnarRAPQEvaluator)
