"""Property-based differential tests: columnar vs scalar RAPQ (hypothesis).

Randomized streams — deletions, repeated edges, window slides, arbitrary
batch splits, root partitioning — drive the scalar evaluator tuple at a
time and the columnar evaluator through its batch entry point, with a
checkpoint round trip at a drawn batch boundary.  The two must be
*bit-identical*: same result events in the same order, same emission
keys, same checkpoint.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro import RAPQEvaluator, WindowSpec
from repro.core.checkpoint import checkpoint_rapq, decode_rapq, encode_rapq
from repro.core.columnar import ColumnarBatch, ColumnarRAPQEvaluator
from repro.core.partition import RootPartition
from repro.graph.tuples import EdgeOp, StreamingGraphTuple

VERTICES = ["v0", "v1", "v2", "v3", "v4", "v5"]
#: Half the labels are outside every query alphabet, so the relevance
#: pre-pass always has runs to skip.
LABELS = ["a", "b", "nx", "ny"]
QUERIES = ["a", "a b", "a+", "(a b)+", "a b*", "a* b*", "(a | b)+", "a | b a"]


@st.composite
def streams_with_deletions(draw, max_edges: int = 40) -> List[StreamingGraphTuple]:
    """Random streams with non-decreasing timestamps and explicit deletions."""
    count = draw(st.integers(min_value=1, max_value=max_edges))
    tuples: List[StreamingGraphTuple] = []
    timestamp = 1
    for _ in range(count):
        timestamp += draw(st.integers(min_value=0, max_value=3))
        source = draw(st.sampled_from(VERTICES))
        target = draw(st.sampled_from(VERTICES))
        label = draw(st.sampled_from(LABELS))
        op = EdgeOp.DELETE if draw(st.booleans()) and draw(st.booleans()) else EdgeOp.INSERT
        tuples.append(StreamingGraphTuple(timestamp, source, target, label, op))
    return tuples


@st.composite
def windows(draw) -> WindowSpec:
    size = draw(st.integers(min_value=2, max_value=14))
    slide = draw(st.integers(min_value=1, max_value=size))
    return WindowSpec(size=size, slide=slide)


@st.composite
def batch_splits(draw) -> Tuple[int, int]:
    """(first batch size, steady batch size) — covers 1-tuple batches too."""
    return (draw(st.integers(min_value=1, max_value=9)), draw(st.integers(min_value=1, max_value=17)))


def comparable_checkpoint(evaluator) -> dict:
    state = checkpoint_rapq(evaluator)
    state["stats"] = dict(state["stats"], expiry_seconds=0.0)
    return state


def assert_differential(stream, window, query, split, cut, result_semantics="implicit", partition=None):
    """Scalar tuple at a time vs columnar in batches, checkpointed mid-stream.

    At batch boundary ``cut`` (clamped to the last one) the columnar
    evaluator is replaced by ``decode_rapq(encode_rapq(columnar))``; the
    rest of the stream must not notice.
    """
    scalar = RAPQEvaluator(query, window, result_semantics=result_semantics, partition=partition)
    scalar.process_stream(stream)

    first, steady = split
    batches = [stream[:first]] + [stream[i : i + steady] for i in range(first, len(stream), steady)]
    cut = min(cut, len(batches))

    columnar = ColumnarRAPQEvaluator(query, window, result_semantics=result_semantics, partition=partition)
    for batch in batches[:cut]:
        columnar.process_batch(ColumnarBatch.from_tuples(batch))
    columnar = decode_rapq(encode_rapq(columnar))
    for batch in batches[cut:]:
        columnar.process_batch(ColumnarBatch.from_tuples(batch))

    assert scalar.results.to_wire() == columnar.results.to_wire()
    assert scalar.emission_keys == columnar.emission_keys
    assert comparable_checkpoint(scalar) == comparable_checkpoint(columnar)


@settings(max_examples=40, deadline=None)
@given(
    stream=streams_with_deletions(),
    window=windows(),
    query=st.sampled_from(QUERIES),
    split=batch_splits(),
    cut=st.integers(min_value=0, max_value=40),
    result_semantics=st.sampled_from(["implicit", "explicit"]),
)
def test_columnar_matches_scalar(stream, window, query, split, cut, result_semantics):
    assert_differential(stream, window, query, split, cut, result_semantics=result_semantics)


@settings(max_examples=25, deadline=None)
@given(
    stream=streams_with_deletions(max_edges=30),
    window=windows(),
    query=st.sampled_from(QUERIES),
    split=batch_splits(),
    cut=st.integers(min_value=0, max_value=30),
    index=st.integers(min_value=0, max_value=2),
)
def test_columnar_matches_scalar_under_partitioning(stream, window, query, split, cut, index):
    assert_differential(stream, window, query, split, cut, partition=RootPartition(index=index, count=3))
