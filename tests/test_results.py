"""Unit tests for the append-only result stream."""

from __future__ import annotations

import gc

from hypothesis import given, settings, strategies as st

from repro.core.results import ResultEvent, ResultStream
from repro.runtime.transport_tcp import decode_value, encode_value


class TestReport:
    def test_report_appends_event(self):
        stream = ResultStream()
        assert stream.report("x", "y", 7) is None  # appends to the columns, builds no event
        (event,) = stream.events
        assert event == ResultEvent(7, "x", "y", positive=True)
        assert event.pair == ("x", "y")
        assert len(stream) == 1
        assert ("x", "y") in stream

    def test_distinct_pairs_deduplicate(self):
        stream = ResultStream()
        stream.report("x", "y", 1)
        stream.report("x", "y", 5)
        assert len(stream) == 2
        assert stream.distinct_pairs == {("x", "y")}

    def test_events_preserve_order(self):
        stream = ResultStream()
        stream.report("a", "b", 1)
        stream.report("c", "d", 2)
        assert [e.pair for e in stream.events] == [("a", "b"), ("c", "d")]

    def test_pairs_reported_at(self):
        stream = ResultStream()
        stream.report("a", "b", 1)
        stream.report("c", "d", 2)
        stream.report("e", "f", 2)
        assert stream.pairs_reported_at(2) == {("c", "d"), ("e", "f")}


class TestInvalidate:
    def test_invalidation_removes_from_active(self):
        stream = ResultStream()
        stream.report("x", "y", 1)
        stream.invalidate("x", "y", 5)
        assert stream.active_pairs == set()
        # implicit-window semantics: the distinct set never shrinks
        assert stream.distinct_pairs == {("x", "y")}

    def test_multiple_supports(self):
        stream = ResultStream()
        stream.report("x", "y", 1)
        stream.report("x", "y", 2)
        stream.invalidate("x", "y", 3)
        assert stream.active_pairs == {("x", "y")}
        stream.invalidate("x", "y", 4)
        assert stream.active_pairs == set()

    def test_positives_and_negatives(self):
        stream = ResultStream()
        stream.report("a", "b", 1)
        stream.invalidate("a", "b", 2)
        assert len(stream.positives()) == 1
        assert len(stream.negatives()) == 1

    def test_invalidate_unknown_pair_is_harmless(self):
        stream = ResultStream()
        stream.invalidate("p", "q", 3)
        assert stream.active_pairs == set()
        assert len(stream) == 1


class TestExtendAndIteration:
    def test_extend_merges_events(self):
        source = ResultStream()
        source.report("a", "b", 1)
        source.invalidate("a", "b", 2)
        target = ResultStream()
        target.extend(iter(source.events))
        assert len(target) == 2
        assert target.distinct_pairs == {("a", "b")}
        assert target.active_pairs == set()

    def test_iteration(self):
        stream = ResultStream()
        stream.report("a", "b", 1)
        assert [event.pair for event in stream] == [("a", "b")]

    def test_str(self):
        stream = ResultStream()
        stream.report("a", "b", 1)
        assert "events=1" in str(stream)


class TestResultEvent:
    def test_str_sign(self):
        positive = ResultEvent(1, "a", "b", positive=True)
        negative = ResultEvent(2, "a", "b", positive=False)
        assert str(positive).startswith("+")
        assert str(negative).startswith("-")


def _model_active(model):
    """Active pairs of a ``(timestamp, source, target, positive)`` event list."""
    counts = {}
    for _, source, target, positive in model:
        pair = (source, target)
        if positive:
            counts[pair] = counts.get(pair, 0) + 1
        elif counts.get(pair, 0) > 1:
            counts[pair] -= 1
        else:
            counts.pop(pair, None)
    return set(counts)


def _as_rows(events):
    return [(event.timestamp, event.source, event.target, event.positive) for event in events]


_VERTICES = st.one_of(st.integers(min_value=-2, max_value=3), st.sampled_from(["a", "b", "c"]))
_OPERATIONS = st.lists(
    st.tuples(st.booleans(), _VERTICES, _VERTICES, st.integers(min_value=-(2**40), max_value=2**40)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_OPERATIONS)
def test_stream_matches_list_of_tuples_model(operations):
    stream = ResultStream()
    model = []
    for index, (positive, source, target, timestamp) in enumerate(operations):
        (stream.report if positive else stream.invalidate)(source, target, timestamp)
        model.append((timestamp, source, target, positive))
        if index % 3 == 0:  # inspect mid-stream too, not only at the end
            assert stream.active_pairs == _model_active(model)
            reported = any(p for _, s, t, p in model if (s, t) == (source, target))
            assert ((source, target) in stream) == reported

    distinct = {(source, target) for _, source, target, positive in model if positive}
    assert _as_rows(stream.events) == model
    assert _as_rows(stream) == model
    assert len(stream) == len(model)
    assert stream.distinct_pairs == distinct
    assert stream.active_pairs == _model_active(model)
    for source in ("a", "b", "c", -2, 0, 3):
        for target in ("a", 1):
            assert ((source, target) in stream) == ((source, target) in distinct)
    assert _as_rows(stream.positives()) == [row for row in model if row[3]]
    assert _as_rows(stream.negatives()) == [row for row in model if not row[3]]
    for timestamp in {row[0] for row in model} | {2**41}:
        expected = {(s, t) for tau, s, t, p in model if p and tau == timestamp}
        assert stream.pairs_reported_at(timestamp) == expected

    # The packed wire form round-trips, through the tcp codec included.
    copy = ResultStream.from_wire(decode_value(encode_value(stream.to_wire())))
    assert _as_rows(copy.events) == model
    assert copy.distinct_pairs == distinct
    assert copy.active_pairs == _model_active(model)

    # copy() is independent of the original in both directions.
    duplicate = stream.copy()
    duplicate.report("only", "copy", 1)
    stream.report("only", "original", 2)
    assert ("only", "copy") not in stream and ("only", "original") not in duplicate
    assert _as_rows(duplicate.events) == model + [(1, "only", "copy", True)]
    model.append((2, "only", "original", True))
    assert _as_rows(stream.events) == model

    # Invalidating a pair that was never reported is recorded but harmless.
    active = stream.active_pairs
    stream.invalidate("never", "seen", 3)
    assert len(stream) == len(model) + 1
    assert ("never", "seen") not in stream
    assert stream.active_pairs == active


def test_reports_do_not_grow_the_collectors_object_count():
    # The stream keeps columns, not one object per event, so a long
    # result history adds nothing the garbage collector has to traverse.
    stream = ResultStream()
    gc.collect()
    before = len(gc.get_objects())
    for index in range(100_000):
        stream.report(index, index + 1, index)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < 100, f"{grown} more collector-tracked objects after 100 000 reports"
    assert len(stream) == 100_000
