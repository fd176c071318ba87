"""Tests for the runtime wire protocol and its encodings.

Everything that crosses a worker boundary must round-trip through the
compact wire forms: streaming graph tuples, packed columnar batches,
result events/streams, evaluator state blobs and exceptions.  A
malformed ``BATCH`` payload is refused before it touches the engine.
Plus the construction-time validation of
:class:`~repro.runtime.RuntimeConfig`.
"""

from __future__ import annotations

import queue
from array import array

import pytest

from repro import ConfigError, WindowSpec, WireProtocolError, sgt
from repro.core.checkpoint import checkpoint_rapq, decode_rapq, encode_rapq
from repro.core.columnar import ColumnarBatch
from repro.core.rapq import RAPQEvaluator
from repro.core.results import ResultStream
from repro.errors import ConflictBudgetExceeded, ShardWorkerError, StreamOrderError
from repro.graph.tuples import EdgeOp, StreamingGraphTuple
from repro.runtime import RuntimeConfig, ShardEngineServer, create_worker
from repro.runtime.worker import serve_shard
from repro.runtime import protocol
from repro.runtime.transport_tcp import decode_value, encode_value


class TestTupleWireForm:
    def test_insert_round_trip(self):
        tup = sgt(7, "alice", "bob", "follows")
        assert StreamingGraphTuple.from_wire(tup.to_wire()) == tup

    def test_delete_round_trip(self):
        tup = sgt(9, 4, 5, "pays", EdgeOp.DELETE)
        wire = tup.to_wire()
        assert wire == (9, 4, 5, "pays", "-")
        restored = StreamingGraphTuple.from_wire(wire)
        assert restored == tup and restored.is_delete

    def test_batch_codec(self):
        batch = [sgt(1, "a", "b", "x"), sgt(2, "b", "c", "y", EdgeOp.DELETE)]
        assert ColumnarBatch.from_wire(ColumnarBatch.from_tuples(batch).to_wire()).tuples() == batch


class TestResultWireForm:
    def test_stream_wire_form_is_packed_columns(self):
        stream = ResultStream()
        stream.report("x", 4, 3)
        stream.invalidate("x", 4, 5)
        timestamps, sources, targets, signs = stream.to_wire()
        assert isinstance(timestamps, bytes) and len(timestamps) == 2 * 8
        assert (sources, targets, signs) == (("x", "x"), (4, 4), b"\x01\x00")
        # the packed form survives the tcp transport's codec unchanged
        copy = ResultStream.from_wire(decode_value(encode_value(stream.to_wire())))
        assert copy.events == stream.events
        assert copy.active_pairs == set() and copy.distinct_pairs == {("x", 4)}

    def test_stream_round_trip_preserves_bookkeeping(self):
        stream = ResultStream()
        stream.report("a", "b", 1)
        stream.report("a", "c", 2)
        stream.invalidate("a", "b", 3)
        copy = ResultStream.from_wire(stream.to_wire())
        assert copy.events == stream.events
        assert copy.distinct_pairs == stream.distinct_pairs
        assert copy.active_pairs == stream.active_pairs == {("a", "c")}


class TestEvaluatorBlobCodec:
    def test_encode_decode_round_trip(self):
        evaluator = RAPQEvaluator("a+", WindowSpec(size=10, slide=2))
        for tup in [sgt(1, "u", "v", "a"), sgt(2, "v", "w", "a"), sgt(3, "u", "v", "a", EdgeOp.DELETE)]:
            evaluator.process(tup)
        blob = encode_rapq(evaluator)
        assert isinstance(blob, bytes)
        restored = decode_rapq(blob)
        assert checkpoint_rapq(restored) == checkpoint_rapq(evaluator)
        assert restored.answer_pairs() == evaluator.answer_pairs()


class TestExceptionCodec:
    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("bad value"),
            KeyError("missing"),
            StreamOrderError("timestamps must be non-decreasing"),
            ConflictBudgetExceeded("tree grew beyond 10 nodes"),
            ShardWorkerError("shard 3 failed"),
        ],
    )
    def test_known_types_round_trip(self, exc):
        restored = protocol.decode_exception(protocol.encode_exception(exc))
        assert type(restored) is type(exc)
        assert str(exc) in str(restored) or str(restored) == str(exc)

    def test_unknown_type_degrades_to_runtime_error(self):
        class Exotic(Exception):
            pass

        restored = protocol.decode_exception(protocol.encode_exception(Exotic("boom")))
        assert isinstance(restored, RuntimeError)
        assert "Exotic" in str(restored) and "boom" in str(restored)


class TestShardEngineServer:
    def make_server(self):
        return ShardEngineServer(0, WindowSpec(size=10, slide=1), RuntimeConfig(shards=1))

    def test_register_process_results(self):
        server = self.make_server()
        server.execute(protocol.REGISTER, ("q", "a+", "arbitrary", None, None))
        events = server.process_batch(
            ColumnarBatch.from_tuples([sgt(1, "u", "v", "a"), sgt(2, "v", "w", "a")]).to_wire(),
            collect_results=True,
        )
        assert ("q", "u", "v", 1) in events and ("q", "u", "w", 2) in events
        wire = server.execute(protocol.RESULTS, "q")
        assert ResultStream.from_wire(wire).distinct_pairs == {("u", "v"), ("u", "w"), ("v", "w")}
        assert server.execute(protocol.METRICS, None)["tuples"] == 2.0

    def test_checkpoint_and_restore_ops(self):
        server = self.make_server()
        server.execute(protocol.REGISTER, ("q", "a+", "arbitrary", None, None))
        server.process_batch(ColumnarBatch.from_tuples([sgt(1, "u", "v", "a")]).to_wire(), False)
        blob = server.execute(protocol.CHECKPOINT, "q")
        other = self.make_server()
        other.execute(protocol.RESTORE, ("q", "arbitrary", blob))
        assert other.engine.query("q").answer_pairs() == {("u", "v")}

    def test_unknown_op_raises_wire_protocol_error(self):
        with pytest.raises(WireProtocolError):
            self.make_server().execute("REWIND", None)

    def test_bootstrap_replays_into_equivalent_server(self):
        server = self.make_server()
        server.execute(protocol.REGISTER, ("arb", "a+", "arbitrary", None, None))
        server.execute(protocol.REGISTER, ("simple", "b b*", "simple", 50, None))
        clone = self.make_server()
        for op, payload in server.export_bootstrap():
            clone.execute(op, payload)
        assert {q.name for q in clone.engine.queries()} == {"arb", "simple"}
        assert clone.engine.query("simple").evaluator.max_nodes_per_tree == 50


def _batch_wire(count: int = 10):
    """The packed wire form of a ``count``-tuple chain ``u0 -a-> u1 -a-> ...``."""
    return ColumnarBatch.from_tuples(
        [sgt(100 + index, f"u{index}", f"u{index + 1}", "a") for index in range(count)]
    ).to_wire()


def _with(payload, position: int, value):
    return payload[:position] + (value,) + payload[position + 1 :]


def _ids(*values) -> bytes:
    return array("i", values).tobytes()


#: Malformed ``BATCH`` payloads, built from a valid 10-tuple payload.
_MALFORMED = {
    # column lengths that disagree with the count (5 of 10 entries)
    "short-timestamps": lambda wire: _with(wire, 2, wire[2][: 5 * 8]),
    "short-sources": lambda wire: _with(wire, 3, wire[3][: 5 * 4]),
    "short-targets": lambda wire: _with(wire, 4, wire[4][: 5 * 4]),
    "short-labels": lambda wire: _with(wire, 5, wire[5][: 5 * 4]),
    "long-deletes": lambda wire: _with(wire, 6, wire[6] + b"\x00"),
    "count-mismatch": lambda wire: _with(wire, 1, 11),
    # ids outside the per-batch tables (after a valid prefix)
    "source-past-table": lambda wire: _with(wire, 3, wire[3][:-4] + _ids(len(wire[7]))),
    "target-negative": lambda wire: _with(wire, 4, wire[4][:-4] + _ids(-1)),
    "label-past-table": lambda wire: _with(wire, 5, wire[5][:-4] + _ids(1)),
    # wrong marker, including a leftover per-tuple rows payload
    "wrong-marker": lambda wire: _with(wire, 0, "COL2"),
    "rows-payload": lambda wire: tuple(tup.to_wire() for tup in ColumnarBatch.from_wire(wire).tuples()),
    "short-rows-payload": lambda wire: ((1, "u", "v", "a", "+"),),
}


class TestMalformedBatch:
    """A malformed ``BATCH`` is refused before any of its tuples is applied."""

    def make_server(self):
        server = ShardEngineServer(0, WindowSpec(size=1000, slide=1), RuntimeConfig(shards=1))
        server.execute(protocol.REGISTER, ("q", "a+", "arbitrary", None, None))
        server.process_batch(ColumnarBatch.from_tuples([sgt(1, "x", "u0", "a")]), False)
        return server

    @staticmethod
    def state(server):
        return (
            server.metrics()["tuples"],
            server.batches_processed,
            server.engine.summary()["q"]["stats"],
            server.execute(protocol.RESULTS, "q"),
            server.execute(protocol.CHECKPOINT, "q"),
        )

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_refused_and_engine_unchanged(self, case):
        server = self.make_server()
        before = self.state(server)
        with pytest.raises(WireProtocolError):
            server.process_batch(_MALFORMED[case](_batch_wire()), collect_results=True)
        assert self.state(server) == before

    def test_valid_payload_applies(self):
        # The same payload unmodified is applied: the refusals above are
        # the validation, not a broken fixture.
        server = self.make_server()
        before = self.state(server)
        events = server.process_batch(_batch_wire(), collect_results=True)
        assert len(events) == 65 and self.state(server) != before

    def test_serve_loop_reports_refusal_as_failure(self):
        server = self.make_server()
        requests, responses = queue.Queue(), queue.Queue()
        requests.put((protocol.BATCH, _MALFORMED["short-sources"](_batch_wire())))
        requests.put((protocol.CONTROL, 1, protocol.STOP, False))
        serve_shard(server, requests, responses, emit_results=True, ship_state_on_stop=False)
        kind, (type_name, _message) = responses.get_nowait()
        assert (kind, type_name) == (protocol.FAILURE, "WireProtocolError")
        assert server.metrics()["tuples"] == 1.0


class TestRuntimeConfigValidation:
    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ConfigError, match="threading.*multiprocessing"):
            RuntimeConfig(backend="gevent")

    def test_unknown_sharding_lists_choices(self):
        with pytest.raises(ConfigError, match="round_robin.*hash.*label_affinity"):
            RuntimeConfig(sharding="range")

    @pytest.mark.parametrize("kwargs", [{"shards": 0}, {"batch_size": 0}, {"queue_depth": -1}])
    def test_out_of_range_values(self, kwargs):
        with pytest.raises(ConfigError):
            RuntimeConfig(**kwargs)

    def test_config_error_is_a_value_error(self):
        # Callers that predate ConfigError catch ValueError; keep that working.
        with pytest.raises(ValueError):
            RuntimeConfig(backend="gevent")

    def test_create_worker_guards_against_registry_drift(self):
        # RuntimeConfig validates the backend, so this path needs a raw config.
        config = RuntimeConfig()
        object.__setattr__(config, "backend", "gevent")
        with pytest.raises(ValueError, match="unknown worker backend"):
            create_worker(0, WindowSpec(size=5), config)
