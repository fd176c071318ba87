"""Tests for the runtime wire protocol and its encodings.

Everything that crosses a worker boundary must round-trip through the
compact wire forms: streaming graph tuples, result events/streams,
evaluator state blobs and exceptions.  Plus the construction-time
validation of :class:`~repro.runtime.RuntimeConfig`.
"""

from __future__ import annotations

import pytest

from repro import ConfigError, WindowSpec, WireProtocolError, sgt
from repro.core.checkpoint import checkpoint_rapq, decode_rapq, encode_rapq
from repro.core.rapq import RAPQEvaluator
from repro.core.results import ResultStream
from repro.errors import ConflictBudgetExceeded, ShardWorkerError, StreamOrderError
from repro.graph.tuples import EdgeOp, StreamingGraphTuple
from repro.runtime import RuntimeConfig, ShardEngineServer, create_worker
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
        assert protocol.decode_batch(protocol.encode_batch(batch)) == batch


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
            protocol.encode_batch([sgt(1, "u", "v", "a"), sgt(2, "v", "w", "a")]),
            collect_results=True,
        )
        assert ("q", "u", "v", 1) in events and ("q", "u", "w", 2) in events
        wire = server.execute(protocol.RESULTS, "q")
        assert ResultStream.from_wire(wire).distinct_pairs == {("u", "v"), ("u", "w"), ("v", "w")}
        assert server.execute(protocol.METRICS, None)["tuples"] == 2.0

    def test_checkpoint_and_restore_ops(self):
        server = self.make_server()
        server.execute(protocol.REGISTER, ("q", "a+", "arbitrary", None, None))
        server.process_batch(protocol.encode_batch([sgt(1, "u", "v", "a")]), collect_results=False)
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
