"""TCP transport: codec, framing, and socket fault injection.

Every failure mode a real network serves up — torn frames, flipped bits,
stalled peers, refused connections, vanished hosts — must surface as a
clean, typed error (:class:`WorkerUnavailableError` or
:class:`WireProtocolError`), never as a hang or silently corrupt state.
The parity/migration/recovery guarantees of the ``tcp`` backend ride the
shared backend-parametrized suites; this file attacks the wire itself.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WindowSpec, WireProtocolError, WorkerUnavailableError, sgt
from repro.datasets.synthetic import UniformStreamGenerator
from repro.runtime import RuntimeConfig, StreamingQueryService, TcpWorkerServer, create_worker
from repro.runtime.config import parse_worker_address
from repro.runtime.transport_tcp import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    _session_reader,
    decode_value,
    encode_frame,
    encode_value,
    recv_frame,
)

WINDOW = WindowSpec(size=40, slide=4)


def make_stream(count, seed=11):
    generator = UniformStreamGenerator(
        num_vertices=40, labels=("a", "b", "noise"), edges_per_timestamp=4, seed=seed
    )
    return list(generator.generate(count))


def tcp_config(addresses, **kwargs):
    kwargs.setdefault("shards", len(addresses))
    kwargs.setdefault("batch_size", 8)
    return RuntimeConfig(backend="tcp", worker_addresses=addresses, **kwargs)


def free_port():
    """A port that was just free — bound briefly, then released."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def frame_pipe():
    """A connected non-blocking socket pair ready for the framing helpers."""
    left, right = socket.socketpair()
    left.setblocking(False)
    right.setblocking(False)
    return left, right


# --------------------------------------------------------------------- #
# Value codec
# --------------------------------------------------------------------- #


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**63),
            2**100,  # wider than int64: the bigint path
            -(2**100),
            1.5,
            float("inf"),
            "",
            "héllo wörld ☃",
            b"",
            b"\x00\xff" * 7,
            (),
            (1, "two", 3.0),
            [None, [True, [b"deep"]]],
            {"a": 1, "b": (2, [3])},
            {1: "int key", (2, 3): "tuple-free dict values only"},
            ("BATCH", [(1, "u", "v", "a", True)]),
        ],
    )
    def test_round_trip_exact(self, value):
        assert decode_value(encode_value(value)) == value

    def test_round_trip_preserves_types(self):
        """bool is not int, tuple is not list — types survive the wire."""
        out = decode_value(encode_value((True, 1, 1.0, (2,), [3])))
        assert [type(item) for item in out] == [bool, int, float, tuple, list]

    def test_unsupported_type_raises(self):
        with pytest.raises(WireProtocolError, match="cannot cross the tcp transport"):
            encode_value({"bad": object()})

    def test_unknown_tag_raises(self):
        with pytest.raises(WireProtocolError, match="unknown value tag"):
            decode_value(b"Z")

    def test_truncated_value_raises(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            decode_value(encode_value("hello")[:-2])

    def test_trailing_garbage_raises(self):
        with pytest.raises(WireProtocolError, match="trailing bytes"):
            decode_value(encode_value(7) + b"N")

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text()
            | st.binary(),
            lambda leaf: st.lists(leaf, max_size=4)
            | st.lists(leaf, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=8), leaf, max_size=4),
            max_leaves=20,
        )
    )
    def test_round_trip_property(self, value):
        assert decode_value(encode_value(value)) == value


# --------------------------------------------------------------------- #
# Framing over a real socket: torn frames, bad CRCs, stalls
# --------------------------------------------------------------------- #


class TestFraming:
    def test_frame_round_trip_over_socket(self):
        left, right = frame_pipe()
        try:
            frame = ("CTRL", 3, "RESULTS", {"name": "q"})
            left.sendall(encode_frame(frame))
            got, nbytes = recv_frame(right, read_timeout=5.0)
            assert got == frame
            assert nbytes == len(encode_frame(frame))
        finally:
            left.close()
            right.close()

    def test_clean_close_at_frame_boundary_returns_none(self):
        left, right = frame_pipe()
        right.close()
        try:
            assert recv_frame(left, read_timeout=5.0) is None
        finally:
            left.close()

    def test_torn_mid_frame_disconnect_raises(self):
        """The peer dies halfway through a frame: typed error, not a hang."""
        left, right = frame_pipe()
        try:
            wire = encode_frame(("BATCH", [(1, "u", "v", "a", True)]))
            left.sendall(wire[: len(wire) // 2])
            left.close()
            with pytest.raises(WorkerUnavailableError, match="closed mid-frame|between header"):
                recv_frame(right, read_timeout=5.0)
        finally:
            right.close()

    def test_crc_corrupted_frame_raises(self):
        """One flipped payload bit must be caught by the CRC, not decoded."""
        left, right = frame_pipe()
        try:
            wire = bytearray(encode_frame(("CTRL", 1, "DRAIN", None)))
            wire[-1] ^= 0x40  # flip a payload bit; header CRC now disagrees
            left.sendall(bytes(wire))
            with pytest.raises(WorkerUnavailableError, match="CRC mismatch"):
                recv_frame(right, read_timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_slow_partial_read_hits_read_timeout(self):
        """A stalled peer mid-frame trips the read timeout, bounded in time."""
        left, right = frame_pipe()
        try:
            wire = encode_frame(("CTRL", 2, "SUMMARY", None))
            left.sendall(wire[:6])  # inside the 8-byte header, then silence
            started = time.monotonic()
            with pytest.raises(WorkerUnavailableError, match="stalled"):
                recv_frame(right, read_timeout=0.4)
            assert time.monotonic() - started < 5.0
        finally:
            left.close()
            right.close()

    def test_oversized_length_prefix_rejected(self):
        """A corrupt length prefix must not trigger a giant allocation."""
        import struct

        left, right = frame_pipe()
        try:
            left.sendall(struct.pack("<II", MAX_FRAME_BYTES + 1, 0))
            with pytest.raises(WireProtocolError, match="exceeds MAX_FRAME_BYTES"):
                recv_frame(right, read_timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_idle_connection_is_not_an_error(self):
        """idle_ok waits out silence; the frame then arrives intact."""
        left, right = frame_pipe()
        try:
            frame = ("CTRL", 9, "METRICS", None)

            def late_send():
                time.sleep(0.3)
                left.sendall(encode_frame(frame))

            thread = threading.Thread(target=late_send)
            thread.start()
            got, _ = recv_frame(right, read_timeout=0.1, idle_ok=True)
            thread.join()
            assert got == frame
        finally:
            left.close()
            right.close()


class TestParseWorkerAddress:
    def test_parses_host_and_port(self):
        assert parse_worker_address("10.0.0.7:7300") == ("10.0.0.7", 7300)

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:0", "host:99999", ":7300", "host:abc"])
    def test_rejects_malformed_addresses(self, bad):
        with pytest.raises(ValueError):
            parse_worker_address(bad)

    def test_ephemeral_port_allowed_only_for_listeners(self):
        assert parse_worker_address("0.0.0.0:0", allow_ephemeral=True) == ("0.0.0.0", 0)


# --------------------------------------------------------------------- #
# Worker proxy vs a hostile or absent peer
# --------------------------------------------------------------------- #


def make_worker(address, **config_kwargs):
    config = tcp_config((address,), **config_kwargs)
    worker = create_worker(0, WINDOW, config)
    worker.register_query("q", "a+")
    return worker


class TestDialAndHandshake:
    def test_connect_refused_raises_after_bounded_attempts(self):
        worker = make_worker(
            f"127.0.0.1:{free_port()}", tcp_connect_attempts=2, tcp_connect_backoff=0.01
        )
        started = time.monotonic()
        with pytest.raises(WorkerUnavailableError, match="cannot connect .* after 2 attempts"):
            worker.start()
        assert time.monotonic() - started < 10.0
        assert not worker.running  # the failed start left the proxy stopped

    def test_dial_retries_until_the_worker_comes_up(self):
        """The backoff loop bridges a worker that is still starting."""
        port = free_port()
        server = TcpWorkerServer("127.0.0.1", port)

        def delayed_start():
            time.sleep(0.4)
            server.start_in_background()

        thread = threading.Thread(target=delayed_start)
        thread.start()
        worker = make_worker(
            f"127.0.0.1:{port}", tcp_connect_attempts=20, tcp_connect_backoff=0.05
        )
        try:
            worker.start()
            assert worker.running
            worker.stop()
        finally:
            thread.join()
            server.stop()
        stats = worker.transport_stats()
        assert stats["connect_attempts_total"] >= stats["connects_total"] == 1.0

    @pytest.mark.parametrize(
        "reply,error,match",
        [
            (("NOPE", WIRE_VERSION), WireProtocolError, "instead of WELCOME"),
            (("WELCOME", WIRE_VERSION + 1), WireProtocolError, "wire version"),
            (None, WorkerUnavailableError, "closed during handshake"),
        ],
    )
    def test_bad_handshake_replies_fail_clean(self, reply, error, match):
        """A fake server answering wrongly (or hanging up) cannot wedge start()."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def fake_server():
            sock, _ = listener.accept()
            sock.setblocking(False)
            got = recv_frame(sock, read_timeout=5.0, idle_ok=True)
            assert got is not None and got[0][0] == "HELLO"
            if reply is not None:
                sock.sendall(encode_frame(reply))
                time.sleep(0.2)  # let the client read before the fd dies
            sock.close()

        thread = threading.Thread(target=fake_server)
        thread.start()
        worker = make_worker(f"127.0.0.1:{port}", tcp_connect_attempts=1)
        try:
            with pytest.raises(error, match=match):
                worker.start()
        finally:
            thread.join()
            listener.close()


class TestMidStreamFailure:
    def test_disconnect_with_full_request_queue_still_stops_the_serve_loop(self):
        """A link lost while the serve loop drains a full queue must not drop the STOP."""
        left, right = frame_pipe()
        right.close()  # the coordinator is gone: the reader sees EOF at once
        requests = queue.Queue(maxsize=1)
        requests.put(("BATCH", "still being drained"))
        done = threading.Event()
        reader = threading.Thread(target=_session_reader, args=(left, requests, 5.0, done), daemon=True)
        try:
            reader.start()
            time.sleep(0.3)  # the reader meets the full queue before the serve loop drains it
            assert requests.get(timeout=5.0) == ("BATCH", "still being drained")
            assert requests.get(timeout=5.0)[2] == "STOP"
            reader.join(timeout=5.0)
            assert not reader.is_alive()
        finally:
            done.set()
            left.close()

    def test_server_drop_mid_stream_poisons_shard_sticky(self):
        """A vanished worker surfaces as WorkerUnavailableError, then sticks."""
        server = TcpWorkerServer("127.0.0.1", 0)
        port = server.start_in_background()
        worker = make_worker(f"127.0.0.1:{port}", tcp_read_timeout=5.0)
        try:
            worker.start()
            worker.submit([sgt(1, "u", "v", "a")])
            server.stop()  # kills the live session socket under the proxy
            with pytest.raises(WorkerUnavailableError):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    worker.submit([sgt(2, "v", "w", "a")])
                    worker.fetch_results("q")
            assert isinstance(worker.failure, WorkerUnavailableError)  # sticky
            with pytest.raises(WorkerUnavailableError):
                worker.stop()  # the crash must not pass as a clean stop
        finally:
            server.stop()

    def test_service_health_reports_lost_worker(self):
        """service.health() flips unhealthy and names the dead shard."""
        servers = [TcpWorkerServer("127.0.0.1", 0) for _ in range(2)]
        addresses = tuple(f"127.0.0.1:{server.start_in_background()}" for server in servers)
        service = StreamingQueryService(WINDOW, tcp_config(addresses, tcp_read_timeout=5.0))
        service.register("q", "a+")
        try:
            service.start()
            service.ingest(make_stream(100))
            service.drain()
            assert service.health()["healthy"] is True
            victim = service.router.shard_of("q")
            servers[victim].stop()  # one host vanishes
            with pytest.raises(WorkerUnavailableError):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    service.ingest(make_stream(50, seed=2))
                    service.drain()
            health = service.health()
            assert health["healthy"] is False
            report = health["shards"][victim]
            assert report["ok"] is False and "worker" in report["failure"]
        finally:
            for server in servers:
                server.stop()

    def test_reconnect_after_drop_gives_a_fresh_session(self):
        """A worker process outlives its coordinator: next dial, next session."""
        server = TcpWorkerServer("127.0.0.1", 0)
        port = server.start_in_background()
        address = f"127.0.0.1:{port}"
        try:
            first = make_worker(address)
            first.start()
            first.submit([sgt(1, "u", "v", "a")])
            assert first.fetch_results("q").active_pairs == {("u", "v")}
            first.stop()  # clean STOP: session one ends, server keeps listening

            second = make_worker(address)
            second.start()  # a brand-new dial reaches a brand-new session
            second.submit([sgt(1, "x", "y", "a")])
            assert second.fetch_results("q").active_pairs == {("x", "y")}
            second.stop()
            assert server.sessions_served >= 2
        finally:
            server.stop()

    def test_corrupt_frame_from_coordinator_aborts_only_that_session(self):
        """A CRC-corrupt request kills the session; the server survives it."""
        server = TcpWorkerServer("127.0.0.1", 0)
        port = server.start_in_background()
        address = f"127.0.0.1:{port}"
        try:
            config = tcp_config((address,))
            hello = (
                "HELLO",
                WIRE_VERSION,
                0,
                WINDOW.size,
                WINDOW.slide,
                config.to_dict(),
                [],
                False,
            )
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.setblocking(False)
            try:
                from repro.runtime.transport_tcp import _send_all

                _send_all(sock, encode_frame(hello), 5.0)
                got = recv_frame(sock, read_timeout=5.0, idle_ok=True)
                assert got is not None and got[0] == ("WELCOME", WIRE_VERSION)
                poison = bytearray(encode_frame(("CTRL", 1, "SUMMARY", None)))
                poison[-1] ^= 0xFF
                _send_all(sock, bytes(poison), 5.0)
                # the worker tears the session down rather than decoding lies
                deadline = time.monotonic() + 10.0
                while server.sessions_served == 0 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert server.sessions_served == 1
            finally:
                sock.close()

            replacement = make_worker(address)
            replacement.start()  # the server is still accepting
            replacement.submit([sgt(1, "u", "v", "a")])
            assert replacement.fetch_results("q").active_pairs == {("u", "v")}
            replacement.stop()
        finally:
            server.stop()


class TestChannelContract:
    def test_qsize_unsupported_and_queue_depth_zero(self):
        server = TcpWorkerServer("127.0.0.1", 0)
        port = server.start_in_background()
        worker = make_worker(f"127.0.0.1:{port}")
        try:
            worker.start()
            with pytest.raises(NotImplementedError):
                worker._requests.qsize()
            assert worker.queue_depth() == 0
            worker.stop()
        finally:
            server.stop()

    def test_transport_stats_counts_frames_and_survives_stop(self):
        server = TcpWorkerServer("127.0.0.1", 0)
        port = server.start_in_background()
        worker = make_worker(f"127.0.0.1:{port}")
        try:
            worker.start()
            worker.submit([sgt(1, "u", "v", "a")])
            worker.fetch_results("q")
            live = worker.transport_stats()
            assert live["connected"] == 1.0
            assert live["frames_sent"] >= 2 and live["frames_received"] >= 1
            assert live["bytes_sent"] > 0 and live["bytes_received"] > 0
            worker.stop()
            stopped = worker.transport_stats()
            assert stopped["connected"] == 0.0
            assert stopped["frames_sent"] >= live["frames_sent"]
        finally:
            server.stop()

    def test_put_to_dead_connection_does_not_raise(self):
        """Writes to a dead transport are absorbed, like a dead process queue."""
        server = TcpWorkerServer("127.0.0.1", 0)
        port = server.start_in_background()
        worker = make_worker(f"127.0.0.1:{port}")
        try:
            worker.start()
            worker._conn.fail("injected for test")
            worker._requests.put(("CTRL", 99, "DRAIN", None))  # must not raise
            assert worker._requests._pending_frame is None
        finally:
            try:
                worker.stop()
            except WorkerUnavailableError:
                pass
            server.stop()
