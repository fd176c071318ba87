"""TCP transport: shard workers on remote hosts, same typed protocol.

This is the runtime's third transport.  The frames of
:mod:`repro.runtime.protocol` are unchanged — ``REGISTER`` / ``BATCH`` /
``MIGRATE`` / ``METRICS`` / ... travel exactly as they do over the
``threading`` and ``multiprocessing`` queues — only the byte pipe differs:
each frame is serialized by a small tagged binary codec and shipped as one
length-prefixed, CRC-checked unit over a TCP connection.

Wire framing
============

Every frame on the wire is::

    <payload length : uint32 LE> <crc32(payload) : uint32 LE> <payload>

The payload is the typed frame tuple encoded by :func:`encode_value` — a
tagged, self-delimiting binary form covering exactly the value shapes the
protocol promises (``None``, bools, ints, floats, ``str``, ``bytes``,
tuples, lists and dicts; never closures or rich objects).  A CRC mismatch
or torn frame surfaces as :class:`~repro.errors.WorkerUnavailableError`,
never as silently corrupt state.

Handshake
=========

The coordinator dials out (workers never call home).  On connect the
client sends one ``HELLO`` frame::

    ("HELLO", version, shard_id, window_size, window_slide,
     config_dict, bootstrap_frames, emit_results)

carrying everything the worker process needs to rebuild the shard server —
the same ``(op, payload)`` bootstrap replay the multiprocessing backend
ships to its child.  Two optional trailing elements — ``role`` and
``base_lsn`` — request a *standby* session instead (see
:mod:`repro.runtime.replication`): the worker applies replicated WAL
records into a muted replica until it is promoted, at which point the
session falls through into the normal serve loop on the same socket.
The worker answers ``("WELCOME", version)`` — or ``("BUSY", version,
reason)`` when it already hosts a session, which the dialer retries with
the connect backoff schedule — and then runs the standard
:func:`~repro.runtime.worker.serve_shard` loop over the socket.  ``STOP``
ships final shard state back in its reply, exactly like the process
transport, so a cleanly stopped remote worker remains inspectable at the
coordinator.

Failure semantics
=================

* Dialing retries ``tcp_connect_attempts`` times with exponential backoff
  before raising :class:`~repro.errors.WorkerUnavailableError`.
* A read that stalls *mid-frame* for ``tcp_read_timeout`` seconds, a torn
  frame, a CRC mismatch or a peer reset all poison the shard with a sticky
  :class:`~repro.errors.WorkerUnavailableError` surfaced through
  ``service.health()``.  An *idle* connection (no frame in flight) is
  legal indefinitely — workers are silent unless spoken to.
* Backpressure is the transport itself: the worker reads requests into a
  bounded queue, so a slow shard fills the kernel socket buffers and the
  coordinator's ``submit`` blocks, mirroring the bounded-queue semantics
  of the in-process backends.
* A lost worker is recovered by replaying its per-shard WAL onto a fresh
  one via :class:`~repro.runtime.durability.RecoveryManager` (see
  ``docs/NETWORKING.md`` for the failover walkthrough).
"""

from __future__ import annotations

import queue
import select
import socket
import struct
import threading
import time
import zlib
from typing import Dict, Optional, Tuple

from ..errors import (
    ConfigError,
    ReplicationError,
    RuntimeStateError,
    WireProtocolError,
    WorkerUnavailableError,
)
from ..graph.window import WindowSpec
from . import protocol
from .config import RuntimeConfig, parse_worker_address
from .observability.logs import configure_logging, get_logger
from .observability.registry import Histogram
from .worker import WORKER_BACKENDS, ShardEngineServer, ShardWorker, serve_shard

__all__ = [
    "TcpShardWorker",
    "TcpWorkerServer",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "encode_value",
    "decode_value",
    "encode_frame",
    "recv_frame",
]

#: Version stamped on the ``HELLO`` / ``WELCOME`` handshake frames; bumped
#: only when the framing or codec itself changes (protocol-frame evolution
#: rides the existing version-tolerant payload rules instead).
WIRE_VERSION = 1

#: Hard upper bound on one frame's payload, guarding against a corrupt
#: length prefix allocating unbounded memory.
MAX_FRAME_BYTES = 1 << 30

#: Seconds a freshly accepted connection may take to produce its HELLO.
HANDSHAKE_TIMEOUT_SECONDS = 30.0

#: Upper bound of the exponential connect backoff.
_BACKOFF_CAP_SECONDS = 2.0

#: Longest single ``select`` wait; short slices keep every wait loop
#: responsive to socket closure (closing an fd does not reliably wake a
#: blocked ``select`` on it).
_SELECT_SLICE_SECONDS = 0.5

_HEADER = struct.Struct("<II")
_INT64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

_LOG = get_logger("runtime.transport")


# --------------------------------------------------------------------- #
# Value codec (tagged binary, no pickle)
# --------------------------------------------------------------------- #


def encode_value(value) -> bytes:
    """Encode one protocol value into its tagged binary form.

    Covers exactly the shapes :mod:`repro.runtime.protocol` promises for
    frame payloads: ``None``, bools, ints (arbitrary width), floats,
    ``str``, ``bytes``-likes, tuples, lists and dicts, nested freely.

    Raises:
        WireProtocolError: the value (or something nested inside it) is of
            a type the protocol does not allow on the wire.
    """
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value) -> None:
    """Append one value's tagged encoding to ``out`` (recursive)."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        if -(1 << 63) <= value < (1 << 63):
            out += b"i"
            out += _INT64.pack(value)
        else:
            digits = str(value).encode("ascii")
            out += b"I"
            out += _U32.pack(len(digits))
            out += digits
    elif isinstance(value, float):
        out += b"f"
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += b"s"
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out += b"b"
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, tuple):
        out += b"t"
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, list):
        out += b"l"
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out += b"d"
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise WireProtocolError(
            f"value of type {type(value).__name__} cannot cross the tcp transport; "
            f"protocol payloads are plain scalars/str/bytes/tuples/lists/dicts"
        )


def decode_value(data: bytes):
    """Decode :func:`encode_value` output (strict inverse).

    Raises:
        WireProtocolError: the bytes are truncated, carry an unknown tag,
            or leave trailing garbage after the value.
    """
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise WireProtocolError(f"{len(data) - offset} trailing bytes after decoded value")
    return value


def _take(data: bytes, offset: int, count: int) -> Tuple[bytes, int]:
    """Slice ``count`` bytes at ``offset`` or raise on truncation."""
    end = offset + count
    if end > len(data):
        raise WireProtocolError(
            f"truncated value: needed {count} bytes at offset {offset}, have {len(data) - offset}"
        )
    return data[offset:end], end


def _decode_from(data: bytes, offset: int):
    """Decode one tagged value at ``offset``; returns ``(value, new_offset)``."""
    tag, offset = _take(data, offset, 1)
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        raw, offset = _take(data, offset, _INT64.size)
        return _INT64.unpack(raw)[0], offset
    if tag == b"I":
        raw, offset = _take(data, offset, _U32.size)
        digits, offset = _take(data, offset, _U32.unpack(raw)[0])
        return int(digits.decode("ascii")), offset
    if tag == b"f":
        raw, offset = _take(data, offset, _F64.size)
        return _F64.unpack(raw)[0], offset
    if tag == b"s":
        raw, offset = _take(data, offset, _U32.size)
        text, offset = _take(data, offset, _U32.unpack(raw)[0])
        return text.decode("utf-8"), offset
    if tag == b"b":
        raw, offset = _take(data, offset, _U32.size)
        blob, offset = _take(data, offset, _U32.unpack(raw)[0])
        return blob, offset
    if tag in (b"t", b"l"):
        raw, offset = _take(data, offset, _U32.size)
        count = _U32.unpack(raw)[0]
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return (tuple(items) if tag == b"t" else items), offset
    if tag == b"d":
        raw, offset = _take(data, offset, _U32.size)
        count = _U32.unpack(raw)[0]
        mapping = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            item, offset = _decode_from(data, offset)
            mapping[key] = item
        return mapping, offset
    raise WireProtocolError(f"unknown value tag {tag!r} at offset {offset - 1}")


# --------------------------------------------------------------------- #
# Socket framing helpers (non-blocking sockets + select throughout)
# --------------------------------------------------------------------- #


def _wait_ready(sock: socket.socket, timeout: Optional[float], for_write: bool) -> bool:
    """Wait until ``sock`` is readable/writable; ``False`` on timeout.

    Waits in short slices so a concurrently closed socket is noticed
    promptly (``fileno() == -1`` raises ``OSError``) even though closing
    an fd does not wake a ``select`` blocked on it.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        if sock.fileno() < 0:
            raise OSError("socket closed")
        if deadline is None:
            wait = _SELECT_SLICE_SECONDS
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            wait = min(remaining, _SELECT_SLICE_SECONDS)
        try:
            if for_write:
                _, ready, _ = select.select([], [sock], [], wait)
            else:
                ready, _, _ = select.select([sock], [], [], wait)
        except (ValueError, OSError):
            raise OSError("socket closed during wait") from None
        if ready:
            return True


def _recv_exact(
    sock: socket.socket, count: int, timeout: float, idle_until_first_byte: bool
) -> Optional[bytes]:
    """Read exactly ``count`` bytes from a non-blocking socket.

    Returns ``None`` on a clean EOF before the first byte (a legal close
    at a frame boundary).  With ``idle_until_first_byte`` the wait for the
    first byte is unbounded (idle connections are legal); once any byte
    arrived, a stall of ``timeout`` seconds is a torn frame.

    Raises:
        WorkerUnavailableError: EOF or a stalled read mid-way through the
            requested bytes.
        OSError: the socket was closed or errored.
    """
    buf = bytearray()
    while len(buf) < count:
        wait = None if (idle_until_first_byte and not buf) else timeout
        if not _wait_ready(sock, wait, for_write=False):
            raise WorkerUnavailableError(
                f"read stalled for {timeout:.1f}s after {len(buf)} of {count} bytes"
            )
        try:
            chunk = sock.recv(count - len(buf))
        except (BlockingIOError, InterruptedError):
            continue
        except OSError as exc:
            raise WorkerUnavailableError(f"connection error while reading: {exc}") from exc
        if not chunk:
            if not buf:
                return None
            raise WorkerUnavailableError(
                f"connection closed mid-frame after {len(buf)} of {count} bytes"
            )
        buf += chunk
    return bytes(buf)


def recv_frame(
    sock: socket.socket, read_timeout: float, idle_ok: bool = False
) -> Optional[Tuple[object, int]]:
    """Receive one framed protocol value; ``(frame, wire_bytes)`` or ``None``.

    ``None`` means the peer closed cleanly at a frame boundary.  With
    ``idle_ok`` the wait for a frame to *begin* is unbounded; a frame that
    began but stalls for ``read_timeout`` seconds is always an error.

    Raises:
        WorkerUnavailableError: torn frame, mid-frame stall or CRC
            mismatch.
        WireProtocolError: a frame longer than :data:`MAX_FRAME_BYTES` or
            an undecodable payload.
        OSError: the socket was closed or errored.
    """
    header = _recv_exact(sock, _HEADER.size, read_timeout, idle_until_first_byte=idle_ok)
    if header is None:
        return None
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    payload = _recv_exact(sock, length, read_timeout, idle_until_first_byte=False)
    if payload is None:
        raise WorkerUnavailableError(f"connection closed between header and {length}-byte payload")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise WorkerUnavailableError(
            f"frame CRC mismatch (expected {crc:#010x}, got {zlib.crc32(payload) & 0xFFFFFFFF:#010x})"
        )
    return decode_value(payload), _HEADER.size + length


def encode_frame(frame) -> bytes:
    """Serialize one protocol frame into its length-prefixed wire bytes."""
    payload = encode_value(frame)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _send_all(sock: socket.socket, data: bytes, stall_timeout: float) -> None:
    """Send all of ``data``; a zero-progress stall is a dead peer.

    Raises:
        WorkerUnavailableError: no byte could be written for
            ``stall_timeout`` seconds, or the connection errored.
    """
    view = memoryview(data)
    offset = 0
    while offset < len(data):
        try:
            if not _wait_ready(sock, stall_timeout, for_write=True):
                raise WorkerUnavailableError(f"send stalled for {stall_timeout:.1f}s")
            sent = sock.send(view[offset:])
        except (BlockingIOError, InterruptedError):
            continue
        except OSError as exc:
            raise WorkerUnavailableError(f"connection error while sending: {exc}") from exc
        offset += sent


# --------------------------------------------------------------------- #
# Coordinator side: connection, channels, worker proxy
# --------------------------------------------------------------------- #


class _WorkerConnection:
    """One coordinator->worker TCP connection plus its reader thread.

    The reader thread turns received frames into the standard response
    queue the :class:`~repro.runtime.worker.ShardWorker` proxy already
    pumps; a connection failure is reported exactly like an in-process
    worker crash — one synthesized ``FAILURE`` frame (carrying a
    :class:`~repro.errors.WorkerUnavailableError`) followed by
    ``_transport_alive()`` turning false.
    """

    def __init__(self, sock: socket.socket, address: str, read_timeout: float) -> None:
        self.sock = sock
        self.address = address
        self.read_timeout = read_timeout
        self.responses: "queue.Queue" = queue.Queue()
        self.dead = False
        #: Set before a clean STOP so the server's close is not a failure.
        self.expect_close = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.send_seconds = Histogram()
        self._lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None

    def start_reader(self, shard_id: int) -> None:
        """Start the response-reader thread for this connection."""
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-tcp-reader-{shard_id}", daemon=True
        )
        self._reader.start()

    def fail(self, reason: str) -> None:
        """Mark the connection dead (idempotent) and wake any waiter.

        Enqueues the ``FAILURE`` sentinel (unless the close was expected),
        then closes the socket — which wakes a reader or sender blocked in
        a ``select`` slice loop.
        """
        with self._lock:
            if self.dead:
                return
            self.dead = True
            notify = not self.expect_close
        if notify:
            wire = protocol.encode_exception(WorkerUnavailableError(reason))
            self.responses.put((protocol.FAILURE, wire))
            _LOG.warning("tcp worker connection failed: %s", reason)
        self.close_socket()

    def close_socket(self) -> None:
        """Close the socket, swallowing errors from an already-closed fd."""
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def join_reader(self, timeout: Optional[float] = None) -> None:
        """Join the reader thread (bounded when ``timeout`` is given)."""
        if self._reader is not None:
            self._reader.join(timeout)

    def _read_loop(self) -> None:
        """Pump received frames onto the response queue until the pipe ends."""
        while True:
            try:
                got = recv_frame(self.sock, self.read_timeout, idle_ok=True)
            except (WorkerUnavailableError, WireProtocolError, OSError) as exc:
                self.fail(f"worker {self.address}: {exc}")
                return
            if got is None:
                if self.expect_close or self.dead:
                    self.close_socket()
                else:
                    self.fail(f"worker {self.address} closed the connection unexpectedly")
                return
            frame, nbytes = got
            self.bytes_received += nbytes
            self.frames_received += 1
            self.responses.put(frame)


class _SocketRequestChannel:
    """Request-queue facade over a connection: ``put()`` frames the socket.

    Satisfies the channel contract of
    :meth:`~repro.runtime.worker.ShardWorker._make_channels`:

    * ``put(frame, timeout=...)`` raises :class:`queue.Full` when the send
      could not *complete* in time — and, because the proxy's ``submit``
      retries with the *same frame object*, the partially sent bytes are
      kept and resumed, never re-sent (which would corrupt the framing).
    * a blocking ``put(frame)`` (control frames) is bounded by the
      connection's zero-progress stall cap instead of hanging forever on a
      half-open peer.
    * ``qsize()`` raises ``NotImplementedError`` — the kernel socket
      buffer has no frame-granular depth — which ``queue_depth()`` already
      treats as "report 0".
    """

    def __init__(self, conn: _WorkerConnection) -> None:
        self._conn = conn
        self._pending_frame = None
        self._pending_data: Optional[memoryview] = None
        self._pending_offset = 0
        self._pending_started = 0.0

    def put(self, frame, timeout: Optional[float] = None) -> None:
        """Send one frame; resumable on timeout, failing-clean on error."""
        conn = self._conn
        if conn.dead:
            # The proxy notices on its next pump / liveness check; mirroring
            # how a queue to a dead process accepts writes without erroring.
            self._clear_pending()
            return
        if frame is not self._pending_frame:
            self._pending_frame = frame
            self._pending_data = memoryview(encode_frame(frame))
            self._pending_offset = 0
            self._pending_started = time.monotonic()
        deadline = None if timeout is None else time.monotonic() + timeout
        stall_deadline = time.monotonic() + conn.read_timeout
        while self._pending_offset < len(self._pending_data):
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise queue.Full
            if now >= stall_deadline:
                conn.fail(
                    f"worker {conn.address}: send made no progress for "
                    f"{conn.read_timeout:.1f}s (peer stalled or half-open)"
                )
                self._clear_pending()
                return
            wait = stall_deadline - now if deadline is None else min(deadline, stall_deadline) - now
            try:
                if not _wait_ready(conn.sock, min(wait, _SELECT_SLICE_SECONDS), for_write=True):
                    continue
                sent = conn.sock.send(self._pending_data[self._pending_offset :])
            except (BlockingIOError, InterruptedError):
                continue
            except (WorkerUnavailableError, OSError) as exc:
                conn.fail(f"worker {conn.address}: connection lost while sending: {exc}")
                self._clear_pending()
                return
            if sent:
                self._pending_offset += sent
                stall_deadline = time.monotonic() + conn.read_timeout
        conn.bytes_sent += len(self._pending_data)
        conn.frames_sent += 1
        conn.send_seconds.observe(time.monotonic() - self._pending_started)
        self._clear_pending()

    def qsize(self) -> int:
        """Socket buffers have no frame-granular depth."""
        raise NotImplementedError("tcp request channel has no measurable queue depth")

    def _clear_pending(self) -> None:
        self._pending_frame = None
        self._pending_data = None
        self._pending_offset = 0


class TcpShardWorker(ShardWorker):
    """Shard worker proxy whose serve loop runs in a remote process over TCP.

    The coordinator dials the address configured for this shard in
    ``config.worker_addresses`` (``host:port``, one per shard), ships the
    shard's bootstrap in the ``HELLO`` handshake, and then speaks the
    unchanged typed protocol over length-prefixed CRC-checked frames.
    Like the multiprocessing backend, ``STOP`` ships final shard state
    back, so a cleanly stopped remote worker remains inspectable (and
    arbitrary-semantics queries restartable) at the coordinator.

    Dial failures retry with exponential backoff and surface as
    :class:`~repro.errors.WorkerUnavailableError`; mid-stream failures
    poison the shard with the same sticky error, visible through
    ``service.health()``.
    """

    backend = "tcp"
    ship_state_on_stop = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        addresses = self.config.worker_addresses or ()
        if self.shard_id >= len(addresses):
            raise ConfigError(
                f"tcp backend has no worker address for shard {self.shard_id}: "
                f"worker_addresses={list(addresses)!r} (need one host:port per shard)"
            )
        self._address = addresses[self.shard_id]
        self._conn: Optional[_WorkerConnection] = None
        self._connects_total = 0
        self._connect_attempts_total = 0

    # Transport hooks ---------------------------------------------------- #

    def _dial(self) -> socket.socket:
        """Connect to the worker address with bounded retry + backoff."""
        host, port = parse_worker_address(self._address)
        last_error: Optional[OSError] = None
        for attempt in range(self.config.tcp_connect_attempts):
            self._connect_attempts_total += 1
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.config.tcp_connect_timeout
                )
            except OSError as exc:
                last_error = exc
                if attempt + 1 < self.config.tcp_connect_attempts:
                    backoff = self.config.tcp_connect_backoff * (2**attempt)
                    time.sleep(min(backoff, _BACKOFF_CAP_SECONDS))
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._connects_total += 1
            return sock
        raise WorkerUnavailableError(
            f"shard {self.shard_id}: cannot connect to worker at {self._address} "
            f"after {self.config.tcp_connect_attempts} attempts: {last_error}",
            self.shard_id,
        )

    def _make_channels(self):
        """Dial, handshake, and return the socket-backed channel pair.

        A ``BUSY`` handshake reply (the worker already hosts a session —
        e.g. a standby that has not been released yet, or the previous
        session's teardown racing this redial) is retried with the same
        backoff schedule as a refused connect, then surfaced as
        :class:`~repro.errors.WorkerUnavailableError`.
        """
        busy_reason: Optional[str] = None
        for attempt in range(self.config.tcp_connect_attempts):
            if attempt:
                backoff = self.config.tcp_connect_backoff * (2 ** (attempt - 1))
                time.sleep(min(backoff, _BACKOFF_CAP_SECONDS))
            result = self._handshake()
            if not isinstance(result, str):
                return result
            busy_reason = result
        raise WorkerUnavailableError(
            f"shard {self.shard_id}: worker at {self._address} is busy with another "
            f"session after {self.config.tcp_connect_attempts} attempts ({busy_reason}); "
            f"a worker process hosts one coordinator session at a time",
            self.shard_id,
        )

    def _handshake(self):
        """One dial + HELLO attempt; returns channels or a BUSY reason string."""
        sock = self._dial()
        conn = _WorkerConnection(sock, self._address, self.config.tcp_read_timeout)
        hello = (
            "HELLO",
            WIRE_VERSION,
            self.shard_id,
            self.window.size,
            self.window.slide,
            self.config.to_dict(),
            self._server.export_bootstrap(),
            self.on_result is not None,
        )
        try:
            _send_all(sock, encode_frame(hello), self.config.tcp_read_timeout)
            got = recv_frame(sock, self.config.tcp_connect_timeout, idle_ok=False)
        except (WorkerUnavailableError, WireProtocolError, OSError) as exc:
            conn.close_socket()
            raise WorkerUnavailableError(
                f"shard {self.shard_id}: handshake with worker at {self._address} failed: {exc}",
                self.shard_id,
            ) from exc
        if got is None:
            conn.close_socket()
            raise WorkerUnavailableError(
                f"shard {self.shard_id}: worker at {self._address} closed during handshake",
                self.shard_id,
            )
        welcome = got[0]
        if isinstance(welcome, tuple) and welcome and welcome[0] == "BUSY":
            conn.close_socket()
            return str(welcome[2]) if len(welcome) > 2 else "no reason given"
        if not (isinstance(welcome, tuple) and len(welcome) >= 2 and welcome[0] == "WELCOME"):
            conn.close_socket()
            raise WireProtocolError(
                f"shard {self.shard_id}: worker at {self._address} answered the handshake "
                f"with {welcome!r} instead of WELCOME"
            )
        if welcome[1] != WIRE_VERSION:
            conn.close_socket()
            raise WireProtocolError(
                f"shard {self.shard_id}: worker at {self._address} speaks wire version "
                f"{welcome[1]!r}, this coordinator speaks {WIRE_VERSION}"
            )
        self._conn = conn
        return _SocketRequestChannel(conn), conn.responses

    def _launch(self) -> None:
        self._conn.start_reader(self.shard_id)

    def _transport_alive(self) -> bool:
        return self._conn is not None and not self._conn.dead

    def _join(self) -> None:
        conn = self._conn
        if conn is None:
            return
        conn.expect_close = True
        # After the STOP reply the server closes its end; the reader sees the
        # EOF and exits.  Bound the wait, then force the issue by closing —
        # which the reader's sliced select loop notices promptly.
        conn.join_reader(timeout=self.config.tcp_read_timeout)
        conn.close_socket()
        conn.join_reader()
        # Keep self._conn: transport_stats() stays readable after stop.

    # Lifecycle extensions ------------------------------------------------ #

    def adopt_session(self, sock: socket.socket) -> None:
        """Take over a live, already-handshaken serve loop on ``sock``.

        The promotion path: after
        :meth:`~repro.runtime.replication.ReplicationManager.promote` the
        promoted standby is *already* running ``serve_shard`` on this
        socket, positioned at the promotion LSN.  Dialing or sending
        another ``HELLO`` would be wrong — this proxy just wraps the
        socket in the usual connection + channel pair and starts its
        reader, after which it is indistinguishable from a worker that
        went through :meth:`start`.
        """
        if self.running:
            raise RuntimeStateError(f"shard {self.shard_id} is already running")
        self._check_failure()
        conn = _WorkerConnection(sock, self._address, self.config.tcp_read_timeout)
        self._conn = conn
        self._connects_total += 1
        self._requests = _SocketRequestChannel(conn)
        self._responses = conn.responses
        conn.start_reader(self.shard_id)

    def abandon(self) -> None:
        """Release a dead session's transport resources without a STOP.

        The promotion path's counterpart for the *old* primary: it is
        unreachable, so there is no serve loop left to stop — closing the
        socket and joining the reader is all that remains.  The proxy
        keeps its sticky failure (callers that still hold it see the
        original :class:`~repro.errors.WorkerUnavailableError`), and the
        service drops its reference.
        """
        conn = self._conn
        self._requests = None
        self._responses = None
        if conn is None:
            return
        conn.expect_close = True
        conn.close_socket()
        conn.join_reader()

    def stop(self) -> None:
        """Stop the remote serve loop; the server closing is expected here."""
        conn = self._conn
        if self.running and conn is not None:
            conn.expect_close = True
        super().stop()

    def transport_stats(self) -> Optional[Dict[str, object]]:
        """Connection-level counters for the observability layer."""
        conn = self._conn
        connected = conn is not None and not conn.dead and self._requests is not None
        stats: Dict[str, object] = {
            "address": self._address,
            "connected": 1.0 if connected else 0.0,
            "connects_total": float(self._connects_total),
            "connect_attempts_total": float(self._connect_attempts_total),
            "bytes_sent": float(conn.bytes_sent if conn else 0),
            "bytes_received": float(conn.bytes_received if conn else 0),
            "frames_sent": float(conn.frames_sent if conn else 0),
            "frames_received": float(conn.frames_received if conn else 0),
        }
        if conn is not None:
            stats["send_seconds"] = conn.send_seconds.state()
        return stats


# --------------------------------------------------------------------- #
# Worker side: the standalone server (``repro worker --listen``)
# --------------------------------------------------------------------- #


class _SocketResponseWriter:
    """Response-queue facade of a worker session: ``put()`` frames the socket.

    Once a send fails the writer goes dead and silently discards later
    frames — the coordinator is gone; the session reader will notice the
    matching EOF/reset and wind the serve loop down via a synthesized
    ``STOP``.
    """

    def __init__(self, sock: socket.socket, stall_timeout: float) -> None:
        self._sock = sock
        self._stall_timeout = stall_timeout
        self.dead = False

    def put(self, frame) -> None:
        """Send one response frame, going dead (not raising) on failure."""
        if self.dead:
            return
        try:
            _send_all(self._sock, encode_frame(frame), self._stall_timeout)
        except (WorkerUnavailableError, OSError) as exc:
            self.dead = True
            _LOG.warning("tcp worker session: dropping responses, send failed: %s", exc)


def _session_reader(
    sock: socket.socket, requests: "queue.Queue", read_timeout: float, done: threading.Event
) -> None:
    """Feed received request frames into the session's bounded queue.

    The bounded ``put`` is the backpressure mechanism: a slow shard stops
    reading, the kernel buffers fill, and the coordinator's send blocks —
    the TCP equivalent of the in-process bounded request queue.  An
    abnormal disconnect synthesizes a ``STOP`` control frame so the serve
    loop terminates instead of waiting forever on a dead pipe.
    """
    while True:
        try:
            got = recv_frame(sock, read_timeout, idle_ok=True)
        except (WorkerUnavailableError, WireProtocolError, OSError) as exc:
            if not done.is_set():
                _LOG.warning("tcp worker session: coordinator link failed: %s", exc)
            got = None
        if got is None:
            # A full queue means the serve loop is still draining batches:
            # wait for a slot, since a dropped STOP leaves it waiting forever.
            while not done.is_set():
                try:
                    requests.put((protocol.CONTROL, -1, protocol.STOP, False), timeout=_SELECT_SLICE_SECONDS)
                    break
                except queue.Full:
                    pass
            return
        frame = got[0]
        while True:
            try:
                requests.put(frame, timeout=_SELECT_SLICE_SECONDS)
                break
            except queue.Full:
                if done.is_set():
                    return


def replication_mod():
    """Late import of :mod:`repro.runtime.replication` (it imports us)."""
    from . import replication

    return replication


class TcpWorkerServer:
    """Standalone shard-worker server: accept a coordinator, serve a shard.

    This is what ``repro worker --listen HOST:PORT`` runs.  Sessions are
    logically sequential — one coordinator at a time owns the worker —
    and each session is self-describing: the ``HELLO`` frame carries the
    shard id, window, runtime config and bootstrap frames, so one worker
    process can serve successive coordinators (e.g. a recovery run after
    a crash) without restarting.  A dial that arrives *while a session is
    active* (the worker hosts another coordinator's shard or standby) is
    rejected explicitly with a ``("BUSY", version, reason)`` handshake
    reply and counted in ``sessions_rejected`` — an error at the dialer,
    never a silent hang in the backlog.

    Args:
        host: interface to bind.
        port: port to bind; ``0`` binds an ephemeral port — read the
            chosen one back from :meth:`start`'s return value (or the
            ``port`` attribute after it ran).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.sessions_served = 0
        self.sessions_rejected = 0
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._active_lock = threading.Lock()
        self._active_sock: Optional[socket.socket] = None
        self._active_desc = "a session"
        self._session_thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and listen; returns the bound port (resolves ``port=0``)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(1)
        listener.settimeout(_SELECT_SLICE_SECONDS)
        self._listener = listener
        self.port = listener.getsockname()[1]
        _LOG.info("tcp worker listening on %s:%d", self.host, self.port)
        return self.port

    def serve_forever(self) -> None:
        """Accept and serve coordinator sessions until :meth:`stop`.

        Each accepted session runs on its own thread so the accept loop
        stays responsive while a session is active — not for parallelism
        (sessions stay one-at-a-time) but so a second dial can be told
        ``BUSY`` immediately instead of parking in the listen backlog
        until the first session ends.
        """
        if self._listener is None:
            self.start()
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._active_lock:
                session = self._session_thread
                busy = session is not None and session.is_alive()
                if not busy:
                    if session is not None:
                        session.join()
                    self._active_sock = sock
                    self._active_desc = f"a session from {peer}"
                    # Counted at accept, not teardown: a coordinator whose
                    # dial succeeded must observe the increment even though
                    # its stop() returns before this side finishes tearing
                    # the session down.
                    self.sessions_served += 1
                    self._session_thread = threading.Thread(
                        target=self._run_session,
                        args=(sock, peer),
                        name=f"repro-tcp-server-{self.port}-session",
                        daemon=True,
                    )
                    self._session_thread.start()
            if busy:
                self._reject_session(sock, peer)
        session = self._session_thread
        if session is not None:
            session.join()

    def _run_session(self, sock: socket.socket, peer) -> None:
        try:
            self._serve_session(sock, peer)
        finally:
            with self._active_lock:
                self._active_sock = None

    def _reject_session(self, sock: socket.socket, peer) -> None:
        """Tell a dialer the worker is taken, explicitly, then hang up.

        The HELLO is consumed first so closing the socket after the
        ``BUSY`` reply sends a clean FIN (unread data would trigger a
        reset that could destroy the reply in flight).
        """
        self.sessions_rejected += 1
        with self._active_lock:
            reason = f"worker at {self.host}:{self.port} already hosts {self._active_desc}"
        _LOG.warning("session from %s rejected: %s", peer, reason)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            try:
                recv_frame(sock, 2 * _SELECT_SLICE_SECONDS, idle_ok=False)
            except (WorkerUnavailableError, WireProtocolError, OSError):
                pass
            _send_all(
                sock,
                encode_frame(("BUSY", WIRE_VERSION, reason)),
                2 * _SELECT_SLICE_SECONDS,
            )
        except (WorkerUnavailableError, OSError):
            pass  # the dialer vanished; nothing to tell it
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def start_in_background(self) -> int:
        """Run :meth:`serve_forever` on a daemon thread; returns the port."""
        port = self.start() if self._listener is None else self.port
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"repro-tcp-worker-{port}", daemon=True
        )
        self._thread.start()
        return port

    def stop(self) -> None:
        """Close the listener and any in-flight session, then join."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        with self._active_lock:
            if self._active_sock is not None:
                try:
                    self._active_sock.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        session = self._session_thread
        if session is not None:
            session.join()
            self._session_thread = None

    def _serve_session(self, sock: socket.socket, peer) -> None:
        """Handshake one coordinator and run its shard's serve loop."""
        done = threading.Event()
        reader: Optional[threading.Thread] = None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            got = recv_frame(sock, HANDSHAKE_TIMEOUT_SECONDS, idle_ok=False)
            if got is None:
                return
            hello = got[0]
            if not (isinstance(hello, tuple) and len(hello) >= 8 and hello[0] == "HELLO"):
                raise WireProtocolError(f"expected a HELLO handshake frame, got {hello!r}")
            if hello[1] != WIRE_VERSION:
                raise WireProtocolError(
                    f"coordinator speaks wire version {hello[1]!r}, this worker speaks {WIRE_VERSION}"
                )
            _, _, shard_id, size, slide, config_state, bootstrap, emit_results = hello[:8]
            role = hello[8] if len(hello) > 8 else "primary"
            base_lsn = hello[9] if len(hello) > 9 else 0
            config = RuntimeConfig.from_dict(config_state)
            configure_logging(config.log_level, config.log_format)
            server = ShardEngineServer(shard_id, WindowSpec(size=size, slide=slide), config)
            for op, payload in bootstrap:
                server.execute(op, payload)
            _send_all(sock, encode_frame(("WELCOME", WIRE_VERSION)), config.tcp_read_timeout)
            with self._active_lock:
                self._active_desc = f"shard {shard_id}'s {role} session"
            if role == replication_mod().STANDBY_ROLE:
                # A distinct trace lane: the standby's apply spans (and,
                # after a promotion, its batch spans) must be tellable
                # apart from the dead primary's ``worker-<shard>`` lane.
                server.tracer.process = f"standby-{shard_id}"
                _LOG.info(
                    "session from %s: standby for shard %d from LSN %d", peer, shard_id, base_lsn
                )
                handoff = replication_mod().serve_standby(
                    server, sock, config.tcp_read_timeout, base_lsn
                )
                if handoff is None:
                    _LOG.info("session from %s: standby for shard %d released", peer, shard_id)
                    return
                emit_results = handoff.emit_results
                with self._active_lock:
                    self._active_desc = f"shard {shard_id}'s promoted session"
                _LOG.info(
                    "session from %s: standby for shard %d promoted at LSN %d",
                    peer,
                    shard_id,
                    handoff.lsn,
                )
            _LOG.info("session from %s: serving shard %d", peer, shard_id)
            requests: "queue.Queue" = queue.Queue(maxsize=config.queue_depth)
            writer = _SocketResponseWriter(sock, config.tcp_read_timeout)
            reader = threading.Thread(
                target=_session_reader,
                args=(sock, requests, config.tcp_read_timeout, done),
                name=f"repro-tcp-session-{shard_id}",
                daemon=True,
            )
            reader.start()
            serve_shard(server, requests, writer, emit_results, ship_state_on_stop=True)
            _LOG.info("session from %s: shard %d stopped", peer, shard_id)
        except (WorkerUnavailableError, WireProtocolError, ReplicationError, OSError) as exc:
            _LOG.warning("session from %s aborted: %s", peer, exc)
        finally:
            done.set()
            # Close BEFORE joining: the reader may be idling in its select
            # slice loop and only exits once the fd goes away.
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            if reader is not None:
                reader.join()


WORKER_BACKENDS.setdefault(TcpShardWorker.backend, TcpShardWorker)
