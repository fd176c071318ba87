"""The systems under test behind one small interface.

A *program* is what the load generator drives: ``start()`` (the timed
set-up), ``ingest_one(tuple)``, ``drain()``, ``results(name)`` and ``stop()``.
:class:`EngineProgram` is the single-threaded
:class:`~repro.core.engine.StreamingRPQEngine` with the harness batching 64
tuples per ``process_batch`` call; :class:`ServiceProgram` is a
:class:`~repro.runtime.StreamingQueryService` on the workload's backend.
Both report every newly emitted pair through the same ``on_result(query,
source, target, timestamp)`` callback, which is where result latency closes.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.core.columnar.batch import ColumnarBatch
from repro.core.engine import StreamingRPQEngine
from repro.graph.window import WindowSpec
from repro.runtime import RuntimeConfig, StreamingQueryService

from workloads import BATCH_SIZE, Workload

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Seconds a tcp worker subprocess gets to print its listening address.
_WORKER_BOOT_SECONDS = 30.0

ResultCallback = Callable[[str, object, object, int], None]


class WorkerFleet:
    """Local ``python -m repro worker --listen 127.0.0.1:0`` subprocesses.

    Ports are ephemeral and read back from each worker's first stdout line;
    :meth:`stop` terminates every worker and waits for it, so no ``repro
    worker`` outlives the run whatever happened in between.
    """

    def __init__(self, count: int) -> None:
        self.processes: List[subprocess.Popen] = []
        self.addresses: Tuple[str, ...] = ()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["PYTHONHASHSEED"] = "0"
        try:
            for _ in range(count):
                self.processes.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"]
                        + ["--log-level", "warning"],
                        stdout=subprocess.PIPE,
                        env=env,
                    )
                )
            self.addresses = tuple(self._read_address(proc) for proc in self.processes)
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _read_address(proc: subprocess.Popen) -> str:
        ready, _, _ = select.select([proc.stdout], [], [], _WORKER_BOOT_SECONDS)
        line = proc.stdout.readline().decode() if ready else ""
        address = line.strip().rpartition(" ")[2]  # "worker listening on HOST:PORT"
        if ":" not in address:
            raise RuntimeError(f"tcp worker printed {line!r} instead of its listening address")
        return address

    def stop(self) -> None:
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.processes = []


class EngineProgram:
    """The engine alone: no router, no workers, no wire."""

    def __init__(self, workload: Workload, on_result: ResultCallback) -> None:
        self.workload = workload
        self.on_result = on_result
        self.engine: Optional[StreamingRPQEngine] = None
        self._pending: list = []

    def prepare(self) -> None:
        """Nothing to provide before the timed set-up."""

    def start(self) -> None:
        self.engine = StreamingRPQEngine(WindowSpec(size=self.workload.window, slide=self.workload.slide))
        for query in self.workload.queries:
            self.engine.register(query.name, query.expression, query.semantics)

    def ingest_one(self, tup) -> None:
        pending = self._pending
        pending.append(tup)
        if len(pending) >= BATCH_SIZE:
            self.drain()

    def drain(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        on_result = self.on_result
        for event in self.engine.process_batch(ColumnarBatch.from_tuples(batch)):
            on_result(*event)

    def results(self, name: str):
        return self.engine.query(name).results

    def stop(self, graceful: bool = True) -> None:
        self._pending = []


class ServiceProgram:
    """A sharded service on the workload's backend (plus its tcp fleet / WAL).

    ``scratch`` is a directory private to this instance; a durable workload
    keeps its durability directory there.
    """

    def __init__(self, workload: Workload, on_result: ResultCallback, scratch: Path, scale: float) -> None:
        self.workload = workload
        self.on_result = on_result
        self.scratch = scratch
        self.scale = scale
        self.fleet: Optional[WorkerFleet] = None
        self.service: Optional[StreamingQueryService] = None
        self.wal_dir: Optional[Path] = None
        self.ingest_one = None
        self.drain = None
        self.results = None

    def config(self, wal_dir: Optional[Path], addresses: Optional[Tuple[str, ...]]) -> RuntimeConfig:
        workload = self.workload
        return RuntimeConfig(
            shards=workload.shards,
            backend=workload.backend,
            worker_addresses=addresses,
            wal_dir=None if wal_dir is None else str(wal_dir),
            wal_fsync="batch",
            checkpoint_interval=workload.checkpoint_every(self.scale),
        )

    def prepare(self) -> None:
        """Provide what a deployment has before the service starts: the tcp fleet.

        Spawning two Python interpreters is the host's work, not the
        service's, and took 0.25 or 0.42 s from one run to the next; inside
        ``setup_s`` it drowned the dial, HELLO and bootstrap that are the
        program's own.
        """
        if self.workload.backend == "tcp":
            self.fleet = WorkerFleet(self.workload.shards)

    def start(self) -> None:
        workload = self.workload
        try:
            if workload.durable:
                self.wal_dir = self.scratch / "wal"
            self.service = service = StreamingQueryService(
                WindowSpec(size=workload.window, slide=workload.slide),
                self.config(self.wal_dir, self.fleet.addresses if self.fleet else None),
                on_result=self.on_result,
            )
            for query in workload.queries:
                service.register(
                    query.name, query.expression, semantics=query.semantics, partitions=query.partitions
                )
            service.start()
        except BaseException:
            self.stop(graceful=False)
            raise
        self.ingest_one = service.ingest_one
        self.drain = service.drain
        self.results = service.results

    def stop(self, graceful: bool = True) -> None:
        service, self.service = self.service, None
        try:
            if service is not None:
                # __exit__ with an exception type skips the final drain and
                # checkpoint (teardown after a failure must not block on a
                # broken shard) and stops whichever workers did start.
                service.__exit__(None if graceful else RuntimeError, None, None)
        finally:
            if self.fleet is not None:
                self.fleet.stop()
                self.fleet = None


def make_program(workload: Workload, on_result: ResultCallback, scratch: Path, scale: float):
    """The program for ``workload`` (not yet started)."""
    if workload.backend == "engine":
        return EngineProgram(workload, on_result)
    return ServiceProgram(workload, on_result, scratch, scale)
