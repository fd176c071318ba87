"""One benchmark run of one workload: generate, set up, warm up, load, verify.

This is the body of the fresh subprocess ``run.py`` starts per run.  The load
generator is one thread of this process; the program under test is whatever
``programs.make_program`` builds (an engine, or a service with up to two
shard workers).  The phases are those of ``README.md``:

1. generate the input from the seed (untimed);
2. set the program up ``setup_repeats`` times, each timed until it answers a
   ``drain()``, and keep the last instance (``setup_s`` is the median);
3. warm up with one window + 10 % (untimed);
4. closed loop: the next N tuples as fast as ``ingest_one`` returns, then
   ``drain()`` and ``results(name)`` for every query, all inside the clock;
5. open loop: the stream continues at the fixed ``rate_eps``; tuple *i* is due
   at ``t0 + i / rate_eps`` and every emitted pair closes a latency sample
   ``now - due(first tuple carrying the pair's timestamp)``;
6. verify each query's result stream against the oracle reference and tear
   down.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import statistics
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

from repro.graph.stream import iter_csv, write_csv
from repro.metrics import percentile

import oracle
import procstat
from instrument import Timers
from programs import make_program
from workloads import BATCH_SIZE, Workload, generate

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: The backlog rule needs a phase long enough for a trend to show, and a p99
#: needs ``_MIN_LATENCY_SAMPLES`` samples to have ten beyond it; shorter
#: open-loop phases (``--smoke``) report both but fail on neither.
_MIN_BACKLOG_PHASE_SECONDS = 2.0
_MIN_LATENCY_SAMPLES = 2000

#: Diagnostic only (``loadgen.latency_p99_quiet_ms``): the open-loop samples
#: are cut, in arrival order, into at most this many windows of equal count,
#: each large enough that ten samples lie beyond its p99, and the lower
#: quartile of the windows' p99 is the tail while nothing stalls.  The gap to
#: ``result_latency_p99_ms``, which is taken over every sample of the phase, is
#: what collector pauses, checkpoints and expiry bursts cost the consumer.
_MAX_WINDOWS = 25
_WINDOW_SAMPLES = 1100

#: The closed-loop ingest also records the rate of this many equal slices
#: (``closed_slice_eps`` in the run's record): a run whose slices disagree was
#: disturbed, which the one number N / wall cannot show.
_CLOSED_SLICES = 6


class Recorder:
    """The ``on_result`` consumer: closes a latency sample per emitted pair.

    ``due`` maps a result timestamp to the time its first open-loop tuple
    was due; it is ``None`` outside the open-loop phase.
    """

    def __init__(self) -> None:
        self.due: Optional[Dict[int, float]] = None
        self.samples = array("d")

    def __call__(self, name, source, target, timestamp) -> None:
        due = self.due
        if due is not None:
            start = due.get(timestamp)
            if start is not None:
                self.samples.append(time.perf_counter() - start)


class LiveRun:
    """State and measurements of the live (untraced-program) pass."""

    def __init__(self, workload: Workload, scale: float, scratch: Path, trace: bool) -> None:
        self.workload = workload
        self.scale = scale
        self.scratch = scratch
        self.trace = trace
        self.recorder = Recorder()
        self.timers = Timers()  # call-site timers, installed in trace mode only
        self.program = None
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.digests: Dict[str, Dict[str, object]] = {}
        self.failed = 0
        self.problems: List[str] = []
        self.closed_cpu = 0.0
        self.closed_slice_eps: List[float] = []
        self.latency_samples = 0
        self.recovered_digests: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------ #

    def execute(self, source, open_timestamps: List[int]) -> None:
        """Run the phases over ``source``, an iterator of the whole input stream."""
        workload = self.workload
        warm, closed, opened = workload.phase_sizes(self.scale)
        # Harness data must not be re-traversed by the program's collections,
        # and generating it must not count as the program's peak memory.
        gc.collect()
        gc.freeze()
        procstat.reset_peak_rss()
        if self.trace:
            self._install_call_site_timers()
        try:
            self._setup()
            self._warm_up(source, warm)
            self._closed_loop(source, closed)
            self._open_loop(source, opened, open_timestamps)
            self._finish()
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            self.problems.append(f"{type(exc).__name__}: {exc}")
            self.failed = closed + opened
            if self.program is not None:
                self.program.stop(graceful=False)
                self.program = None
        finally:
            self.timers.restore()
            gc.unfreeze()

    # Phase 2 ------------------------------------------------------------ #

    def _setup(self) -> None:
        workload = self.workload
        seconds = []
        repeats = workload.setup_count(self.scale)
        for index in range(repeats):
            scratch = self.scratch / f"setup-{index}"
            scratch.mkdir()
            program = make_program(workload, self.recorder, scratch, self.scale)
            program.prepare()
            # Up to the first answered drain(): start() alone returns once the
            # workers are forked or dialled, and whether they or the coordinator
            # then got the core first made it read 7 or 12 ms for minutes on end.
            started = time.perf_counter()
            program.start()
            program.drain()
            seconds.append(time.perf_counter() - started)
            if index + 1 < repeats:
                program.stop(graceful=False)
                shutil.rmtree(scratch)
        self.program = program
        self.metrics["setup_s"] = statistics.median(seconds)
        self.layers["runtime.worker.start_ms"] = 1e3 * self.timers.total_s("worker.start") / len(seconds)
        if workload.backend == "tcp":
            self.layers["runtime.transport_tcp.connect_ms"] = self.layers["runtime.worker.start_ms"]

    def _install_call_site_timers(self) -> None:
        from repro.runtime.worker import ShardWorker

        self.timers.patch(ShardWorker, "start", "worker.start")
        self.timers.patch(ShardWorker, "submit", "worker.submit")
        self.timers.patch(ShardWorker, "drain", "worker.drain")

    # Phase 3 ------------------------------------------------------------ #

    def _warm_up(self, source, count: int) -> None:
        ingest = self.program.ingest_one
        for tup in itertools.islice(source, count):
            ingest(tup)
        self.program.drain()

    # Phase 4 ------------------------------------------------------------ #

    def _closed_loop(self, source, count: int) -> None:
        program = self.program
        ingest = program.ingest_one
        names = [query.name for query in self.workload.queries]
        pids = procstat.tree_pids(os.getpid())  # the tree is fixed while the program runs
        gc.collect()  # every timed phase starts from the same collector state
        before = self._live_counters()
        submit_before = self.timers.total_s("worker.submit")
        drain_before = self.timers.total_s("worker.drain")
        clock = time.perf_counter
        sizes = [count // _CLOSED_SLICES] * _CLOSED_SLICES
        sizes[-1] += count - sum(sizes)
        slice_eps = []
        started = mark = clock()
        cpu_started = procstat.cpu_seconds(pids)
        for size in sizes:
            for tup in itertools.islice(source, size):
                ingest(tup)
            now = clock()
            slice_eps.append(size / (now - mark))
            mark = now
        ingested = mark
        program.drain()
        streams = {name: program.results(name) for name in names}
        finished = clock()
        self.closed_cpu = procstat.cpu_seconds(pids) - cpu_started
        self.closed_slice_eps = slice_eps
        self.metrics["throughput_eps"] = count / (finished - started)
        self.metrics["cpu_ms_per_ktuple"] = 1e6 * self.closed_cpu / count
        for name, stream in streams.items():
            self.digests[name] = {
                "closed_events": len(stream),
                "closed_digest": oracle.digest_events(stream.events),
            }
        if self.trace:
            after = self._live_counters()
            submit_s = self.timers.total_s("worker.submit") - submit_before
            self.layers["runtime.worker.submit_wait_s"] = submit_s
            drain_s = self.timers.total_s("worker.drain") - drain_before
            self.layers["runtime.worker.drain_ms"] = 1e3 * drain_s
            self.layers["runtime.service.coordinator_ns_per_tuple"] = (
                0.0 if self.workload.backend == "engine" else 1e9 * (ingested - started - submit_s) / count
            )
            self._live_layers(before, after, count, finished - started)

    # Phase 5 ------------------------------------------------------------ #

    def _open_loop(self, source, count: int, timestamps: List[int]) -> None:
        workload = self.workload
        program = self.program
        ingest = program.ingest_one
        recorder = self.recorder
        interval = 1.0 / workload.rate_eps
        first_index: Dict[int, int] = {}
        for index, timestamp in enumerate(timestamps):
            first_index.setdefault(timestamp, index)
        clock = time.perf_counter
        sleep = time.sleep
        late = array("d")  # every send: how long after its due time it was issued
        wake = array("d")  # sends the generator slept for: its own wake-up error
        record_late = late.append
        record_wake = wake.append
        gc.collect()  # every timed phase starts from the same collector state
        origin = clock() + 0.01
        recorder.due = {timestamp: origin + index * interval for timestamp, index in first_index.items()}
        index = 0
        for tup in itertools.islice(source, count):
            due = origin + index * interval
            now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
                record_wake(now - due)
            record_late(now - due)
            ingest(tup)
            index += 1
        # Backlog at the end of the phase: how far behind schedule the
        # generator still was at its best moment in the last fifth of the
        # sends.  A program that stalls now and then (a checkpoint, a
        # collector pause) catches up in between and reads 0; one that cannot
        # sustain the rate never does: its bounded queues fill, ``ingest_one``
        # blocks, and the generator's lag only grows.
        backlog = max(0.0, min(late[-max(1, count // 5) :])) * workload.rate_eps
        program.drain()
        recorder.due = None
        arrival = recorder.samples
        self.latency_samples = len(arrival)
        self.layers["loadgen.final_backlog_tuples"] = backlog
        self.layers["loadgen.late_p99_ms"] = 1e3 * percentile(late, 0.99)
        self.layers["loadgen.wake_p99_ms"] = 1e3 * percentile(wake, 0.99) if wake else 0.0
        full_length = count * interval >= _MIN_BACKLOG_PHASE_SECONDS
        if arrival:
            # Percentiles of every sample of the phase, stalls included.
            self.metrics["result_latency_p50_ms"] = 1e3 * percentile(arrival, 0.50)
            self.metrics["result_latency_p99_ms"] = 1e3 * percentile(arrival, 0.99)
            windows = max(1, min(_MAX_WINDOWS, len(arrival) // _WINDOW_SAMPLES))
            size = len(arrival) // windows
            quiet = sorted(
                percentile(arrival[start : start + size], 0.99) for start in range(0, size * windows, size)
            )
            self.layers["loadgen.latency_p99_quiet_ms"] = 1e3 * quiet[windows // 4]
        if len(arrival) < (_MIN_LATENCY_SAMPLES if full_length else 1):
            self.problems.append(f"open-loop phase produced {len(arrival)} latency samples")
            self.failed = max(self.failed, count)
        if backlog > BATCH_SIZE * workload.shards and full_length:
            # The program did not keep up with the fixed rate: every sample of
            # this phase counts as having missed the limit.
            self.problems.append(f"open-loop backlog still {backlog:.0f} tuples at the end of the phase")
            self.failed = max(self.failed, count)

    # Phase 6 ------------------------------------------------------------ #

    def _finish(self) -> None:
        program = self.program
        for query in self.workload.queries:
            stream = program.results(query.name)
            self.digests[query.name].update(
                final_events=len(stream), final_digest=oracle.digest_events(stream.events)
            )
        if self.workload.durable:
            self._recover(program)
        self.metrics["peak_rss_mb"] = procstat.tree_peak_rss_mib(os.getpid())
        self.program = None
        program.stop()

    def _recover(self, program) -> None:
        """Recover a copy of the live durability directory and digest it.

        The copy is taken while the service still runs (after the final
        drain), so it looks like the directory a crash would leave: the
        checkpoint chain plus a WAL tail that recovery has to replay.
        """
        from repro.runtime.durability import RecoveryManager

        crashed = self.scratch / "crashed-wal"
        shutil.copytree(program.wal_dir, crashed)
        started = time.perf_counter()
        result = RecoveryManager(crashed).recover(backend="threading")
        seconds = time.perf_counter() - started
        replayed = sum(result.replayed_tuples.values()) + sum(result.replayed_ops.values())
        self.layers["runtime.durability.recover_s"] = seconds
        self.layers["runtime.durability.recover_replayed_records"] = float(replayed)
        replay_seconds = result.phase_seconds.get("replay", 0.0)
        self.layers["runtime.durability.recover_eps"] = (
            replayed / replay_seconds if replay_seconds > 0 else 0.0
        )
        self.recovered_digests = {
            query.name: oracle.digest_events(result.service.results(query.name).events)
            for query in self.workload.queries
        }

    # Live counters (trace mode) ------------------------------------------ #

    def _live_counters(self) -> Optional[Dict[str, object]]:
        service = getattr(self.program, "service", None)
        if not self.trace or service is None:
            return None
        shards = service.shard_metrics()
        totals: Dict[str, float] = {}
        for line in service.metrics_text(refresh=True).splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, _, value = line.rpartition(" ")
            name = name_part.partition("{")[0]
            try:
                totals[name] = totals.get(name, 0.0) + float(value)
            except ValueError:
                continue
        return {
            "busy": [float(stats.get("busy_seconds", 0.0)) for stats in shards],
            "batches": sum(float(stats.get("batches", 0.0)) for stats in shards),
            "totals": totals,
            "dropped": service.router.tuples_dropped,
            "routed": sum(service.router.tuples_routed.values()),
        }

    def _live_layers(self, before, after, count: int, wall: float) -> None:
        layers = self.layers
        if before is None or after is None:
            return
        busy = [b - a for a, b in zip(before["busy"], after["busy"])]
        layers["runtime.worker.busy_s_total"] = sum(busy)
        layers["runtime.worker.busy_share_max"] = max(busy) / wall if busy else 0.0
        layers["runtime.worker.batches"] = after["batches"] - before["batches"]

        def delta(name: str) -> float:
            return after["totals"].get(name, 0.0) - before["totals"].get(name, 0.0)

        routed = after["routed"] - before["routed"]
        dropped = after["dropped"] - before["dropped"]
        layers["runtime.router.dropped_share"] = dropped / count
        layers["runtime.router.fanout"] = routed / (count - dropped) if count > dropped else 0.0
        if self.workload.backend == "tcp":
            layers["runtime.transport_tcp.send_s"] = delta("repro_worker_frame_send_seconds_sum")
        if self.workload.durable:
            layers["runtime.durability.sync_s"] = delta("repro_wal_fsync_seconds_sum")
            layers["runtime.durability.checkpoint_s"] = delta("repro_checkpoint_seconds_sum")
            layers["runtime.durability.checkpoints"] = delta("repro_checkpoints_total")
            layers["runtime.durability.wal_bytes_per_tuple"] = delta("repro_wal_appended_bytes_total") / count


def run(workload: Workload, seed: int, scale: float, trace: bool, reference_dir: Path) -> Dict[str, object]:
    """Execute one run; returns the result record (see ``run.py``)."""
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        tuples = generate(workload, seed, scale)
        warm, closed, _ = workload.phase_sizes(scale)
        open_timestamps = [tup.timestamp for tup in tuples[warm + closed :]]
        if workload.csv_input:
            # The program only ever sees the file; the tuples are let go.
            path = scratch / "stream.csv"
            write_csv(path, tuples)
            tuples = None
            source = iter(iter_csv(path))
        else:
            source = iter(tuples)
        live = LiveRun(workload, scale, scratch, trace)
        # Threads under the interpreter lock run Python on one core at a
        # time; left alone, the scheduler hands the running thread back and
        # forth between the cores, and the cold caches and wake-up delays
        # showed as 15 % run-to-run noise in throughput and CPU per tuple.
        cores = os.sched_getaffinity(0)
        if workload.backend == "threading":
            os.sched_setaffinity(0, {max(cores)})
        try:
            live.execute(source, open_timestamps)
        finally:
            os.sched_setaffinity(0, cores)
        del source
        reference = oracle.load_or_compute(workload, seed, scale, reference_dir)
        mismatches = verify(live, reference)
        if mismatches and oracle.digest_tuples(generate(workload, seed, scale)) != reference["input_digest"]:
            mismatches.append(
                "the generated input differs from the reference's: repro.datasets changed, "
                "rewrite the references (run.py --write-reference)"
            )
        layers = dict(live.layers)
        layer_self: Dict[str, float] = {}
        if trace and not live.problems:
            import staged

            replay = staged.replay(workload, tuples, scale, scratch, live)
            layers.update(replay.layers)
            layer_self = replay.layer_self_s
            for name, digest in replay.digests.items():
                if digest != reference["queries"][name]["closed_digest"]:
                    mismatches.append(f"{name}: staged replay digest differs from the reference")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _, closed, opened = workload.phase_sizes(scale)
    attempted = closed + opened
    failed = attempted if mismatches else min(attempted, live.failed)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not mismatches and not live.problems,
        "attempted": attempted,
        "failed": failed,
        "problems": live.problems + mismatches,
        "latency_samples": live.latency_samples,
        "closed_slice_eps": live.closed_slice_eps,
        # End-to-end numbers come from untraced runs only: a traced run's live
        # pass carries the call-site timers.
        "metrics": layers if trace else live.metrics,
        "layer_self_s": layer_self,
    }


def verify(live: LiveRun, reference: Dict) -> List[str]:
    """Digest mismatches between the live run (and its recovery) and the reference."""
    mismatches = []
    for name, expected in reference["queries"].items():
        got = live.digests.get(name, {})
        for key in ("closed_digest", "final_digest"):
            if got.get(key) != expected[key]:
                mismatches.append(
                    f"{name}: {key} {str(got.get(key))[:12]} != reference {expected[key][:12]} "
                    f"({got.get(key.replace('digest', 'events'))} vs "
                    f"{expected[key.replace('digest', 'events')]} events)"
                )
        recovered = live.recovered_digests
        if recovered is not None and recovered.get(name) != expected["final_digest"]:
            mismatches.append(f"{name}: recovered service digest differs from the reference")
    return mismatches
