"""The four benchmark workloads: fixed constants and seeded input generation.

Every size below is a constant.  ``rate_eps`` and the phase lengths were
chosen from the measurement recorded in ``baseline/noise.json`` (each
``rate_eps`` is about a third of the seed commit's closed-loop throughput on
the 2-core reference host; see "Constants" in ``README.md`` for why not half);
nothing is derived at run time, so two commits always run the same tuples at
the same pace.

Why four workloads and why these shapes is argued in ``README.md``; the short
form is each workload's ``why`` in ``BENCHMARK.json``, which also repeats the
phase sizes and the rate (``test_smoke.py`` checks that they agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.datasets import UniformStreamGenerator
from repro.graph.stream import with_deletions
from repro.graph.tuples import StreamingGraphTuple

#: Measured seconds of one run at scale 1.0 (``BENCHMARK.json`` ``run_seconds``):
#: the closed-loop and open-loop phases together take about this long at the
#: seed commit.  ``--seconds S`` scales both phases' tuple counts by
#: ``S / RUN_SECONDS``; references are committed for scale 1.0 only.
RUN_SECONDS = 18

#: Tuples per harness batch of the engine-only workload; equals the runtime's
#: default ``RuntimeConfig.batch_size`` so all four workloads batch alike.
BATCH_SIZE = 64

#: ``--seconds`` of a smoke run: all four workloads, live and traced, in <= 30 s.
SMOKE_SECONDS = 0.5


@dataclass(frozen=True)
class Query:
    """One registered persistent query."""

    name: str
    expression: str
    semantics: str = "arbitrary"
    partitions: int = 1


@dataclass(frozen=True)
class Workload:
    """Constants of one workload (see the module docstring)."""

    name: str
    backend: str  # "engine" (no runtime) or a RuntimeConfig backend
    shards: int
    queries: Tuple[Query, ...]
    vertices: int
    labels: Tuple[str, ...]
    edges_per_timestamp: int
    window: int
    slide: int
    deletions: float
    closed_tuples: int
    open_tuples: int
    rate_eps: float
    setup_repeats: int
    csv_input: bool = False
    durable: bool = False
    checkpoint_interval: int = 0

    @property
    def warmup_tuples(self) -> int:
        """One full window plus 10 %, so every phase starts in steady state."""
        return int(self.window * self.edges_per_timestamp * (1 + self.deletions) * 1.1)

    def phase_sizes(self, scale: float) -> Tuple[int, int, int]:
        """``(warm-up, closed-loop, open-loop)`` tuple counts at ``scale``."""
        return (
            self.warmup_tuples,
            max(BATCH_SIZE * 4, int(self.closed_tuples * scale)),
            max(BATCH_SIZE * 4, int(self.open_tuples * scale)),
        )

    def setup_count(self, scale: float) -> int:
        """Set-ups per run: ``setup_repeats``, or two in a functional (small-scale) run."""
        return self.setup_repeats if scale >= 0.25 else min(self.setup_repeats, 2)

    def checkpoint_every(self, scale: float) -> int:
        """Durability checkpoint interval in logged tuples (0 = not durable)."""
        if not self.durable:
            return 0
        return max(BATCH_SIZE * 2, int(self.checkpoint_interval * scale))


# Query names decide placement under the default hash policy (CRC32 of the
# name modulo the shard count); these put two queries on each of two shards.
_DENSE_QUERIES = (
    Query("a-star", "a1 a2*"),
    Query("b-plus", "b1+ b2"),
    Query("c-pairs", "(c1 c2)+"),
    Query("d-tail", "d1 d2*"),
)
_DENSE_LABELS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2", "n1", "n2")

#: 160 equally likely label slots: the four tree-starting labels a-d take one
#: slot each (2.5 % of tuples together), the two continuation labels e and f
#: fourteen each (17.5 %), and sixteen noise labels eight each (80 %, dropped at
#: the router).  Most relevant tuples therefore extend no tree, as on a sparse
#: real graph, and Delta-tree work stays under a quarter of the staged time.
_SPARSE_LABELS = (
    ("a", "b", "c", "d") + ("e", "f") * 14 + tuple(f"n{index}" for index in range(16)) * 8
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="dense_engine",
        backend="engine",
        shards=1,
        queries=_DENSE_QUERIES,
        vertices=150,
        labels=_DENSE_LABELS,
        edges_per_timestamp=8,
        window=120,
        slide=12,
        deletions=0.05,
        closed_tuples=180_000,
        open_tuples=108_000,
        rate_eps=9_000.0,
        setup_repeats=41,
    ),
    Workload(
        name="sparse_tcp",
        backend="tcp",
        shards=2,
        # One single-label query and one path query land on each shard.
        queries=(
            Query("starts-a", "a"),
            Query("path-be", "b e*"),
            Query("path-cf", "c f*"),
            Query("starts-d", "d"),
        ),
        vertices=50_000,
        labels=_SPARSE_LABELS,
        edges_per_timestamp=40,
        window=40,
        slide=4,
        deletions=0.0,
        closed_tuples=700_000,
        open_tuples=420_000,
        rate_eps=70_000.0,
        setup_repeats=9,
        csv_input=True,
    ),
    Workload(
        name="durable_mp",
        backend="multiprocessing",
        shards=2,
        queries=_DENSE_QUERIES,
        vertices=1_000,
        labels=_DENSE_LABELS,
        edges_per_timestamp=8,
        window=80,
        slide=8,
        deletions=0.05,
        closed_tuples=290_000,
        open_tuples=168_000,
        rate_eps=14_000.0,
        setup_repeats=9,
        durable=True,
        checkpoint_interval=35_000,
    ),
    Workload(
        name="churn_threads",
        backend="threading",
        shards=2,
        queries=(
            Query("whale", "a b*", partitions=2),
            Query("simple", "(a c)+", semantics="simple"),
            Query("small", "c+"),
        ),
        vertices=300,
        labels=("a", "b", "c", "d", "e"),
        edges_per_timestamp=4,
        window=60,
        slide=1,
        deletions=0.25,
        closed_tuples=150_000,
        open_tuples=90_000,
        rate_eps=7_500.0,
        setup_repeats=25,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def generate(workload: Workload, seed: int, scale: float) -> List[StreamingGraphTuple]:
    """The workload's whole input stream for ``seed``: warm-up, closed, open.

    Inputs come from :mod:`repro.datasets` generators plus
    :func:`repro.graph.stream.with_deletions`; the same ``(workload, seed,
    scale)`` always yields the same tuples.  The stream is truncated to the
    exact phase total, so injected deletions never change the tuple count.
    """
    total = sum(workload.phase_sizes(scale))
    # 2 % spare: deletions trail their insertions, so the tail holds fewer.
    inserts = int(total / (1 + workload.deletions) * 1.02) + workload.edges_per_timestamp * 16
    generator = UniformStreamGenerator(
        num_vertices=workload.vertices,
        labels=workload.labels,
        edges_per_timestamp=workload.edges_per_timestamp,
        seed=seed,
    )
    stream = list(generator.generate(inserts))
    if workload.deletions > 0:
        stream = with_deletions(stream, workload.deletions, seed=seed)
    if len(stream) < total:
        raise RuntimeError(f"{workload.name}: generated {len(stream)} tuples, need {total}")
    return stream[:total]


def program_view(workload: Workload, tuples: List[StreamingGraphTuple]) -> List[StreamingGraphTuple]:
    """The tuples as the program receives them.

    ``sparse_tcp`` reads its stream back from CSV, which turns vertex ids
    into strings; the oracle must evaluate the same values.
    """
    if not workload.csv_input:
        return tuples
    return [
        StreamingGraphTuple(tup.timestamp, str(tup.source), str(tup.target), tup.label, tup.op)
        for tup in tuples
    ]


def scale_of(seconds: float) -> float:
    """Phase-size scale for the CLI's ``--seconds``."""
    if seconds <= 0:
        raise ValueError(f"--seconds must be positive, got {seconds}")
    return seconds / RUN_SECONDS
