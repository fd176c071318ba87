"""Columnar fast path — batched columnar evaluation vs the scalar engine.

Not a figure of the paper: this benchmark measures the columnar hot path
(:mod:`repro.core.columnar`) added on top of it.  The multi-query workload
of ``bench_runtime_scaling`` is evaluated two ways on the same host:

* **scalar** — plain :class:`~repro.core.rapq.RAPQEvaluator` objects fed
  tuple at a time through the engine (the pre-columnar hot path);
* **columnar** — :class:`~repro.core.columnar.ColumnarRAPQEvaluator`
  objects fed :class:`~repro.core.columnar.ColumnarBatch` batches through
  ``engine.process_batch`` (batch construction included in the timing —
  it is part of the path).

Both must produce exactly the same result triples — the fast path is
a transport/layout change, never a semantic one.  Each configuration is
warmed once and timed as the best of ``ROUNDS`` runs, so the committed
ratios are not skewed by cold caches on whichever configuration happens
to run first.

What the ratio can honestly reach is bounded by Amdahl's law: the Delta
spanning-tree mutations (``_insert``, expiry pruning) are identical work
in both paths and profile at ~70-80% of a dense run, and the scalar
engine's label-routing map already skips irrelevant tuples with one dict
lookup per tuple.  The columnar win is therefore confined to per-tuple
dispatch overhead — batch construction, clock advancement collapsed to
per-run boundary scans, interned int keys instead of string tuples —
which measures at ~1.25-1.55x on dense workloads (flat across relevance
fractions from 12% to 80%).  Raw throughput is
machine-dependent, so the JSON record gates on same-run *ratios*:
``columnar_vs_scalar_speedup`` (strict target >= 1.2x; the regression
gate's conservative floor is 1.1x).  The ratio is asserted here only
when ``REPRO_BENCH_STRICT=1`` is set, so shared/noisy CI runners track the
trajectory without flaking the build; ``check_regression.py`` enforces
the floor on main.

Besides the human-readable table, the run emits machine-readable
``results/BENCH_columnar.json`` so the trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.core.columnar import ColumnarBatch
from repro.core.engine import StreamingRPQEngine
from repro.core.rapq import RAPQEvaluator
from repro.datasets.synthetic import UniformStreamGenerator
from repro.graph.stream import with_deletions
from repro.graph.window import WindowSpec

#: Queries over disjoint label groups (same workload as runtime scaling).
QUERIES = {
    "q-a": "a1 a2*",
    "q-b": "b1+ b2",
    "q-c": "(c1 c2)+",
    "q-d": "d1 d2*",
}

_SCALES = {
    "tiny": (4_000, 30),
    "small": (12_000, 60),
    "medium": (40_000, 120),
}

BATCH_SIZE = 512

#: Timed runs per configuration (best-of, after one warm-up of the
#: columnar path primes allocator/caches for both configurations).
ROUNDS = 2

#: Strict-mode expectations (opt-in via REPRO_BENCH_STRICT=1; the
#: regression gate on main uses the more conservative floors documented in
#: check_regression.py).  See the module docstring for why the columnar
#: target is 1.2x and not higher: the tree mutations dominating dense
#: runs are shared work, and the scalar baseline already label-routes.
_EXPECTED_COLUMNAR_SPEEDUP = 1.2


def build_workload(scale: str):
    num_edges, window_size = _SCALES[scale]
    labels = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2", "noise1", "noise2")
    generator = UniformStreamGenerator(num_vertices=150, labels=labels, edges_per_timestamp=8, seed=13)
    stream = with_deletions(list(generator.generate(num_edges)), 0.05, seed=13)
    return stream, WindowSpec(size=window_size, slide=max(1, window_size // 10))


def result_triples(engine: StreamingRPQEngine):
    return {
        name: {(e.source, e.target, e.timestamp) for e in engine.query(name).results.positives()}
        for name in QUERIES
    }


def run_scalar(stream, window):
    """Tuple-at-a-time evaluation with plain scalar evaluators."""
    engine = StreamingRPQEngine(window)
    for name, expression in QUERIES.items():
        engine.register_evaluator(name, RAPQEvaluator(expression, window), "arbitrary")
    started = time.perf_counter()
    for tup in stream:
        engine.process(tup)
    elapsed = time.perf_counter() - started
    return elapsed, result_triples(engine)


def run_columnar(stream, window):
    """Batched evaluation on the columnar fast path (batch build included)."""
    engine = StreamingRPQEngine(window)
    for name, expression in QUERIES.items():
        engine.register(name, expression)
    started = time.perf_counter()
    for start in range(0, len(stream), BATCH_SIZE):
        engine.process_batch(ColumnarBatch.from_tuples(stream[start : start + BATCH_SIZE]))
    elapsed = time.perf_counter() - started
    return elapsed, result_triples(engine)


def _best_of(runner, stream, window, expected=None):
    """Best (minimum) wall time over ROUNDS runs; asserts exact results."""
    best_seconds, triples = runner(stream, window)
    for _ in range(ROUNDS - 1):
        seconds, triples = runner(stream, window)
        best_seconds = min(best_seconds, seconds)
    if expected is not None:
        assert triples == expected, f"{runner.__name__} diverged from the scalar engine"
    return best_seconds, triples


def columnar_benchmark(scale: str):
    stream, window = build_workload(scale)
    run_columnar(stream, window)  # warm-up: prime caches for both configurations
    scalar_seconds, expected = _best_of(run_scalar, stream, window)
    columnar_seconds, _ = _best_of(run_columnar, stream, window, expected)
    speedup = scalar_seconds / columnar_seconds
    rows = [
        ("scalar (per tuple)", scalar_seconds, len(stream) / scalar_seconds, 1.0),
        (f"columnar (batch {BATCH_SIZE})", columnar_seconds, len(stream) / columnar_seconds, speedup),
    ]
    return len(stream), rows, {"columnar_vs_scalar_speedup": speedup}


def render(num_tuples, rows) -> str:
    lines = [
        f"Columnar fast path — {num_tuples} tuples, {len(QUERIES)} queries",
        f"{'configuration':<28} {'seconds':>8} {'edges/s':>12} {'speedup':>8}",
    ]
    for name, seconds, eps, speedup in rows:
        lines.append(f"{name:<28} {seconds:>8.2f} {eps:>12,.0f} {speedup:>7.2f}x")
    return "\n".join(lines)


def write_json(path, scale, num_tuples, ratios) -> None:
    """Emit the machine-readable trajectory record (BENCH_columnar.json)."""
    record = {
        "benchmark": "columnar",
        "scale": scale,
        "num_tuples": num_tuples,
        "batch_size": BATCH_SIZE,
        "queries": list(QUERIES),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **ratios,
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_columnar_speedup(benchmark, save_result, results_dir, bench_scale):
    num_tuples, rows, ratios = benchmark.pedantic(
        columnar_benchmark, args=(bench_scale,), rounds=1, iterations=1
    )
    save_result("columnar", render(num_tuples, rows))
    json_path = results_dir / "BENCH_columnar.json"
    write_json(json_path, bench_scale, num_tuples, ratios)
    print(f"[saved to {json_path}]")

    for _, seconds, eps, _ in rows:
        assert seconds > 0 and eps > 0

    col = ratios["columnar_vs_scalar_speedup"]
    print(f"[columnar vs scalar: {col:.2f}x]")
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert col > _EXPECTED_COLUMNAR_SPEEDUP, (
            f"columnar fast path is only {col:.2f}x the scalar engine; "
            f"expected > {_EXPECTED_COLUMNAR_SPEEDUP}x"
        )
