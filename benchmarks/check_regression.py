"""Benchmark regression gate: fresh vs committed benchmark records.

CI re-runs ``bench_runtime_scaling.py``, ``bench_rebalancing.py``,
``bench_partitioned_whale.py``, ``bench_durability.py``,
``bench_observability.py``, ``bench_tracing.py``, ``bench_columnar.py``,
``bench_network.py`` and ``bench_replication.py`` on every push to main
and compares the fresh
records against the ones committed in ``results/``.  Raw throughput numbers are useless across machines (a
laptop, a 1-core container and a GitHub runner differ by an order of
magnitude), so every gated number is *hardware-tolerant*: the scaling
record gates on each configuration's ``speedup_vs_baseline`` (service
throughput relative to the single-threaded engine measured in the *same
run*), the rebalancing and partitioned-whale records on
``modeled_parallel_speedup`` (critical-path ratio of two runs on the same
host), and the durability record on ``wal_relative_throughput``
(batch-fsync WAL throughput over no-WAL throughput of the same run pair)
— machine speed cancels out of all of them.  A number regresses when it
drops by more than ``--tolerance`` (default 30%) against the committed
record.  The observability record (``instrumented_relative_throughput``,
instrumented over uninstrumented ingestion of the same run set) also
carries an *absolute floor* of 0.95: instrumentation overhead above 5%
fails the gate regardless of what the committed record says.  The
tracing record carries two absolute floors of the same kind:
``sampled_off_relative_throughput`` must stay above 0.97 (arming the
sampler without sampling is one RNG draw per batch) and
``sampled_1pct_relative_throughput`` above 0.95 (1% head sampling is the
production-realistic configuration) — both relative to the untraced
baseline of the same run set, with the widened relative tolerance of the
network gates because the priced effect is a few percent while
same-host scheduler noise swings runs by more than that.  The
columnar record carries an absolute floor of its own:
``columnar_vs_scalar_speedup`` must stay above 1.1x (the batched path
must remain a win over per-tuple dispatch — see ``bench_columnar.py``
for why the honest ceiling is ~1.5x, not higher).  The network
record (``tcp_relative_throughput``, loopback-TCP-worker over
multiprocessing ingestion of the same run pair) carries an absolute
floor of 0.3 — the socket transport must stay within a small factor of
the pipe transport — but a deliberately *widened* relative tolerance,
because subprocess scheduling noise on small hosts swings that ratio by
far more than a real codec regression would.  The replication record
(``replication_relative_throughput``, hot-standby-armed over
*evaluation-matched* bare tcp ingestion: the baseline registers every
query twice, so both runs carry the standby's duplicate evaluation and
the ratio prices only the replication wire — see
``bench_replication.py``) carries an absolute floor of 0.85 — shipping
the record log may not cost more than 15% of ingestion — with the same
widened relative tolerance, for the same reason.

Runnable locally after a benchmark run::

    PYTHONPATH=src REPRO_BENCH_SCALE=small python -m pytest benchmarks/bench_runtime_scaling.py -q
    python benchmarks/check_regression.py

By default the baseline is the committed record (``git show
HEAD:results/BENCH_runtime_scaling.json``) and the fresh record is the
working-tree file the benchmark just overwrote.  Pass ``--baseline PATH``
to compare against a saved file instead.

Tolerances and caveats (why this gate is deliberately loose):

* configurations present in only one record are reported but never fail
  the gate (shard counts and backends may change across PRs);
* a missing baseline (first run on a branch that never committed one)
  passes with a notice;
* the multiprocessing-vs-threading ratio depends on the host's core
  count, so only per-configuration *relative* drops gate, never absolute
  numbers or cross-backend ratios.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

DEFAULT_RESULT = Path("results") / "BENCH_runtime_scaling.json"
REBALANCING_RESULT = Path("results") / "BENCH_rebalancing.json"
PARTITIONED_WHALE_RESULT = Path("results") / "BENCH_partitioned_whale.json"
DURABILITY_RESULT = Path("results") / "BENCH_durability.json"
OBSERVABILITY_RESULT = Path("results") / "BENCH_observability.json"
TRACING_RESULT = Path("results") / "BENCH_tracing.json"
COLUMNAR_RESULT = Path("results") / "BENCH_columnar.json"
NETWORK_RESULT = Path("results") / "BENCH_network.json"
REPLICATION_RESULT = Path("results") / "BENCH_replication.json"

#: Absolute floor on the observability record's headline: instrumented
#: ingestion must keep at least this fraction of uninstrumented throughput.
OBSERVABILITY_FLOOR = 0.95

#: Absolute floors on the tracing record: an armed-but-never-sampling
#: tracer must keep 97% of untraced throughput, 1% head sampling 95%.
TRACING_SAMPLED_OFF_FLOOR = 0.97
TRACING_SAMPLED_FLOOR = 0.95

#: Absolute floor on the columnar record: the batched columnar path must
#: beat per-tuple scalar dispatch.
COLUMNAR_FLOOR = 1.1

#: Absolute floor on the network record: loopback tcp workers must keep at
#: least this fraction of the multiprocessing backend's throughput.
NETWORK_FLOOR = 0.3

#: The network ratio is same-host but cross-*process-pair*: on 1-2 core
#: hosts the scheduler swings it by +-2x between runs, so its relative
#: gate is never tightened below this.
NETWORK_MIN_TOLERANCE = 0.60

#: Absolute floor on the replication record: ingestion with a hot standby
#: armed per shard must keep at least this fraction of the
#: evaluation-matched bare-tcp baseline (shipping the record log may not
#: cost more than 15%; the duplicated evaluation itself is normalized
#: out — see ``bench_replication.py``).
REPLICATION_FLOOR = 0.85


def load_fresh(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


def load_committed(relative: Path, repo_root: Path) -> dict | None:
    """The committed version of a record, via ``git show HEAD:<path>``."""
    result = subprocess.run(
        ["git", "show", f"HEAD:{relative.as_posix()}"],
        capture_output=True,
        text=True,
        cwd=repo_root,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def load_baseline(path_or_none: str | None, repo_root: Path) -> dict | None:
    """The scaling baseline: an explicit file, or the committed record.

    Only the implicit git-show default may be absent (first run on a branch
    that never committed a record); an explicitly named baseline file that
    does not exist is an operator error, not a reason to skip the gate.
    """
    if path_or_none is not None:
        path = Path(path_or_none)
        if not path.exists():
            raise SystemExit(f"baseline record {path} not found (explicit --baseline must exist)")
        with path.open() as handle:
            return json.load(handle)
    return load_committed(DEFAULT_RESULT, repo_root)


def config_speedups(record: dict) -> dict:
    """Map ``(backend, shards) -> speedup_vs_baseline`` from a bench record."""
    return {
        (entry["backend"], entry["shards"]): entry["speedup_vs_baseline"]
        for entry in record.get("configs", [])
    }


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return one line per regressed configuration (empty = gate passes)."""
    base = config_speedups(baseline)
    new = config_speedups(fresh)
    regressions = []
    for key in sorted(base.keys() | new.keys()):
        backend, shards = key
        label = f"{backend} x {shards} shard(s)"
        if key not in base:
            print(f"  new configuration {label}: {new[key]:.2f}x (no baseline, not gated)")
            continue
        if key not in new:
            print(f"  configuration {label} disappeared (was {base[key]:.2f}x, not gated)")
            continue
        drop = (base[key] - new[key]) / base[key] if base[key] > 0 else 0.0
        status = "REGRESSED" if drop > tolerance else "ok"
        print(f"  {label}: {base[key]:.2f}x -> {new[key]:.2f}x " f"({-drop:+.0%} relative) {status}")
        if drop > tolerance:
            regressions.append(
                f"{label}: relative speedup fell {drop:.0%} "
                f"({base[key]:.2f}x -> {new[key]:.2f}x), tolerance is {tolerance:.0%}"
            )
    return regressions


def compare_scalar_metric(
    repo_root: Path,
    tolerance: float,
    relative: Path,
    label: str,
    key: str = "modeled_parallel_speedup",
    floor: float | None = None,
) -> list[str]:
    """Gate one record's headline scalar (bigger = better), when present.

    Used for the rebalancing / partitioned-whale records
    (``modeled_parallel_speedup``), the durability record
    (``wal_relative_throughput``), the observability record
    (``instrumented_relative_throughput``), the columnar record
    (``columnar_vs_scalar_speedup``) and the
    network record (``tcp_relative_throughput``) — each
    a same-host ratio of two runs, so machine speed cancels out.  Both sides are optional (the
    benchmark may not have been rerun, or the record may predate this
    gate) — only a present-and-regressed pair fails.  ``floor``
    additionally rejects a fresh value below an absolute minimum even when
    the committed record is equally low (or absent).
    """
    problems: list[str] = []
    fresh_path = repo_root / relative
    if not fresh_path.exists():
        print(f"no fresh {label} record; skipping the {label} gate")
        return []
    new = load_fresh(fresh_path).get(key)
    if floor is not None and new and new < floor:
        print(f"  {label} {key}: {new:.3f}x is below the absolute floor {floor:.2f} FAILED")
        problems.append(f"{label} {key} is {new:.3f}x, below the absolute floor of {floor:.2f}x")
    baseline = load_committed(relative, repo_root)
    if baseline is None:
        print(f"no committed {label} record; skipping the {label} regression gate")
        return problems
    base = baseline.get(key)
    if not base or not new:
        return problems
    drop = (base - new) / base
    status = "REGRESSED" if drop > tolerance else "ok"
    print(f"  {label} {key}: {base:.2f}x -> {new:.2f}x ({-drop:+.0%} relative) {status}")
    if drop > tolerance:
        problems.append(
            f"{label} {key} fell {drop:.0%} "
            f"({base:.2f}x -> {new:.2f}x), tolerance is {tolerance:.0%}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        default=None,
        help=f"fresh benchmark record (default: {DEFAULT_RESULT})",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline record file (default: the committed record via git show HEAD)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="maximum tolerated relative drop in per-config speedup (default 0.30)",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parents[1]
    fresh_path = Path(args.fresh) if args.fresh else repo_root / DEFAULT_RESULT
    if not fresh_path.exists():
        print(f"fresh benchmark record {fresh_path} not found; run the benchmark first")
        return 2
    fresh = load_fresh(fresh_path)
    baseline = load_baseline(args.baseline, repo_root)
    if baseline is None:
        print("no committed baseline record found; nothing to gate against (pass)")
        return 0

    print(
        f"comparing against baseline from {baseline.get('python', '?')} / "
        f"{baseline.get('cpu_count', '?')} cores "
        f"(fresh: {fresh.get('python', '?')} / {fresh.get('cpu_count', '?')} cores)"
    )
    regressions = compare(baseline, fresh, args.tolerance)
    regressions += compare_scalar_metric(repo_root, args.tolerance, REBALANCING_RESULT, "rebalancing")
    regressions += compare_scalar_metric(
        repo_root, args.tolerance, PARTITIONED_WHALE_RESULT, "partitioned-whale"
    )
    regressions += compare_scalar_metric(
        repo_root, args.tolerance, DURABILITY_RESULT, "durability", key="wal_relative_throughput"
    )
    regressions += compare_scalar_metric(
        repo_root,
        args.tolerance,
        OBSERVABILITY_RESULT,
        "observability",
        key="instrumented_relative_throughput",
        floor=OBSERVABILITY_FLOOR,
    )
    regressions += compare_scalar_metric(
        repo_root,
        max(args.tolerance, NETWORK_MIN_TOLERANCE),
        TRACING_RESULT,
        "tracing-off",
        key="sampled_off_relative_throughput",
        floor=TRACING_SAMPLED_OFF_FLOOR,
    )
    regressions += compare_scalar_metric(
        repo_root,
        max(args.tolerance, NETWORK_MIN_TOLERANCE),
        TRACING_RESULT,
        "tracing-1pct",
        key="sampled_1pct_relative_throughput",
        floor=TRACING_SAMPLED_FLOOR,
    )
    regressions += compare_scalar_metric(
        repo_root,
        args.tolerance,
        COLUMNAR_RESULT,
        "columnar",
        key="columnar_vs_scalar_speedup",
        floor=COLUMNAR_FLOOR,
    )
    regressions += compare_scalar_metric(
        repo_root,
        max(args.tolerance, NETWORK_MIN_TOLERANCE),
        NETWORK_RESULT,
        "network",
        key="tcp_relative_throughput",
        floor=NETWORK_FLOOR,
    )
    regressions += compare_scalar_metric(
        repo_root,
        max(args.tolerance, NETWORK_MIN_TOLERANCE),
        REPLICATION_RESULT,
        "replication",
        key="replication_relative_throughput",
        floor=REPLICATION_FLOOR,
    )
    if regressions:
        print("\nthroughput regression gate FAILED:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("throughput regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
