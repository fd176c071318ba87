"""Command-line interface for the streaming RPQ library.

Usage (after ``pip install -e .`` or with ``PYTHONPATH=src``)::

    python -m repro compile  --query "(follows mentions)+"
    python -m repro generate --dataset yago --edges 5000 --output yago.csv
    python -m repro run      --query "isLocatedIn+" --input yago.csv \
                             --window 40 --slide 4 --semantics arbitrary
    python -m repro run      --query "isLocatedIn+" --input yago.csv \
                             --window 40 --shards 4
    python -m repro serve    --input yago.csv --window 40 --shards 4 \
                             --query "places=isLocatedIn+" --query "deals=dealsWith+" \
                             --rebalance load_aware --checkpoint state.json
    python -m repro run      --query "isLocatedIn+" --input yago.csv \
                             --window 40 --shards 4 --partitions 4
    python -m repro serve    --input yago.csv --window 40 --shards 4 \
                             --query "places=isLocatedIn+" \
                             --wal state/ --checkpoint-interval 5000 --fsync batch
    python -m repro recover  --wal state/ --output recovered.json
    python -m repro worker   --listen 127.0.0.1:7300
    python -m repro serve    --input yago.csv --window 40 --shards 2 --backend tcp \
                             --query "places=isLocatedIn+" \
                             --worker 127.0.0.1:7300 --worker 127.0.0.1:7301
    python -m repro migrate  --checkpoint state.json --query places --to-shard 2
    python -m repro split    --checkpoint state.json --query places --partitions 4
    python -m repro trace    --query "isLocatedIn+" --input yago.csv \
                             --window 40 --shards 2 --out trace.json
    python -m repro experiment --figure 7
    python -m repro experiment --table 4 --scale tiny

The CLI is a thin layer over the library: ``compile`` shows the minimal DFA
and the conflict-freedom analysis of a query, ``generate`` materializes one
of the synthetic workloads to CSV, ``run`` evaluates a persistent query
over a CSV stream and reports throughput/latency/result counts (optionally
through the sharded runtime with ``--shards N``), ``serve`` runs several
persistent queries as a :class:`~repro.runtime.StreamingQueryService`
across shard workers (optionally live-rebalancing hot shards with
``--rebalance load_aware``), ``migrate`` re-homes a query inside a service
checkpoint, ``split`` breaks a query inside a checkpoint into root
partitions (intra-query data parallelism — both ``run`` and ``serve``
also accept ``--partitions K`` to register queries pre-split),
``recover`` rebuilds a killed ``serve --wal`` run from its durability
directory (base checkpoint + incremental deltas + WAL replay — with
``--input`` it also re-ingests the stream tail the recovered state does
not cover, e.g. onto fresh ``--worker`` addresses after a lost host),
``worker`` runs a standalone TCP shard worker (``--listen HOST:PORT``,
port ``0`` binds an ephemeral port printed on stdout) for the ``tcp``
backend of ``run``/``serve``/``recover`` (repeatable ``--worker
HOST:PORT``, one per shard), and ``experiment`` regenerates one of the
paper's tables or figures.

``serve`` additionally installs SIGINT/SIGTERM handlers: a signal drains
the shards, takes the final checkpoint (into ``--wal`` when set) and
exits 0 instead of dying mid-batch; a second signal aborts immediately.

Observability: ``run``, ``serve`` and ``recover`` accept ``--log-level``
(default ``info``) and ``--log-format`` (``text`` or ``json``) — runtime
diagnostics go to stderr through the ``repro`` logger hierarchy while
results and summaries stay on stdout — and ``serve --metrics-port PORT``
exposes ``/metrics`` (Prometheus text), ``/healthz`` and
``/debug/traces`` while the service ingests (``0`` picks an ephemeral
port, logged at startup).  ``serve --trace-sample-rate P`` head-samples
distributed traces across the shard workers, and ``trace`` runs a
one-shot traced workload and writes Chrome trace-event JSON loadable in
Perfetto or ``chrome://tracing``.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .datasets import (
    GMarkGraphGenerator,
    LDBCLikeGenerator,
    StackOverflowGenerator,
    YagoLikeGenerator,
    default_social_schema,
)
from .experiments import (
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    render_table1,
    render_table4,
    run_query,
    table1_complexity_check,
    table4_simple_path,
)
from .errors import ShardWorkerError
from .graph.stream import GeneratorStream, iter_csv, with_deletions, write_csv
from .graph.window import WindowSpec
from .regex.analysis import analyze
from .runtime import (
    BACKENDS,
    FSYNC_POLICIES,
    REBALANCE_POLICIES,
    SHARDING_POLICIES,
    RuntimeConfig,
    StreamingQueryService,
    configure_logging,
    get_logger,
)
from .runtime.config import LOG_FORMATS, LOG_LEVELS

__all__ = ["main", "build_parser"]

_LOG = get_logger("cli")

_GENERATORS = {
    "stackoverflow": lambda seed: StackOverflowGenerator(seed=seed),
    "ldbc": lambda seed: LDBCLikeGenerator(seed=seed),
    "yago": lambda seed: YagoLikeGenerator(seed=seed),
    "gmark": lambda seed: GMarkGraphGenerator(schema=default_social_schema(), seed=seed),
}


def _add_worker_addresses_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the repeatable ``--worker HOST:PORT`` flag (tcp backend)."""
    parser.add_argument(
        "--worker",
        action="append",
        dest="workers",
        metavar="HOST:PORT",
        default=None,
        help="address of a remote 'repro worker --listen' process (repeatable, one "
        "per shard in shard order; requires --backend tcp)",
    )


def _add_standby_addresses_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the repeatable ``--standby HOST:PORT`` flag (tcp backend)."""
    parser.add_argument(
        "--standby",
        action="append",
        dest="standbys",
        metavar="HOST:PORT",
        default=None,
        help="address of a spare 'repro worker --listen' process to keep as the "
        "shard's hot standby (repeatable, one per shard in shard order; 'none' "
        "or '-' leaves a shard unprotected; requires --backend tcp). On primary "
        "loss the standby is promoted instead of WAL-replayed",
    )


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--log-level`` / ``--log-format`` flags to a subcommand."""
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="runtime log verbosity on stderr (results stay on stdout)",
    )
    parser.add_argument(
        "--log-format",
        choices=LOG_FORMATS,
        default="text",
        help="log line format: human-oriented text or one JSON object per record",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Persistent Regular Path Query evaluation on streaming graphs (SIGMOD 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser("compile", help="compile a query and show its automaton")
    compile_parser.add_argument("--query", required=True, help="RPQ expression, e.g. '(follows mentions)+'")
    compile_parser.add_argument(
        "--dot", action="store_true", help="also print the automaton in Graphviz dot format"
    )

    generate_parser = subparsers.add_parser("generate", help="generate a synthetic streaming graph as CSV")
    generate_parser.add_argument("--dataset", choices=sorted(_GENERATORS), required=True)
    generate_parser.add_argument("--edges", type=int, default=10_000, help="number of tuples to generate")
    generate_parser.add_argument("--seed", type=int, default=7)
    generate_parser.add_argument("--output", required=True, help="CSV file to write")

    run_parser = subparsers.add_parser("run", help="evaluate a persistent query over a CSV stream")
    run_parser.add_argument("--query", required=True, help="RPQ expression")
    run_parser.add_argument("--input", required=True, help="CSV stream produced by 'generate' or write_csv")
    run_parser.add_argument("--window", type=int, required=True, help="window size |W| in time units")
    run_parser.add_argument("--slide", type=int, default=1, help="slide interval beta in time units")
    run_parser.add_argument("--semantics", choices=["arbitrary", "simple", "baseline"], default="arbitrary")
    run_parser.add_argument(
        "--deletions", type=float, default=0.0, help="inject this ratio of explicit deletions"
    )
    run_parser.add_argument("--limit", type=int, default=None, help="process only the first N tuples")
    run_parser.add_argument("--show-results", type=int, default=0, help="print up to N result pairs")
    run_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="evaluate through the sharded runtime; note run has a single query, which "
        "occupies one shard (query-level parallelism) — use 'serve' for real fan-out",
    )
    run_parser.add_argument(
        "--batch-size", type=int, default=64, help="tuples per worker batch (with --shards > 1)"
    )
    run_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="threading",
        help="worker concurrency backend (with --shards > 1); 'multiprocessing' uses real cores",
    )
    run_parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="split the query into this many root partitions, one per shard "
        "(intra-query data parallelism; requires --shards >= partitions and "
        "arbitrary semantics)",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run under cProfile and print the top 25 functions "
        "by cumulative time to stderr (stdout output is unchanged)",
    )
    _add_worker_addresses_argument(run_parser)
    _add_logging_arguments(run_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="run multiple persistent queries as a sharded service over a CSV stream"
    )
    serve_parser.add_argument(
        "--query",
        action="append",
        required=True,
        dest="queries",
        metavar="[NAME=]EXPR",
        help="persistent query to register (repeatable); unnamed queries become q0, q1, ...",
    )
    serve_parser.add_argument("--input", required=True, help="CSV stream produced by 'generate' or write_csv")
    serve_parser.add_argument("--window", type=int, required=True, help="window size |W| in time units")
    serve_parser.add_argument("--slide", type=int, default=1, help="slide interval beta in time units")
    serve_parser.add_argument("--semantics", choices=["arbitrary", "simple", "baseline"], default="arbitrary")
    serve_parser.add_argument("--shards", type=int, default=2, help="number of shard workers")
    serve_parser.add_argument("--batch-size", type=int, default=64, help="tuples per worker batch")
    serve_parser.add_argument(
        "--queue-depth", type=int, default=8, help="bounded queue depth per out-of-process worker, in batches"
    )
    serve_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="threading",
        help="worker concurrency backend; 'multiprocessing' runs shards on real cores",
    )
    serve_parser.add_argument(
        "--policy", choices=sorted(SHARDING_POLICIES), default="hash", help="query-to-shard placement policy"
    )
    serve_parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="register every query split into this many root partitions across "
        "shards (intra-query data parallelism; requires arbitrary semantics)",
    )
    serve_parser.add_argument(
        "--rebalance",
        choices=sorted(REBALANCE_POLICIES),
        default="manual",
        help="rebalance policy; 'load_aware' live-migrates queries off hot shards",
    )
    serve_parser.add_argument(
        "--rebalance-interval",
        type=int,
        default=0,
        help="run the rebalance policy every N ingested tuples (0 = only when draining)",
    )
    serve_parser.add_argument(
        "--deletions", type=float, default=0.0, help="inject this ratio of explicit deletions"
    )
    serve_parser.add_argument("--limit", type=int, default=None, help="process only the first N tuples")
    serve_parser.add_argument(
        "--checkpoint", default=None, help="write a coordinated checkpoint JSON here after draining"
    )
    serve_parser.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="durability directory: write-ahead-log every routed tuple and "
        "checkpoint into DIR so a killed service can be rebuilt with 'repro recover'",
    )
    serve_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="take an incremental durability checkpoint every N routed tuples "
        "(0 = only the final checkpoint on shutdown; requires --wal)",
    )
    serve_parser.add_argument(
        "--fsync",
        choices=sorted(FSYNC_POLICIES),
        default="batch",
        help="WAL fsync policy: 'always' syncs every record, 'batch' syncs at "
        "checkpoints (group commit), 'off' never syncs (with --wal)",
    )
    serve_parser.add_argument(
        "--show-results", type=int, default=0, help="print the first N events of the merged result stream"
    )
    serve_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics (Prometheus text), /healthz and /debug/traces on "
        "this port while ingesting (0 = pick an ephemeral port; the bound port "
        "is printed on stdout as 'metrics port N' at startup)",
    )
    serve_parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="head-sample this fraction of ingested work into distributed "
        "traces spanning coordinator and shard workers (0 disables tracing; "
        "sampled spans are served on /debug/traces with --metrics-port)",
    )
    _add_worker_addresses_argument(serve_parser)
    _add_standby_addresses_argument(serve_parser)
    _add_logging_arguments(serve_parser)

    migrate_parser = subparsers.add_parser(
        "migrate", help="move a query to another shard inside a service checkpoint"
    )
    migrate_parser.add_argument(
        "--checkpoint", required=True, help="service checkpoint JSON written by 'serve --checkpoint'"
    )
    migrate_parser.add_argument("--query", required=True, help="name of the query to move")
    migrate_parser.add_argument("--to-shard", type=int, required=True, help="shard the query should live on")
    migrate_parser.add_argument(
        "--partition",
        type=int,
        default=None,
        help="for a split query: which root partition to move (whole split queries cannot move as one)",
    )
    migrate_parser.add_argument(
        "--output", default=None, help="write the updated checkpoint here (default: in place)"
    )

    split_parser = subparsers.add_parser(
        "split", help="split a query into root partitions inside a service checkpoint"
    )
    split_parser.add_argument(
        "--checkpoint", required=True, help="service checkpoint JSON written by 'serve --checkpoint'"
    )
    split_parser.add_argument("--query", required=True, help="name of the query to split")
    split_parser.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="number of root partitions (default: one per shard of the checkpointed service)",
    )
    split_parser.add_argument(
        "--output", default=None, help="write the updated checkpoint here (default: in place)"
    )

    recover_parser = subparsers.add_parser(
        "recover", help="rebuild a crashed service from a durability directory"
    )
    recover_parser.add_argument(
        "--wal", required=True, metavar="DIR", help="durability directory written by 'serve --wal'"
    )
    recover_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="worker backend for the recovered service (default: the checkpointed one)",
    )
    recover_parser.add_argument(
        "--output",
        default=None,
        help="write the recovered state as a plain service checkpoint JSON here "
        "(loadable by 'repro migrate/split' or StreamingQueryService.load_checkpoint)",
    )
    recover_parser.add_argument(
        "--show-results", type=int, default=0, help="print the first N events of the merged result stream"
    )
    recover_parser.add_argument(
        "--input",
        default=None,
        help="resume ingestion after recovery: the crashed run's CSV stream; the "
        "tail the recovered state does not cover is re-ingested (with the same "
        "--deletions/--limit flags the crashed run used) before results print",
    )
    recover_parser.add_argument(
        "--deletions", type=float, default=0.0, help="deletion ratio the crashed run injected (with --input)"
    )
    recover_parser.add_argument(
        "--limit", type=int, default=None, help="tuple limit the crashed run used (with --input)"
    )
    _add_worker_addresses_argument(recover_parser)
    _add_logging_arguments(recover_parser)

    worker_parser = subparsers.add_parser(
        "worker", help="run a standalone TCP shard worker for a remote coordinator"
    )
    worker_parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="interface and port to accept the coordinator on (port 0 binds an "
        "ephemeral port; the bound address is printed on stdout)",
    )
    _add_logging_arguments(worker_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="run a traced workload and write Chrome trace-event JSON"
    )
    trace_parser.add_argument(
        "--query",
        action="append",
        required=True,
        dest="queries",
        metavar="[NAME=]EXPR",
        help="persistent query to register (repeatable); unnamed queries become q0, q1, ...",
    )
    trace_parser.add_argument("--input", required=True, help="CSV stream produced by 'generate' or write_csv")
    trace_parser.add_argument("--window", type=int, required=True, help="window size |W| in time units")
    trace_parser.add_argument("--slide", type=int, default=1, help="slide interval beta in time units")
    trace_parser.add_argument("--shards", type=int, default=2, help="number of shard workers")
    trace_parser.add_argument("--batch-size", type=int, default=64, help="tuples per worker batch")
    trace_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="threading",
        help="worker concurrency backend; 'multiprocessing' runs shards on real cores",
    )
    trace_parser.add_argument(
        "--deletions", type=float, default=0.0, help="inject this ratio of explicit deletions"
    )
    trace_parser.add_argument("--limit", type=int, default=None, help="process only the first N tuples")
    trace_parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=1.0,
        metavar="P",
        help="head-sampling probability for the traced run (default 1.0: trace everything)",
    )
    trace_parser.add_argument(
        "--out",
        default="trace.json",
        help="write the Chrome trace-event JSON here (open in Perfetto or chrome://tracing)",
    )
    _add_worker_addresses_argument(trace_parser)
    _add_logging_arguments(trace_parser)

    experiment_parser = subparsers.add_parser("experiment", help="regenerate a table or figure of the paper")
    target = experiment_parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--figure", type=int, choices=[4, 5, 6, 7, 8, 9, 10, 11])
    target.add_argument("--table", type=int, choices=[1, 4])
    experiment_parser.add_argument("--scale", choices=["tiny", "small", "medium"], default="small")

    return parser


def _command_compile(args: argparse.Namespace) -> int:
    analysis = analyze(args.query)
    print(f"query                 : {analysis.expression}")
    print(f"query size |Q_R|      : {analysis.expression.size()}")
    print(f"alphabet              : {sorted(analysis.alphabet)}")
    print(f"minimal DFA           : {analysis.dfa}")
    print(f"containment property  : {analysis.containment_property}")
    print(f"restricted expression : {analysis.restricted}")
    print(f"conflict-free (query) : {analysis.conflict_free_by_query()}")
    if args.dot:
        print()
        print(analysis.dfa.to_dot())
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.dataset](args.seed)
    stream = generator.generate(args.edges)
    written = write_csv(args.output, stream)
    print(f"wrote {written} tuples of the {args.dataset} workload to {args.output}")
    return 0


def _load_stream(args: argparse.Namespace):
    """Build the input stream for run/serve: lazy unless deletions are injected."""
    stream = iter_csv(args.input)
    if args.limit is not None:
        import itertools

        limit = args.limit
        source = stream
        stream = GeneratorStream(lambda: itertools.islice(iter(source), limit))
    if args.deletions > 0:
        # Deletion injection needs the whole stream to pick edges to negate.
        stream = with_deletions(list(stream), args.deletions)
    return stream


def _command_run(args: argparse.Namespace) -> int:
    if not getattr(args, "profile", False):
        return _command_run_inner(args)
    # Profile the whole command (stream loading, evaluation, reporting) so
    # hot spots in any layer show up; the report goes to stderr so stdout
    # stays parseable.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return _command_run_inner(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)


def _command_run_inner(args: argparse.Namespace) -> int:
    configure_logging(args.log_level, args.log_format)
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    stream = _load_stream(args)
    window = WindowSpec(size=args.window, slide=args.slide)
    if args.shards > 1:
        return _run_sharded(args, stream, window)
    result = run_query(
        args.query,
        stream,
        window,
        semantics=args.semantics,
        query_name=args.query,
        dataset=args.input,
    )
    print(f"query            : {args.query}")
    print(f"semantics        : {args.semantics}")
    print(f"window           : |W|={args.window}, beta={args.slide}")
    print(f"tuples processed : {result.num_tuples} ({result.relevant_tuples} relevant)")
    print(f"status           : {'ok' if result.completed else 'failed: ' + str(result.error)}")
    print(f"distinct results : {result.distinct_results}")
    print(f"throughput       : {result.throughput_eps:,.0f} edges/s")
    print(f"mean latency     : {result.mean_latency_us:,.1f} us")
    print(f"p99 latency      : {result.tail_latency_us:,.1f} us")
    print(f"index size       : {result.index_nodes} nodes in {result.index_trees} trees")
    if args.show_results > 0:
        from .core.engine import make_evaluator

        evaluator = make_evaluator(args.query, window, args.semantics)
        evaluator.process_stream(stream)
        for pair in sorted(evaluator.answer_pairs())[: args.show_results]:
            print(f"  {pair[0]} -> {pair[1]}")
    return 0 if result.completed else 1


def _make_runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    workers = getattr(args, "workers", None)
    standbys = getattr(args, "standbys", None)
    try:
        return RuntimeConfig(
            shards=args.shards,
            batch_size=args.batch_size,
            queue_depth=getattr(args, "queue_depth", 8),
            backend=getattr(args, "backend", "threading"),
            worker_addresses=tuple(workers) if workers else None,
            standby_addresses=tuple(standbys) if standbys else None,
            sharding=getattr(args, "policy", "hash"),
            partitions=getattr(args, "partitions", 1),
            rebalance_policy=getattr(args, "rebalance", "manual"),
            rebalance_interval=getattr(args, "rebalance_interval", 0),
            wal_dir=getattr(args, "wal", None),
            wal_fsync=getattr(args, "fsync", "batch"),
            checkpoint_interval=getattr(args, "checkpoint_interval", 0),
            metrics_port=getattr(args, "metrics_port", None),
            trace_sample_rate=getattr(args, "trace_sample_rate", 0.0),
            log_level=getattr(args, "log_level", "warning"),
            log_format=getattr(args, "log_format", "text"),
        )
    except ValueError as exc:  # ConfigError subclasses ValueError
        raise SystemExit(f"invalid runtime configuration: {exc}") from None


def _run_sharded(args: argparse.Namespace, stream, window: WindowSpec) -> int:
    import time

    service = StreamingQueryService(window, _make_runtime_config(args))
    try:
        service.register(args.query, args.query, semantics=args.semantics)
    except ValueError as exc:
        raise SystemExit(f"cannot register {args.query!r}: {exc}") from None
    started = time.perf_counter()
    try:
        with service:
            service.ingest(stream)
            service.drain()
            elapsed = time.perf_counter() - started
            summary = service.summary()
            triples = service.result_triples(args.query)
            pairs = service.answer_pairs(args.query)
    except ShardWorkerError as exc:
        # Mirror the single-threaded path: report the failure and exit 1
        # (e.g. an RSPQ conflict budget exceeded inside a shard worker).
        print(f"query            : {args.query}")
        print(f"semantics        : {args.semantics}")
        print(f"status           : failed: {exc.__cause__ or exc}")
        return 1
    totals = summary["totals"]
    print(f"query            : {args.query}")
    print(f"semantics        : {args.semantics}")
    print(f"window           : |W|={args.window}, beta={args.slide}")
    print(f"runtime          : {args.shards} shard(s), backend={args.backend}, "
          f"batch={args.batch_size}, partitions={args.partitions}")
    print(f"tuples processed : {totals['tuples_ingested']} "
          f"({totals['tuples_dropped_unroutable']} dropped as irrelevant)")
    print(f"distinct results : {len(pairs)} ({len(triples)} result events)")
    if elapsed > 0:
        print(f"throughput       : {totals['tuples_ingested'] / elapsed:,.0f} edges/s")
    if args.show_results > 0:
        for source, target in sorted(pairs)[: args.show_results]:
            print(f"  {source} -> {target}")
    return 0


def _parse_named_queries(specs) -> "dict":
    queries = {}
    for position, spec in enumerate(specs):
        name, eq, expression = spec.partition("=")
        if not eq:
            name, expression = f"q{position}", spec
        name, expression = name.strip(), expression.strip()
        if not name or not expression:
            raise SystemExit(f"invalid --query {spec!r}; expected [NAME=]EXPR")
        if name in queries:
            raise SystemExit(f"duplicate query name {name!r}")
        queries[name] = expression
    return queries


class _GracefulShutdown:
    """SIGINT/SIGTERM handler for ``repro serve``: drain, checkpoint, exit 0.

    Instead of dying mid-batch (losing the window since the last
    checkpoint on a non-durable run, or forcing a WAL replay on a durable
    one), the serve loop polls :attr:`requested` between tuples: on the
    first signal it stops ingesting, drains every shard and takes the
    final coordinated checkpoint — ``service.stop()`` writes it to the
    ``--wal`` directory when one is set.  A second signal falls back to
    the previous handler (typically: die).
    """

    def __init__(self) -> None:
        self.requested = False
        self.signal_name = ""
        self._previous = {}

    def install(self) -> "_GracefulShutdown":
        """Install the handlers; returns self for chaining."""
        import signal as signal_mod

        for signum in (signal_mod.SIGINT, signal_mod.SIGTERM):
            self._previous[signum] = signal_mod.signal(signum, self._handle)
        return self

    def restore(self) -> None:
        """Put the previous handlers back."""
        import signal as signal_mod

        for signum, handler in self._previous.items():
            signal_mod.signal(signum, handler)
        self._previous = {}

    def _handle(self, signum, frame) -> None:
        import signal as signal_mod

        if self.requested:  # second signal: give up gracefully being graceful
            self.restore()
            raise KeyboardInterrupt
        self.requested = True
        self.signal_name = signal_mod.Signals(signum).name


def _command_serve(args: argparse.Namespace) -> int:
    import time

    configure_logging(args.log_level, args.log_format)
    queries = _parse_named_queries(args.queries)
    config = _make_runtime_config(args)
    if args.checkpoint and args.semantics != "arbitrary":
        raise SystemExit(
            "--checkpoint requires --semantics arbitrary (only arbitrary-path "
            "queries are checkpointable)"
        )
    if args.wal and args.semantics != "arbitrary":
        raise SystemExit(
            "--wal requires --semantics arbitrary (only arbitrary-path queries "
            "can be checkpointed for recovery)"
        )
    stream = _load_stream(args)
    window = WindowSpec(size=args.window, slide=args.slide)
    service = StreamingQueryService(window, config)
    for name, expression in queries.items():
        try:
            shard = service.register(name, expression, semantics=args.semantics)
        except ValueError as exc:
            raise SystemExit(f"cannot register {name!r}: {exc}") from None
        if config.partitions > 1:
            _LOG.info(
                "registered %r (%s) as %d root partitions, partition 0 on shard %d",
                name,
                expression,
                config.partitions,
                shard,
            )
        else:
            _LOG.info("registered %r (%s) on shard %d", name, expression, shard)
    started = time.perf_counter()
    shutdown = _GracefulShutdown().install()

    def until_shutdown(tuples):
        """Pass the stream through, ending it at the first shutdown signal."""
        for tup in tuples:
            if shutdown.requested:
                return
            yield tup

    try:
        with service:
            if config.metrics_port is not None and service.observability_port is not None:
                # On stdout (not the log) so scripts can parse the bound
                # port of a `--metrics-port 0` ephemeral bind race-free.
                print(f"metrics port {service.observability_port}", flush=True)
            service.ingest(until_shutdown(stream))
            service.drain()
            elapsed = time.perf_counter() - started
            summary = service.summary()
            if args.checkpoint:
                path = service.save_checkpoint(args.checkpoint)
                _LOG.info("checkpoint written to %s", path)
            merged_head = []
            if args.show_results > 0:
                import itertools

                merged_head = list(itertools.islice(service.global_events(), args.show_results))
        # service.stop() (the context exit) has drained and — with --wal —
        # taken the final durability checkpoint by the time we get here.
        if shutdown.requested:
            _LOG.info(
                "received %s: drained, %sstopping cleanly",
                shutdown.signal_name,
                f"checkpointed to {args.wal}, " if args.wal else "",
            )
    except ShardWorkerError as exc:
        print(f"status           : failed: {exc.__cause__ or exc}")
        return 1
    finally:
        shutdown.restore()
    totals = summary["totals"]
    print(f"window           : |W|={args.window}, beta={args.slide}")
    print(f"runtime          : {args.shards} shard(s), backend={args.backend}, "
          f"policy={args.policy}, batch={args.batch_size}")
    print(f"tuples ingested  : {totals['tuples_ingested']} "
          f"({totals['tuples_dropped_unroutable']} dropped as irrelevant)")
    if elapsed > 0:
        print(f"throughput       : {totals['tuples_ingested'] / elapsed:,.0f} edges/s")
    for stats in summary["shards"]:
        print(f"  shard {int(stats['shard'])}: queries={int(stats['queries'])} "
              f"tuples={int(stats['tuples'])} batches={int(stats['batches'])} "
              f"busy={stats['busy_seconds']:.3f}s")
    for promo in service.promotions:
        print(f"  promotion shard {promo['shard']}: {promo['previous_address']} -> "
              f"{promo['address']} at LSN {promo['lsn']} in {promo['seconds'] * 1000:.1f}ms "
              f"(replayed {promo['replayed_records']} WAL records)")
    for move in summary["migrations"]:
        print(f"  migrated {move['query']!r}: shard {move['source']} -> {move['target']} "
              f"after {move['at_tuples']} tuples ({move['reason']})")
    for move in summary["splits"]:
        print(f"  split {move['query']!r}: shard {move['source']} -> {move['partitions']} partitions "
              f"on shards {move['targets']} after {move['at_tuples']} tuples ({move['reason']})")
    for name, stats in sorted(summary["queries"].items()):
        print(f"  query {name!r}: shard={stats['shard']} results={stats['distinct_results']} "
              f"events={stats['events']} index={stats['index']}")
    for tagged in merged_head:
        print(f"  {tagged}")
    return 0


def _command_migrate(args: argparse.Namespace) -> int:
    """Offline migration: re-home a query inside a service checkpoint.

    The service is assembled from the checkpoint without starting any
    workers (control frames execute inline), the query's evaluator blob is
    moved between shard engines exactly as a live migration would, and the
    updated checkpoint is written back.  Restoring it later places the
    query on its new shard.
    """
    from .errors import RuntimeStateError

    try:
        service = StreamingQueryService.load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load checkpoint {args.checkpoint!r}: {exc}") from None
    if args.query not in service:
        raise SystemExit(f"no query named {args.query!r} in the checkpoint; it holds {service.queries()}")
    label = args.query if args.partition is None else f"{args.query} (partition {args.partition})"
    try:
        source = service.shard_of(args.query, partition=args.partition)
        target = service.migrate(args.query, args.to_shard, partition=args.partition)
    except (KeyError, ValueError, RuntimeStateError) as exc:
        raise SystemExit(f"cannot migrate {args.query!r}: {exc}") from None
    path = service.save_checkpoint(args.output or args.checkpoint)
    if target == source:
        print(f"query {label!r} already lives on shard {source}; checkpoint unchanged")
    else:
        print(f"migrated {label!r}: shard {source} -> {target}")
    print(f"checkpoint written to {path}")
    return 0


def _command_split(args: argparse.Namespace) -> int:
    """Offline whale splitting: partition a query inside a service checkpoint.

    The service is assembled from the checkpoint without starting any
    workers (control frames execute inline), the query's evaluator blob is
    split by tree root exactly as a live split would, and the updated
    checkpoint is written back.  Restoring it later runs the query as
    root-partition evaluators spread over the shards.
    """
    from .errors import RuntimeStateError

    try:
        service = StreamingQueryService.load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load checkpoint {args.checkpoint!r}: {exc}") from None
    if args.query not in service:
        raise SystemExit(f"no query named {args.query!r} in the checkpoint; it holds {service.queries()}")
    try:
        targets = service.split(args.query, args.partitions)
    except (KeyError, ValueError, RuntimeStateError) as exc:
        raise SystemExit(f"cannot split {args.query!r}: {exc}") from None
    path = service.save_checkpoint(args.output or args.checkpoint)
    print(f"split {args.query!r} into {len(targets)} root partitions on shards {targets}")
    print(f"checkpoint written to {path}")
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    """Rebuild a crashed service from a durability directory.

    Folds the checkpoint chain (base + deltas), replays each shard's WAL
    tail and prints what was recovered; ``--output`` additionally writes
    the recovered state as a plain service checkpoint JSON so the other
    offline commands (``migrate``, ``split``) and
    ``StreamingQueryService.load_checkpoint`` can pick it up.

    With ``--input`` the recovery is completed end to end: the recovered
    service is started (for ``--backend tcp``, against the fresh
    ``--worker`` addresses — warm-standby failover after a lost host),
    the stream tail from ``RecoveryResult.next_index`` on is re-ingested,
    and the service drains before results print — bit-identical to a run
    that never crashed.
    """
    from .errors import CheckpointError
    from .runtime.durability import RecoveryManager

    configure_logging(args.log_level, args.log_format)
    workers = getattr(args, "workers", None)
    try:
        result = RecoveryManager(args.wal).recover(
            backend=args.backend,
            worker_addresses=tuple(workers) if workers else None,
        )
    except (OSError, ValueError, CheckpointError) as exc:
        raise SystemExit(f"cannot recover from {args.wal!r}: {exc}") from None
    service = result.service
    print(f"recovered from checkpoint {result.checkpoint_id} + WAL replay")
    if result.phase_seconds:
        timings = ", ".join(f"{phase}={seconds:.3f}s" for phase, seconds in result.phase_seconds.items())
        print(f"phases           : {timings} (operation {result.operation_id})")
    print(f"queries          : {service.queries()}")
    print(f"tuples covered   : {result.next_index - 1} (resume the stream at index {result.next_index})")
    for shard in sorted(result.replayed_tuples):
        print(
            f"  shard {shard}: replayed {result.replayed_tuples[shard]} tuples, "
            f"{result.replayed_ops[shard]} topology ops"
        )
    if result.healed_tuples:
        print(f"healed           : {result.healed_tuples} tuples re-delivered to torn shards")
    for name in result.dropped_queries:
        print(f"  dropped {name} (crashed mid-move; reconciled)")
    for checkpoint_id, problem in result.skipped_checkpoints:
        print(f"  skipped checkpoint {checkpoint_id}: {problem}")
    if args.input:
        tail = list(_load_stream(args))[result.next_index - 1 :]
        if tail:
            try:
                with service:
                    service.ingest(tail)
                    service.drain()
            except ShardWorkerError as exc:
                print(f"status           : failed while resuming: {exc.__cause__ or exc}")
                return 1
        print(f"resumed          : re-ingested {len(tail)} tuples from index {result.next_index}")
    if args.output:
        path = service.save_checkpoint(args.output)
        print(f"recovered state written to {path}")
    if args.show_results > 0:
        import itertools

        for tagged in itertools.islice(service.global_events(), args.show_results):
            print(f"  {tagged}")
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    """Run a standalone TCP shard worker until SIGINT/SIGTERM.

    Prints ``worker listening on HOST:PORT`` on stdout once the listener
    is bound — with ``--listen host:0`` that is the only race-free way a
    launching script learns the ephemeral port.  The worker is
    session-oriented: each connecting coordinator ships the shard id,
    config and bootstrap in its handshake, so one worker process can
    serve successive coordinators (e.g. a recovery run) without
    restarting.
    """
    import signal as signal_mod

    from .runtime import TcpWorkerServer
    from .runtime.config import parse_worker_address

    configure_logging(args.log_level, args.log_format)
    try:
        host, port = parse_worker_address(args.listen, allow_ephemeral=True)
    except ValueError as exc:  # ConfigError subclasses ValueError
        raise SystemExit(str(exc)) from None
    server = TcpWorkerServer(host, port)
    bound = server.start()
    print(f"worker listening on {host}:{bound}", flush=True)

    def _stop(signum, frame):
        server.stop()

    for signum in (signal_mod.SIGINT, signal_mod.SIGTERM):
        signal_mod.signal(signum, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print(f"worker stopped after {server.sessions_served} session(s)")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """Run a traced workload and write Chrome trace-event JSON.

    A one-shot ``serve``-like run with head sampling on (default 100%):
    the stream is ingested and drained, the workers' buffered spans are
    harvested through the ``METRICS`` frames, and the merged span set is
    rendered with
    :func:`~repro.runtime.observability.chrome_trace_events` to ``--out``
    — loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``, one lane per process, one row per shard.
    """
    import json

    from .runtime.observability import chrome_trace_events, connected_traces

    configure_logging(args.log_level, args.log_format)
    queries = _parse_named_queries(args.queries)
    config = _make_runtime_config(args)
    if config.trace_sample_rate <= 0.0:
        raise SystemExit("--trace-sample-rate must be > 0 for 'repro trace' to record anything")
    stream = _load_stream(args)
    window = WindowSpec(size=args.window, slide=args.slide)
    service = StreamingQueryService(window, config)
    for name, expression in queries.items():
        try:
            service.register(name, expression)
        except ValueError as exc:
            raise SystemExit(f"cannot register {name!r}: {exc}") from None
    try:
        with service:
            service.ingest(stream)
            service.drain()
            summary = service.summary()  # harvests the workers' buffered spans
    except ShardWorkerError as exc:
        print(f"status           : failed: {exc.__cause__ or exc}")
        return 1
    spans = service.traces_snapshot()
    events = chrome_trace_events(spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(events, handle)
        handle.write("\n")
    totals = summary["totals"]
    trace_ids = {span["trace_id"] for span in spans}
    processes = sorted({span.get("process", "unknown") for span in spans})
    print(f"tuples ingested  : {totals['tuples_ingested']}")
    print(f"spans recorded   : {len(spans)} in {len(trace_ids)} traces "
          f"({len(connected_traces(spans))} connected)")
    print(f"processes        : {', '.join(processes)}")
    latency = totals.get("event_latency")
    if latency and latency.get("p50_seconds") is not None:
        print(f"event latency    : p50={latency['p50_seconds'] * 1e3:.2f}ms "
              f"p95={latency['p95_seconds'] * 1e3:.2f}ms "
              f"p99={latency['p99_seconds'] * 1e3:.2f}ms over {latency['count']} sampled tuples")
    print(f"trace written to {args.out}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.table == 1:
        print(render_table1(table1_complexity_check(scale=args.scale)))
        return 0
    if args.table == 4:
        print(render_table4(table4_simple_path(scale=args.scale)))
        return 0
    if args.figure == 4:
        for figure in figure4(scale=args.scale).values():
            print(figure.render())
            print()
        return 0
    if args.figure == 6:
        for figure in figure6(scale=args.scale).values():
            print(figure.render())
            print()
        return 0
    single_figure = {
        5: lambda: figure5(scale=args.scale),
        7: lambda: figure7(),
        8: lambda: figure8(scale=args.scale),
        9: lambda: figure9(scale=args.scale),
        10: lambda: figure10(scale=args.scale),
        11: lambda: figure11(scale="tiny" if args.scale == "small" else args.scale),
    }
    print(single_figure[args.figure]().render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compile": _command_compile,
        "generate": _command_generate,
        "run": _command_run,
        "serve": _command_serve,
        "migrate": _command_migrate,
        "split": _command_split,
        "recover": _command_recover,
        "worker": _command_worker,
        "trace": _command_trace,
        "experiment": _command_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
