"""Reference result streams from the scalar oracle, and their digests.

The oracle is the plain tuple-at-a-time
:class:`~repro.core.rapq.RAPQEvaluator` / :class:`~repro.core.rspq.RSPQEvaluator`,
one evaluator per query, single-threaded, fed every tuple in stream order:
no batching, no interning, no router, no partitions.  A query's digest covers
its ordered ``(source, target, timestamp, sign)`` events; because a prefix of
the input yields a prefix of the result stream, one pass records the digest at
the end of the closed-loop phase and at the end of the run.

References for the committed seeds live in ``reference/<workload>.json``; any
other ``(seed, scale)`` is computed on demand (queries spread over two spawned
processes, untimed) and cached under ``out/`` inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.rapq import RAPQEvaluator
from repro.core.rspq import RSPQEvaluator
from repro.graph.window import WindowSpec

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
CACHE_DIR = HERE / "out" / "reference-cache"


def digest_events(events: Iterable) -> str:
    """SHA-256 over ordered ``(source, target, timestamp, sign)`` events."""
    lines = [
        f"{event.source}\t{event.target}\t{event.timestamp}\t{'+' if event.positive else '-'}"
        for event in events
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_tuples(tuples: Sequence) -> str:
    """SHA-256 of the generated input, so a reference names the input it is for."""
    lines = [f"{t.timestamp}\t{t.source}\t{t.target}\t{t.label}\t{t.op.value}" for t in tuples]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def spec_key(workload: workloads.Workload, scale: float) -> str:
    """Digest of every constant the result stream depends on."""
    parts = (
        workload.name,
        [(q.name, q.expression, q.semantics) for q in workload.queries],
        workload.vertices,
        workload.labels,
        workload.edges_per_timestamp,
        workload.window,
        workload.slide,
        workload.deletions,
        workload.phase_sizes(scale),
        workload.csv_input,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _evaluate(
    workload_name: str, seed: int, scale: float, query_names: List[str], digest_input: bool
) -> Dict[str, object]:
    """Oracle digests for some of a workload's queries (runs in a worker process).

    Each process regenerates the input from the seed rather than receiving it;
    with ``digest_input`` it also returns the input's digest under ``"input"``.
    """
    workload = workloads.BY_NAME[workload_name]
    tuples = workloads.generate(workload, seed, scale)
    out: Dict[str, object] = {}
    if digest_input:
        out["input"] = digest_tuples(tuples)
    tuples = workloads.program_view(workload, tuples)
    warm, closed, _ = workload.phase_sizes(scale)
    window = WindowSpec(size=workload.window, slide=workload.slide)
    for query in workload.queries:
        if query.name not in query_names:
            continue
        cls = RSPQEvaluator if query.semantics == "simple" else RAPQEvaluator
        evaluator = cls(query.expression, window)
        process = evaluator.process
        for tup in tuples[: warm + closed]:
            process(tup)
        closed_events = len(evaluator.results)
        for tup in tuples[warm + closed :]:
            process(tup)
        events = evaluator.results.events
        out[query.name] = {
            "closed_events": closed_events,
            "closed_digest": digest_events(events[:closed_events]),
            "final_events": len(events),
            "final_digest": digest_events(events),
        }
    return out


def compute(workload: workloads.Workload, seed: int, scale: float, processes: int = 2) -> Dict:
    """One reference entry: input digest plus per-query oracle digests."""
    names = [query.name for query in workload.queries]
    shares = [names[index::processes] for index in range(processes)]
    shares = [share for share in shares if share]
    results: Dict[str, object] = {}
    if len(shares) == 1:
        results.update(_evaluate(workload.name, seed, scale, shares[0], True))
    else:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=len(shares), mp_context=context) as pool:
            futures = [
                pool.submit(_evaluate, workload.name, seed, scale, share, index == 0)
                for index, share in enumerate(shares)
            ]
            for future in futures:
                results.update(future.result())
    return {
        "spec": spec_key(workload, scale),
        "input_digest": results["input"],
        "queries": {name: results[name] for name in names},
    }


def _read(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def load(workload: workloads.Workload, seed: int, scale: float, reference_dir: Path) -> Optional[Dict]:
    """The committed (or cached) reference entry for this run, if one matches."""
    key = spec_key(workload, scale)
    committed = _read(reference_dir / f"{workload.name}.json")
    if committed is not None:
        entry = committed.get("seeds", {}).get(str(seed))
        if entry is not None and committed.get("spec") == key:
            return dict(entry, spec=key)
    cached = _read(CACHE_DIR / f"{workload.name}-{seed}-{key}.json")
    if cached is not None and cached.get("spec") == key:
        return cached
    return None


def load_or_compute(workload: workloads.Workload, seed: int, scale: float, reference_dir: Path) -> Dict:
    """The reference for this run; computed with the oracle and cached when absent."""
    entry = load(workload, seed, scale, reference_dir)
    if entry is None:
        entry = compute(workload, seed, scale)
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        (CACHE_DIR / f"{workload.name}-{seed}-{entry['spec']}.json").write_text(json.dumps(entry))
    return entry


def write_reference(workload: workloads.Workload, seeds: Sequence[int], reference_dir: Path) -> Path:
    """(Re)compute the committed reference file of one workload at scale 1.0."""
    reference_dir.mkdir(parents=True, exist_ok=True)
    path = reference_dir / f"{workload.name}.json"
    key = spec_key(workload, 1.0)
    existing = _read(path) or {}
    entries = existing.get("seeds", {}) if existing.get("spec") == key else {}
    for seed in seeds:
        if str(seed) not in entries:
            entry = compute(workload, seed, 1.0)
            entries[str(seed)] = {"input_digest": entry["input_digest"], "queries": entry["queries"]}
            record = {"workload": workload.name, "spec": key, "scale": 1.0, "seeds": entries}
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
