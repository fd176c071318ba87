"""Smoke test of the benchmark itself (not part of the tier-1 ``testpaths``).

Run with ``python -m pytest benchmarks/e2e -q``.  At ``--smoke`` scale the
whole command — four workloads, one untraced and one traced run each — has to
finish in 30 s, print every name ``BENCHMARK.json`` lists exactly once per
workload with its unit, agree with the oracle on every digest (live, recovered
and staged), and turn a corrupted reference into a run that fails every tuple
and a non-zero exit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (ROOT / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import oracle  # noqa: E402 - needs the path set up above
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]
RESULT = HERE / "out" / "result.json"


def test_benchmark_json_matches_the_code():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in workloads.WORKLOADS]
    for entry, workload in zip(SPEC["workloads"], workloads.WORKLOADS):
        closed, opened, rate = workload.closed_tuples, workload.open_tuples, workload.rate_eps
        sizes = f"{closed} closed + {opened} open tuples at {rate:.0f}/s"
        assert sizes in entry["why"], f"{workload.name}: BENCHMARK.json does not record {sizes!r}"
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_smoke_run_prints_every_metric_once_and_verifies():
    started = time.perf_counter()
    passes = {}
    for trace, section in enumerate(("end_to_end", "per_layer")):
        command = RUN + ["--smoke", "--trace", str(trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        passes[section] = done.stdout, json.loads(RESULT.read_text())
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0, f"smoke run took {elapsed:.1f} s"

    for section, (stdout, record) in passes.items():
        assert record["problems"] == []  # live, recovered and staged digests all equal the oracle's
        for workload in SPEC["workloads"]:
            name = workload["name"]
            rows = [line.split() for line in stdout.splitlines() if line.startswith(name + " ")]
            for metric in SPEC[section]:
                matching = [row for row in rows if row[1] == metric["name"]]
                assert len(matching) == 1, f"{name} {metric['name']}: printed {len(matching)} times"
                assert matching[0][3] == metric["unit"], f"{name} {metric['name']}: unit {matching[0][3]!r}"
            assert record["workloads"][name][f"{section}_runs"]["failed"] == 0, name
        contracts = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        assert len(contracts) == len(SPEC["workloads"])  # one JSON line per workload, last in its block
        for contract in contracts:
            assert set(contract) == {"correct", "attempted", "failed", "metrics"}
            assert set(contract["metrics"]) == {metric["name"] for metric in SPEC[section]}
        if section == "per_layer":
            for name, entry in record["workloads"].items():
                assert entry["layer_self_s"], f"{name}: the traced pass left no per-layer self times"


def test_corrupted_reference_fails_the_run(tmp_path):
    workload = workloads.BY_NAME["dense_engine"]
    scale = workloads.scale_of(workloads.SMOKE_SECONDS)
    entry = oracle.compute(workload, 1, scale, processes=1)
    for digests in entry["queries"].values():
        digests["final_digest"] = "0" * 64
    reference = {"spec": entry["spec"], "seeds": {"1": entry}}
    (tmp_path / "dense_engine.json").write_text(json.dumps(reference))
    done = subprocess.run(
        RUN + ["--smoke", "--workload", "dense_engine", "--reference-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    record = json.loads(RESULT.read_text())
    runs = record["workloads"]["dense_engine"]["end_to_end_runs"]
    assert runs["failed"] == runs["attempted"] > 0  # the ISSUE's failed_share == 1.0
    assert any("final_digest" in problem for problem in record["problems"])
