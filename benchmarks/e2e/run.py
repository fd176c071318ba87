"""The repo's end-to-end benchmark: one command, four workloads, every metric.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--repeats K]

runs each selected workload ``K`` times (seeds ``S .. S+K-1``, default one run)
and prints, per workload, every metric by name with its unit — median,
quartiles and spread over the runs — followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the medians.
``--trace 0`` (the default) measures the end-to-end metrics with tracing off;
``--trace 1`` makes traced runs and reports the per-layer metrics.  With one
workload and one run this is the driver's contract (``BENCHMARK.json``
``command``): the JSON object is the last line of standard output.

``--sets N`` rewrites ``baseline/``: N independent sets, each ``K`` untraced
runs plus one traced run per workload, and the noise record that the bounds
in ``BENCHMARK.json`` rest on.  ``--write-reference A-B`` rewrites the
committed oracle digests.  The last record is always left in
``out/result.json`` for ``compare.py``.

Every run is a fresh subprocess started with ``PYTHONHASHSEED=0`` in its own
session; when it ends — normally, on error or on timeout — its whole process
group is killed, so no worker outlives the command.  The exit code is
non-zero when any run fails or fails verification.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (ROOT / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import oracle  # noqa: E402 - needs the path set up above
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
BASELINE_DIR = HERE / "baseline"

#: Seconds one run may take before it is killed (the contract allows 180).
RUN_TIMEOUT_SECONDS = 170.0

#: ``BENCHMARK.json`` section that a ``--trace`` value reports.
SECTIONS = ("end_to_end", "per_layer")


# --------------------------------------------------------------------- #
# One run = one fresh subprocess
# --------------------------------------------------------------------- #


def run_once(workload: str, seed: int, seconds: float, trace: int, reference_dir: Path) -> Dict:
    """Execute one run in a fresh subprocess and return its record (``harness.run``)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child"]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    command += ["--trace", str(trace), "--reference-dir", str(reference_dir)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_SECONDS)
        problem = f"run exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        stdout, problem = b"", f"run exceeded {RUN_TIMEOUT_SECONDS:.0f} s and was killed"
    finally:
        # The child is its session's leader: this reaps any worker it left.
        _kill_group(proc.pid)
        shutil.rmtree(OUT_DIR / f"tmp-{proc.pid}", ignore_errors=True)
    lines = stdout.decode().strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    _, closed, opened = workloads.BY_NAME[workload].phase_sizes(workloads.scale_of(seconds))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": False,
        "attempted": closed + opened,
        "failed": closed + opened,
        "problems": [problem],
        "latency_samples": 0,
        "metrics": {},
        "layer_self_s": {},
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def child_main(args: argparse.Namespace) -> int:
    """Body of the per-run subprocess: run once, print the record as JSON."""
    import harness

    record = harness.run(
        workloads.BY_NAME[args.workload],
        args.seed,
        workloads.scale_of(args.seconds),
        args.trace == 1,
        Path(args.reference_dir),
    )
    print(json.dumps(record))
    return 0


# --------------------------------------------------------------------- #
# Repeats, medians, tables, records
# --------------------------------------------------------------------- #


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, relative inter-quartile spread and n of one metric."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def host_fingerprint() -> Dict[str, object]:
    from repro.core.columnar import fastpath_name

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "fastpath": fastpath_name(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def constants(seconds: float) -> Dict[str, Dict[str, object]]:
    """The fixed sizes each workload ran with, recorded beside the numbers."""
    scale = workloads.scale_of(seconds)
    out = {}
    for workload in workloads.WORKLOADS:
        warm, closed, opened = workload.phase_sizes(scale)
        out[workload.name] = {
            "warmup_tuples": warm,
            "closed_tuples": closed,
            "open_tuples": opened,
            "rate_eps": workload.rate_eps,
            "setup_repeats": workload.setup_count(scale),
            "checkpoint_every": workload.checkpoint_every(scale),
        }
    return out


def measure(
    record: Dict, spec: Dict, names: List[str], seeds: Sequence[int], trace: int, reference_dir: Path
) -> None:
    """Run the workloads over ``seeds`` and fold the runs into ``record``.

    Prints each workload's block as soon as its runs are done: one row per
    metric of the ``--trace`` section, then the contract's JSON line.
    """
    section = SECTIONS[trace]
    for name in names:
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            run = run_once(name, seed, record["seconds"], trace, reference_dir)
            runs.append(run)
            status = "ok" if run["correct"] and not run["failed"] else "FAILED"
            elapsed = time.perf_counter() - started
            print(f"# {name} seed {seed} trace {trace}: {status} in {elapsed:.1f} s", file=sys.stderr)
            record["problems"].extend(f"{name} seed {seed}: {problem}" for problem in run["problems"])
        entry = record["workloads"].setdefault(name, {})
        entry[section] = {}
        for metric in spec[section]:
            key = metric["name"]
            if trace:  # a layer the workload's configuration lacks reads 0
                values = [float(run["metrics"].get(key, 0.0)) for run in runs if run["metrics"]]
            else:
                values = [float(run["metrics"][key]) for run in runs if key in run["metrics"]]
            if values:
                entry[section][key] = summarize(values)
        entry[f"{section}_runs"] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "latency_samples": [run["latency_samples"] for run in runs],
            "closed_slice_eps": [run.get("closed_slice_eps", []) for run in runs],
        }
        if trace:
            entry["layer_self_s"] = runs[0]["layer_self_s"]
        print("\n".join(render(name, entry, spec, section)), flush=True)


def render(name: str, entry: Dict, spec: Dict, section: str) -> List[str]:
    """One workload's rows — ``workload metric median unit ...`` — and its JSON line."""
    lines = [f"== {name} ({section})"]
    metrics = {}
    for metric in spec[section]:
        stats = entry[section].get(metric["name"])
        if stats is None:
            continue
        metrics[metric["name"]] = {"value": stats["median"], "unit": metric["unit"]}
        lines.append(
            f"{name:<14} {metric['name']:<50} {stats['median']:>14.6g} {metric['unit']:<10} "
            f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {100 * stats['spread']:.2f} %  "
            f"n {stats['n']}"
        )
    runs = entry[f"{section}_runs"]
    lines.append(f"{name:<14} latency samples per run: {runs['latency_samples']}")
    lines.append(f"{name:<14} failed {runs['failed']} of {runs['attempted']} attempted tuples")
    if len(metrics) == len(spec[section]):
        result = {
            "correct": runs["correct"],
            "attempted": runs["attempted"],
            "failed": runs["failed"],
            "metrics": metrics,
        }
        lines.append(json.dumps(result))
    return lines


def noise_record(sets: List[Dict], spec: Dict) -> Dict:
    """Per workload x metric: each set's summary, and the spread bounds rest on."""
    out = {"host": sets[0]["host"], "constants": sets[0]["constants"], "workloads": {}}
    for name in sets[0]["workloads"]:
        out["workloads"][name] = {}
        for metric in spec["end_to_end"]:
            per_set = [s["workloads"][name]["end_to_end"][metric["name"]] for s in sets]
            medians = [stats["median"] for stats in per_set]
            out["workloads"][name][metric["name"]] = {
                "unit": metric["unit"],
                "sets": [{k: stats[k] for k in ("median", "q1", "q3", "spread", "n")} for stats in per_set],
                "max_spread": max(stats["spread"] for stats in per_set),
                "median_shift": abs(medians[-1] - medians[0]) / medians[0] if medians[0] else 0.0,
                "bound": metric["bound"],
            }
    return out


def reference_main(args: argparse.Namespace, names: List[str]) -> int:
    first, _, last = args.write_reference.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    for name in names:
        path = oracle.write_reference(workloads.BY_NAME[name], seeds, Path(args.reference_dir))
        print(f"{name}: references for seeds {seeds.start}..{seeds.stop - 1} in {path}")
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS], help="default: all four")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(workloads.RUN_SECONDS),
        help="measured seconds per run; scales the closed- and open-loop tuple counts",
    )
    parser.add_argument(
        "--smoke",
        dest="seconds",
        action="store_const",
        const=workloads.SMOKE_SECONDS,
        help=f"--seconds {workloads.SMOKE_SECONDS}: a functional check, not a measurement",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced runs, per-layer")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload (seeds S..S+K-1)")
    parser.add_argument("--sets", type=int, default=0, help="rewrite baseline/ with this many sets")
    parser.add_argument("--reference-dir", default=str(oracle.REFERENCE_DIR))
    parser.add_argument(
        "--write-reference",
        metavar="A-B",
        help="compute the committed oracle references for seeds A..B at the full run length and exit",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exit, so that ``run_once``'s ``finally`` still
    # kills the run's process group when the command itself is stopped.
    signal.signal(signal.SIGTERM, _terminate)
    if args.child:
        return child_main(args)
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    if args.write_reference:
        return reference_main(args, names)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.seed, args.seed + args.repeats)
    # A baseline set carries both sections: K untraced runs and one traced run.
    passes = [(0, seeds), (1, seeds[:1])] if args.sets else [(args.trace, seeds)]
    records = []
    for index in range(max(1, args.sets)):
        record = {
            "host": host_fingerprint(),
            "seconds": args.seconds,
            "seeds": list(seeds),
            "constants": constants(args.seconds),
            "workloads": {},
            "problems": [],
        }
        for trace, pass_seeds in passes:
            measure(record, spec, names, pass_seeds, trace, Path(args.reference_dir))
        for problem in record["problems"]:
            print(f"PROBLEM {problem}", file=sys.stderr)
        records.append(record)
        if args.sets:
            BASELINE_DIR.mkdir(exist_ok=True)
            (BASELINE_DIR / f"set-{index + 1}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.sets:
        (BASELINE_DIR / "noise.json").write_text(json.dumps(noise_record(records, spec), indent=1) + "\n")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "result.json").write_text(json.dumps(records[-1], indent=1) + "\n")
    return 1 if any(record["problems"] for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
