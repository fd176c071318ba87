"""Compare two benchmark records: ``python benchmarks/e2e/compare.py A.json B.json``.

``A`` is the base (parent commit), ``B`` the change; both are records written
by ``run.py`` (a copy of ``out/result.json``, or ``baseline/set-N.json``).  One row per workload x
end-to-end metric gives both medians with their quartiles, the ratio ``B/A``
and a verdict against the bound ``BENCHMARK.json`` fixes for that metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's inter-quartile spread is wider than the
  bound, so the runs cannot tell (choosing-metrics §6.5): more or longer
  runs are needed, not a verdict;
* ``improved``   — B's median is better by more than the spread between A's
  own runs (the first half of choosing-metrics §8; the other half, winning
  nine pairs in ten, needs alternating pairs and is not checked here);
* ``unchanged``  — anything else: no worse than the bound allows.

The ``shift/iqr`` column gives the difference of the medians in units of A's
inter-quartile range, so that a drop the bound lets through still shows when
it stands clear of the noise.

Then the per-layer self times of the two traced passes, sorted by absolute
change, show where a difference sits.  The exit code is 1 when any row
regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def verdict(base: Dict, change: Dict, better: str, bound: float) -> Tuple[float, float, str]:
    """``(ratio B/A, shift in units of A's inter-quartile range, verdict)`` for one workload x metric."""
    if not base["median"]:
        return 0.0, 0.0, "unresolved"
    ratio = change["median"] / base["median"]
    worse_by = (1 - ratio) if better == "higher" else (ratio - 1)
    shift = worse_by / base["spread"] if base["spread"] else 0.0
    if worse_by > bound:
        return ratio, shift, "regressed"
    if max(base["spread"], change["spread"]) > bound:
        return ratio, shift, "unresolved"
    if worse_by < -base["spread"]:
        return ratio, shift, "improved"
    return ratio, shift, "unchanged"


def compare(base: Dict, change: Dict, spec: Dict) -> Tuple[List[str], int]:
    """Rendered comparison lines and the number of regressed rows."""
    lines = [
        f"{'workload':<14} {'metric':<22} {'A median [q1, q3]':<38} {'B median [q1, q3]':<38} "
        f"{'B/A':>7}  {'bound':>5}  {'shift/iqr':>9}  verdict"
    ]
    regressed = 0
    for name, entry in base["workloads"].items():
        other = change["workloads"].get(name)
        if other is None:
            continue
        for metric in spec["end_to_end"]:
            a = entry["end_to_end"].get(metric["name"])
            b = other["end_to_end"].get(metric["name"])
            if a is None or b is None:
                continue
            ratio, shift, word = verdict(a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"

            def cell(stats: Dict) -> str:
                return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] n={stats['n']}"

            lines.append(
                f"{name:<14} {metric['name']:<22} {cell(a):<38} {cell(b):<38} "
                f"{ratio:>7.4f}  {metric['bound']:>5.2f}  {shift:>+9.1f}  {word}"
            )
    for name, entry in base["workloads"].items():
        other = change["workloads"].get(name, {})
        a_layers, b_layers = entry.get("layer_self_s") or {}, other.get("layer_self_s") or {}
        if not a_layers or not b_layers:
            continue
        lines.append(f"-- {name}: staged self time per layer, by absolute change (A s -> B s)")
        deltas = sorted(
            ((b_layers.get(key, 0.0) - a_layers.get(key, 0.0), key) for key in set(a_layers) | set(b_layers)),
            key=lambda item: -abs(item[0]),
        )
        for delta, key in deltas:
            a_value, b_value = a_layers.get(key, 0.0), b_layers.get(key, 0.0)
            ratio = f"{b_value / a_value:.3f}" if a_value else "new"
            lines.append(f"   {key:<34} {a_value:>9.4f} -> {b_value:>9.4f}  {delta:>+9.4f} s  B/A {ratio}")
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(base, change, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
