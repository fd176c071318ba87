"""Process-tree CPU time and peak memory from ``/proc`` (Linux only)."""

from __future__ import annotations

import os
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # The command name is parenthesised and may itself hold spaces or
    # parentheses; the numeric fields start after the last ")".
    return text[text.rindex(")") + 2 :].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # the process exited while we were reading
        children.setdefault(parent, []).append(int(entry))
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(children.get(pid, ()))
    return pids


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU seconds consumed so far by the given live processes."""
    ticks = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _TICK


def tree_peak_rss_mib(root: int) -> float:
    """Sum over the live tree of each process's peak resident set (``VmHWM``)."""
    total_kib = 0
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident set (best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # not permitted here: the peak then includes input generation
