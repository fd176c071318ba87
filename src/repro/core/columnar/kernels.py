"""Column kernels of the columnar hot path.

The column kernels (:func:`map_labels`, :func:`relevant_indices`,
:func:`first_decrease`, :func:`boundary_crossings`) are tuned pure-Python
loops over the batch's ``array`` columns.  They only *select* which
per-tuple work runs, so the evaluator's observable behaviour (results,
emission order, checkpoints) is exactly that of tuple-at-a-time dispatch.

The tree-node scans (:func:`expired_node_keys`, :func:`min_timestamp`)
are plain loops too: node timestamps live inside Python objects.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = [
    "fastpath_name",
    "map_labels",
    "relevant_indices",
    "first_decrease",
    "boundary_crossings",
    "expired_node_keys",
    "min_timestamp",
]


def fastpath_name() -> str:
    """Name of the kernel implementation, ``"pure"``; benchmark records carry it."""
    return "pure"


def map_labels(label_ids: Sequence[int], label_map: List[int]) -> List[int]:
    """Map per-tuple batch label ids through ``label_map`` (``-1`` = irrelevant).

    ``label_map`` is one evaluator's view of the batch's label table:
    position ``b`` holds the evaluator-local label id of batch label ``b``,
    or ``-1`` when the label is outside the query alphabet.  The result is
    indexable by tuple position.
    """
    return [label_map[lid] for lid in label_ids]


def relevant_indices(mapped: List[int]) -> List[int]:
    """Positions whose mapped label id is ``>= 0`` (relevant tuples), in order."""
    return [index for index, lid in enumerate(mapped) if lid >= 0]


def first_decrease(timestamps, start: int, stop: int, floor: Optional[int]) -> Optional[int]:
    """First position in ``[start, stop)`` violating timestamp monotonicity.

    A position violates when its timestamp is below ``floor`` (the
    evaluator's current time; ``None`` = no floor yet) for the first
    element, or below its predecessor for later ones.  Returns ``None``
    when the whole range is non-decreasing — the common case.
    """
    previous = floor if floor is not None else -math.inf
    for index in range(start, stop):
        value = timestamps[index]
        if value < previous:
            return index
        previous = value
    return None


def boundary_crossings(
    timestamps, start: int, stop: int, slide: int, last_boundary: int
) -> List[int]:
    """Positions in ``[start, stop)`` whose tuple first crosses a slide boundary.

    The slice must already be non-decreasing (checked by
    :func:`first_decrease`).  A position crosses when its window end
    ``(ts // slide) * slide`` exceeds every boundary seen so far, starting
    from ``last_boundary`` — these are exactly the tuples at which the
    scalar evaluator's ``_advance_time`` triggers an expiry, so the caller
    can run expiries at only those positions and bulk-skip the rest.
    """
    crossings: List[int] = []
    for index in range(start, stop):
        boundary = (timestamps[index] // slide) * slide
        if boundary > last_boundary:
            crossings.append(index)
            last_boundary = boundary
    return crossings


def expired_node_keys(nodes: Dict, watermark: float) -> List:
    """Keys of tree nodes with ``timestamp <= watermark``, in node order.

    ``nodes`` is a spanning tree's insertion-ordered ``key -> TreeNode``
    dict.  The root's timestamp is ``+inf`` (it never expires), so a pure
    timestamp scan is equivalent to the scalar evaluator's
    ``parent is not None and timestamp <= watermark`` test.
    """
    return [key for key, node in nodes.items() if node.timestamp <= watermark]


def min_timestamp(nodes: Dict) -> float:
    """Minimum node timestamp of a tree (``+inf`` for a bare root).

    Used to refresh a tree's expiry lower bound after a pruning scan; the
    root's ``+inf`` timestamp makes a plain minimum correct.
    """
    return min((node.timestamp for node in nodes.values()), default=math.inf)
