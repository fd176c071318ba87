"""Columnar batched hot path: batch RAPQ evaluation over interned ids.

This package is the performance layer of the core: it evaluates whole
*batches* of streaming graph tuples at once instead of tuple-at-a-time,
over dense integer ids instead of Python strings:

* :mod:`~repro.core.columnar.interning` — the boundary layer mapping
  vertex/label values to dense ``int32`` ids (and back);
* :mod:`~repro.core.columnar.kernels` — the column primitives
  (relevance masking, monotonicity scan, expiry scans), plain Python
  loops over the batch's ``array`` columns;
* :mod:`~repro.core.columnar.batch` — :class:`ColumnarBatch`, the
  struct-of-arrays batch representation and its packed wire form, the
  one form every batch takes from coordinator to evaluator;
* :mod:`~repro.core.columnar.evaluator` —
  :class:`ColumnarRAPQEvaluator`, a drop-in
  :class:`~repro.core.rapq.RAPQEvaluator` whose internal state is fully
  interned and whose batch entry point runs the column pre-passes.

The package has no third-party dependencies: the speed comes from the
struct-of-arrays layout and the interned state, not from an array
library.
"""

from __future__ import annotations

from .batch import COLUMNAR_MARKER, ColumnarBatch
from .evaluator import ColumnarRAPQEvaluator
from .interning import Interner
from .kernels import fastpath_name

__all__ = [
    "COLUMNAR_MARKER",
    "ColumnarBatch",
    "ColumnarRAPQEvaluator",
    "Interner",
    "fastpath_name",
    "promote_evaluator",
]


def promote_evaluator(evaluator):
    """Upgrade a plain scalar RAPQ evaluator to the columnar fast path.

    Used by the runtime's restore paths (checkpoint restore, live
    migration, process-transport bootstrap), whose decoders produce plain
    :class:`~repro.core.rapq.RAPQEvaluator` objects: promotion re-interns
    the whole evaluator state so the hot path stays columnar after a
    restore.  Evaluators of any other type (already columnar, RSPQ,
    baseline) pass through untouched.
    """
    from ..rapq import RAPQEvaluator

    if type(evaluator) is RAPQEvaluator:
        return ColumnarRAPQEvaluator.from_scalar(evaluator)
    return evaluator
