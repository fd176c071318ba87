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
  interned and whose batch entry point runs the column pre-passes.  It is
  what every checkpoint restores into: :mod:`repro.core.checkpoint`
  reads and writes its interned state directly.

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
]

