"""Snapshot-recomputation baseline (the "Virtuoso emulation" of §5.6).

The paper compares its incremental algorithms against RDF systems that only
support ad-hoc (one-shot) query evaluation: a middle layer inserts every
incoming tuple into the store and re-evaluates the RPQ over the current
window content from scratch.  :class:`SnapshotRecomputeBaseline` reproduces
that execution model with our own batch evaluator standing in for the RDF
engine, so that Figure 11's speed-up experiment measures exactly the
incremental-vs-recompute gap rather than unrelated system overheads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graph.snapshot import SnapshotGraph
from ..graph.tuples import StreamingGraphTuple, Vertex
from ..graph.window import WindowSpec
from ..regex.analysis import QueryAnalysis, analyze
from .batch import batch_rapq, batch_rspq
from .results import ResultStream

__all__ = ["SnapshotRecomputeBaseline"]


class SnapshotRecomputeBaseline:
    """Persistent RPQ evaluation by re-running a batch algorithm per tuple.

    The interface mirrors :class:`~repro.core.rapq.RAPQEvaluator` so the
    experiment harness can drive either implementation interchangeably.

    Args:
        query: RPQ expression (string, AST or pre-computed analysis).
        window: sliding-window specification.
        semantics: ``"arbitrary"`` (default) or ``"simple"``; selects which
            batch algorithm is re-run over the window.
    """

    def __init__(self, query, window: WindowSpec, semantics: str = "arbitrary") -> None:
        if isinstance(query, QueryAnalysis):
            self.analysis = query
        else:
            self.analysis = analyze(query)
        if semantics not in {"arbitrary", "simple"}:
            raise ValueError(f"unknown path semantics {semantics!r}")
        self.semantics = semantics
        self.dfa = self.analysis.dfa
        self.window = window
        self.snapshot = SnapshotGraph()
        self.results = ResultStream()
        self._current_time: Optional[int] = None
        self._last_expiry_boundary: Optional[int] = None
        self.stats: Dict[str, int] = {
            "tuples_processed": 0,
            "tuples_discarded": 0,
            "recomputations": 0,
        }

    # ------------------------------------------------------------------ #
    # Public API (mirrors the incremental evaluators)
    # ------------------------------------------------------------------ #

    @property
    def current_time(self) -> Optional[int]:
        """Timestamp of the most recently processed tuple."""
        return self._current_time

    def relevant(self, tup: StreamingGraphTuple) -> bool:
        """Return ``True`` if the tuple's label belongs to the query alphabet."""
        return tup.label in self.analysis.alphabet

    def process(self, tup: StreamingGraphTuple) -> List[Tuple[Vertex, Vertex]]:
        """Apply one tuple and re-evaluate the query over the window content."""
        self._advance_time(tup.timestamp)
        if not self.relevant(tup):
            self.stats["tuples_discarded"] += 1
            return []
        self.stats["tuples_processed"] += 1
        if tup.is_delete:
            self.snapshot.delete(tup.source, tup.target, tup.label)
            self._recompute(tup.timestamp, report_new=False)
            return []
        self.snapshot.insert_tuple(tup)
        return self._recompute(tup.timestamp, report_new=True)

    def observe(self, timestamp: int) -> None:
        """Advance the clock for an irrelevant tuple (engine label routing)."""
        self._advance_time(timestamp)
        self.stats["tuples_discarded"] += 1

    def process_stream(self, tuples: Iterable[StreamingGraphTuple]) -> ResultStream:
        """Process an entire stream and return the accumulated result stream."""
        for tup in tuples:
            self.process(tup)
        return self.results

    def answer_pairs(self) -> Set[Tuple[Vertex, Vertex]]:
        """All distinct pairs reported so far."""
        return self.results.distinct_pairs

    def active_pairs(self) -> Set[Tuple[Vertex, Vertex]]:
        """Pairs supported by the most recent recomputation."""
        return set(self._last_answer)

    def index_size(self) -> Dict[str, int]:
        """The baseline has no tree index; report zeros for harness symmetry."""
        return {"trees": 0, "nodes": 0}

    def expire_now(self) -> int:
        """Expire window content at the current time (no index to maintain)."""
        if self._current_time is None:
            return 0
        expired = self.snapshot.expire(self._current_time - self.window.size)
        return len(expired)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    _last_answer: Set[Tuple[Vertex, Vertex]] = frozenset()

    def _advance_time(self, timestamp: int) -> None:
        if self._current_time is not None and timestamp < self._current_time:
            raise ValueError(f"timestamps must be non-decreasing: got {timestamp} after {self._current_time}")
        self._current_time = timestamp
        boundary = self.window.window_end(timestamp)
        if self._last_expiry_boundary is None:
            self._last_expiry_boundary = boundary
            return
        if boundary > self._last_expiry_boundary:
            self._last_expiry_boundary = boundary
            self.snapshot.expire(boundary - self.window.size)

    def _recompute(self, now: int, report_new: bool) -> List[Tuple[Vertex, Vertex]]:
        """Run the batch algorithm over the window and report new pairs."""
        self.stats["recomputations"] += 1
        if self.semantics == "arbitrary":
            answer = batch_rapq(self.snapshot, self.dfa)
        else:
            answer = batch_rspq(self.snapshot, self.dfa)
        self._last_answer = answer
        if not report_new:
            return []
        new_pairs = [pair for pair in answer if pair not in self.results]
        for source, target in new_pairs:
            self.results.report(source, target, now)
        return new_pairs

    def __str__(self) -> str:
        return (
            f"SnapshotRecomputeBaseline(query={self.analysis.expression}, "
            f"semantics={self.semantics}, |W|={self.window.size})"
        )
