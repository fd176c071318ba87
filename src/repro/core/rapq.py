"""Algorithm RAPQ: streaming RPQ evaluation under arbitrary path semantics (§3).

The evaluator maintains, for a registered query ``Q_R`` with minimal DFA
``A`` and a sliding window ``W`` over a streaming graph ``S``:

* the window snapshot ``G_{W,tau}`` (a :class:`~repro.graph.snapshot.SnapshotGraph`);
* the Delta tree index (:class:`~repro.core.tree_index.TreeIndex`): one
  spanning tree of the product graph per source vertex.

Per incoming insertion tuple ``(tau, (u, v), l, +)`` it emulates a traversal
of the product graph (Algorithm **RAPQ** + **Insert** of the paper),
appending newly satisfied vertex pairs to the result stream.  At slide
boundaries **ExpiryRAPQ** prunes nodes whose path timestamp left the window
and reconnects the ones that still have a valid alternative path.  Explicit
deletions (negative tuples) are handled by **Delete**, which marks the
affected subtrees as expired and reuses the expiry machinery — the uniform
treatment the paper emphasizes.

The implementation is iterative (explicit work stacks) rather than
recursive so that long paths in large windows cannot hit Python's recursion
limit.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graph.snapshot import SnapshotGraph
from ..graph.tuples import StreamingGraphTuple, Vertex
from ..graph.window import WindowSpec
from ..regex.analysis import QueryAnalysis, analyze
from .partition import RootPartition
from .results import ResultStream
from .tree_index import NodeKey, SpanningTree, TreeIndex

__all__ = ["RAPQEvaluator"]


@dataclass
class _PendingInsert:
    """A deferred call to Algorithm Insert (parent, child, connecting edge)."""

    parent: NodeKey
    child: NodeKey
    edge_timestamp: int


class RAPQEvaluator:
    """Incremental evaluator for a single RPQ under arbitrary path semantics.

    Args:
        query: the RPQ, as a string in the surface syntax, a parsed AST, or a
            pre-computed :class:`~repro.regex.analysis.QueryAnalysis`.
        window: the sliding-window specification ``(|W|, beta)``.

    The evaluator is *eager* in evaluation (every tuple is processed on
    arrival) and *lazy* in expiration (expiry runs when a slide boundary is
    crossed), exactly as in §2 of the paper.

    An evaluator may be one *root partition* of a logically single query
    (intra-query data parallelism): with ``partition=(i, k)`` it maintains
    the full window snapshot but materializes only the spanning trees
    whose root :meth:`~repro.core.partition.RootPartition.admits` — fed
    the same relevant-tuple sequence, ``k`` such evaluators together
    produce exactly the unpartitioned evaluator's result stream (see
    :mod:`repro.core.partition` for the merge contract).
    """

    def __init__(
        self,
        query,
        window: WindowSpec,
        use_reverse_index: bool = True,
        result_semantics: str = "implicit",
        snapshot: Optional[SnapshotGraph] = None,
        manage_snapshot: bool = True,
        partition: Optional[RootPartition] = None,
    ) -> None:
        if isinstance(query, QueryAnalysis):
            self.analysis = query
        else:
            self.analysis = analyze(query)
        if result_semantics not in {"implicit", "explicit"}:
            raise ValueError(f"result_semantics must be 'implicit' or 'explicit', got {result_semantics!r}")
        self.dfa = self.analysis.dfa
        self.window = window
        # The vertex -> trees reverse index lets a tuple visit only the trees
        # that can actually extend with it.  Disabling it (ablation study)
        # falls back to scanning every spanning tree per tuple, which is what
        # a naive reading of Algorithm RAPQ's "foreach T_x in Delta" does.
        self.use_reverse_index = use_reverse_index
        # Implicit windows (the paper's default) keep reported results forever;
        # explicit windows additionally emit invalidations when the supporting
        # paths expire from the window (§2, "explicit windows").
        self.result_semantics = result_semantics
        # A snapshot may be shared across evaluators (multi-query processing);
        # in that case the owner inserts/deletes/expires window content and
        # this evaluator only reads it.
        self.snapshot = snapshot if snapshot is not None else SnapshotGraph()
        self.manage_snapshot = manage_snapshot
        # Root partitioning (intra-query data parallelism): when set, only
        # trees whose root this partition admits are ever materialized.
        # Restricted to implicit windows — explicit expiry invalidations
        # are driven by window movement, which partitions hosted on
        # different shards do not observe identically.
        self.partition = RootPartition.coerce(partition)
        if self.partition is not None and self.result_semantics != "implicit":
            raise ValueError(
                "root-partitioned evaluators require 'implicit' result semantics, "
                f"got {self.result_semantics!r}"
            )
        self.index = TreeIndex(start_state=self.dfa.start)
        self.results = ResultStream()
        # Emission keys: each result event is tagged with the index of the
        # relevant tuple that produced it.  The counter is a pure function
        # of the relevant-tuple sequence (identical across root
        # partitions), so merging partition streams by (key, root) is
        # exact; see repro.core.partition.
        self._emission_seq = 0
        self._emission_keys = array("q")
        self._current_time: Optional[int] = None
        self._last_expiry_boundary: Optional[int] = None
        # Counters used by the experiment harness.
        self.stats: Dict[str, float] = {
            "tuples_processed": 0,
            "tuples_discarded": 0,
            "insert_calls": 0,
            "expiry_runs": 0,
            "nodes_expired": 0,
            "deletions_processed": 0,
            "expiry_seconds": 0.0,
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def current_time(self) -> Optional[int]:
        """Timestamp of the most recently processed tuple."""
        return self._current_time

    def relevant(self, tup: StreamingGraphTuple) -> bool:
        """Return ``True`` if the tuple's label belongs to the query alphabet.

        Tuples with irrelevant labels cannot contribute to any result path
        and are discarded before processing (§5.2).
        """
        return tup.label in self.analysis.alphabet

    def process(self, tup: StreamingGraphTuple) -> List[Tuple[Vertex, Vertex]]:
        """Process one streaming graph tuple; return the newly reported pairs.

        Expired tuples are removed lazily: before the tuple is applied, any
        slide boundary crossed since the previous tuple triggers window
        maintenance (snapshot and tree expiry).
        """
        self._advance_time(tup.timestamp)
        if not self.relevant(tup):
            self.stats["tuples_discarded"] += 1
            return []
        # The emission counter advances only for relevant tuples: relevance
        # is a pure label test, so every root partition of this query
        # counts the same sequence even when co-resident queries make the
        # hosting shards see different irrelevant traffic.
        self._emission_seq += 1
        self.stats["tuples_processed"] += 1
        if tup.is_delete:
            self._process_delete(tup)
            return []
        return self._process_insert(tup)

    def observe(self, timestamp: int) -> None:
        """Account for an irrelevant tuple without dispatching it.

        Exactly what :meth:`process` does for a tuple outside the query
        alphabet — advance the clock (running window maintenance at slide
        boundaries) and count the discard — without the label test.  The
        engine's label-routing map uses this so irrelevant tuples skip the
        per-query dispatch entirely.
        """
        self._advance_time(timestamp)
        self.stats["tuples_discarded"] += 1

    def process_stream(self, tuples: Iterable[StreamingGraphTuple]) -> ResultStream:
        """Process an entire stream and return the accumulated result stream."""
        for tup in tuples:
            self.process(tup)
        return self.results

    def answer_pairs(self) -> Set[Tuple[Vertex, Vertex]]:
        """All distinct pairs reported so far (monotone, implicit windows)."""
        return self.results.distinct_pairs

    def active_pairs(self) -> Set[Tuple[Vertex, Vertex]]:
        """Pairs reported and not invalidated by explicit deletions."""
        return self.results.active_pairs

    @property
    def emission_seq(self) -> int:
        """Number of relevant tuples processed (the emission-key counter)."""
        return self._emission_seq

    @property
    def emission_keys(self) -> array:
        """Per-event emission keys (a copy, ``array('q')``), parallel to ``results``.

        Key ``i`` is the value of :attr:`emission_seq` when event ``i``
        was produced.  Together with the event's ``source`` (its tree
        root) this is the merge key that reassembles root-partitioned
        result streams into the exact unpartitioned stream
        (:func:`repro.runtime.merger.merge_partition_events`).
        """
        return array("q", self._emission_keys)

    def _report(self, source: Vertex, target: Vertex, timestamp: int) -> None:
        """Append a positive result, tagged with the current emission key."""
        self.results.report(source, target, timestamp)
        self._emission_keys.append(self._emission_seq)

    def _invalidate(self, source: Vertex, target: Vertex, timestamp: int) -> None:
        """Append an invalidation, tagged with the current emission key."""
        self.results.invalidate(source, target, timestamp)
        self._emission_keys.append(self._emission_seq)

    def index_size(self) -> Dict[str, int]:
        """Current size of the Delta index (Figure 5 reports this)."""
        return self.index.size_summary()

    def expire_now(self) -> int:
        """Force window maintenance at the current time; return #expired nodes.

        The engine calls this at slide boundaries, but tests and the
        experiment harness may call it directly.
        """
        if self._current_time is None:
            return 0
        return self._expire(self._current_time)

    # ------------------------------------------------------------------ #
    # Time and window maintenance
    # ------------------------------------------------------------------ #

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
            self._expire(boundary)

    def _watermark(self, now: int) -> float:
        return now - self.window.size

    def _expire(self, now: int) -> int:
        """Run ExpiryRAPQ on the snapshot and every spanning tree."""
        started = time.perf_counter()
        watermark = self._watermark(now)
        if self.manage_snapshot:
            self.snapshot.expire(watermark)
        expired_total = 0
        self.stats["expiry_runs"] += 1
        record_invalidations = self.result_semantics == "explicit"
        for tree in self.index.trees():
            expired_total += self._expire_tree(tree, watermark, record_invalidations=record_invalidations)
            if len(tree) <= 1:
                self.index.discard_tree(tree.root_vertex)
        self.stats["nodes_expired"] += expired_total
        self.stats["expiry_seconds"] += time.perf_counter() - started
        return expired_total

    # ------------------------------------------------------------------ #
    # Algorithm RAPQ (insertion tuples)
    # ------------------------------------------------------------------ #

    def _process_insert(self, tup: StreamingGraphTuple) -> List[Tuple[Vertex, Vertex]]:
        now = tup.timestamp
        watermark = self._watermark(now)
        if self.manage_snapshot:
            self.snapshot.insert_tuple(tup)
        transitions = self.dfa.transitions_on(tup.label)
        if not transitions:
            return []
        newly_reported: List[Tuple[Vertex, Vertex]] = []

        # A new spanning tree rooted at u is materialized when the edge can
        # start a path from u, i.e. when delta(s0, l) is defined.  This is
        # the single point where root partitioning bites: a partitioned
        # evaluator only materializes the trees it owns, and since trees
        # never interact, everything downstream is untouched.
        if any(source_state == self.dfa.start for source_state, _ in transitions) and (
            self.partition is None or self.partition.admits(tup.source)
        ):
            self.index.get_or_create(tup.source)

        if self.use_reverse_index:
            candidate_trees = self.index.trees_containing(tup.source)
        else:
            candidate_trees = list(self.index.trees())
        for tree in candidate_trees:
            for source_state, target_state in transitions:
                parent_key: NodeKey = (tup.source, source_state)
                parent = tree.get(parent_key)
                if parent is None or parent.timestamp <= watermark:
                    continue
                child_key: NodeKey = (tup.target, target_state)
                newly_reported.extend(self._maybe_report_root_cycle(tree, child_key, now))
                child = tree.get(child_key)
                candidate_ts = min(parent.timestamp, tup.timestamp)
                if child is None or child.timestamp < candidate_ts:
                    newly_reported.extend(
                        self._insert(tree, parent_key, child_key, tup.timestamp, now, watermark)
                    )
        return newly_reported

    def _maybe_report_root_cycle(
        self, tree: SpanningTree, child_key: NodeKey, now: int
    ) -> List[Tuple[Vertex, Vertex]]:
        """Report ``(x, x)`` when a valid cycle returns to the root in an accepting start state.

        The root node ``(x, s0)`` is present in its tree from creation, so
        Algorithm Insert never re-adds it and would silently miss the answer
        ``(x, x)`` for queries whose start state is accepting (e.g. ``(a|b)*``)
        when the window contains a cycle through ``x``.  This corner case is
        handled here; see DESIGN.md ("Design choices").
        """
        if child_key != tree.root_key:
            return []
        if self.dfa.start not in self.dfa.finals:
            return []
        if getattr(tree, "root_cycle_reported", False):
            return []
        tree.root_cycle_reported = True
        self._report(tree.root_vertex, tree.root_vertex, now)
        return [(tree.root_vertex, tree.root_vertex)]

    def _insert(
        self,
        tree: SpanningTree,
        parent_key: NodeKey,
        child_key: NodeKey,
        edge_timestamp: int,
        now: int,
        watermark: float,
        report: bool = True,
    ) -> List[Tuple[Vertex, Vertex]]:
        """Iterative version of Algorithm Insert.

        Returns the vertex pairs newly added to the result set, and appends
        them to the result stream.  ``report`` is False when Insert is used
        to *reconnect* nodes during expiry or deletion handling: reconnection
        can only re-derive pairs that were already reported (the tree held
        every reachable node before pruning), so re-reporting them would
        unbalance the result stream's active-pair accounting.
        """
        reported: List[Tuple[Vertex, Vertex]] = []
        stack: List[_PendingInsert] = [
            _PendingInsert(parent=parent_key, child=child_key, edge_timestamp=edge_timestamp)
        ]
        while stack:
            pending = stack.pop()
            parent = tree.get(pending.parent)
            if parent is None or parent.timestamp <= watermark:
                continue
            new_timestamp = min(parent.timestamp, pending.edge_timestamp)
            if new_timestamp <= watermark:
                continue
            child = tree.get(pending.child)
            self.stats["insert_calls"] += 1
            if child is not None:
                # A fresher path to an existing node: refresh its parent pointer
                # and timestamp.  The strict timestamp improvement rules out
                # cycles (if the parent were a descendant of the child its path
                # timestamp could not exceed the child's).  The fresher
                # timestamp may unblock extensions that were previously outside
                # the window, so the node's outgoing edges are re-explored
                # below — without this propagation step results can be missed
                # when a stale node is revived by a newer path.
                if child.timestamp >= new_timestamp:
                    continue
                tree.reparent(pending.child, pending.parent, new_timestamp)
            else:
                node = tree.add_node(pending.child, pending.parent, new_timestamp)
                self.index.register_node(tree, node.vertex)
                child_vertex, child_state = pending.child
                if report and child_state in self.dfa.finals:
                    self._report(tree.root_vertex, child_vertex, now)
                    reported.append((tree.root_vertex, child_vertex))
            child_vertex, child_state = pending.child
            # Extend the traversal with window edges leaving the (new or
            # refreshed) node.
            for edge in self.snapshot.out_edges(child_vertex):
                if edge.timestamp <= watermark:
                    continue
                next_state = self.dfa.delta(child_state, edge.label)
                if next_state is None:
                    continue
                next_key: NodeKey = (edge.target, next_state)
                if report:
                    reported.extend(self._maybe_report_root_cycle(tree, next_key, now))
                existing = tree.get(next_key)
                candidate_ts = min(new_timestamp, edge.timestamp)
                if existing is None or existing.timestamp < candidate_ts:
                    stack.append(
                        _PendingInsert(parent=pending.child, child=next_key, edge_timestamp=edge.timestamp)
                    )
        return reported

    # ------------------------------------------------------------------ #
    # Algorithm ExpiryRAPQ (window maintenance)
    # ------------------------------------------------------------------ #

    def _expire_tree(
        self,
        tree: SpanningTree,
        watermark: float,
        record_invalidations: bool,
    ) -> int:
        """Prune expired nodes from ``tree`` and reconnect the ones still reachable.

        Returns the number of nodes permanently removed.  When
        ``record_invalidations`` is true (explicit deletions), pairs whose
        accepting node is permanently removed are appended to the result
        stream as invalidations.
        """
        expired_keys = [
            node.key
            for node in tree.nodes()
            if node.parent is not None and node.timestamp <= watermark
        ]
        if not expired_keys:
            return 0
        removed_nodes = tree.remove_many(iter(expired_keys))
        for node in removed_nodes:
            self.index.unregister_node(tree, node.vertex)

        now = self._current_time if self._current_time is not None else 0
        # Try to reconnect each pruned node through a still-valid incoming edge
        # from a surviving (or already reconnected) node.
        for key in expired_keys:
            if key in tree:
                continue  # reconnected transitively by an earlier reconnection
            vertex, state = key
            for edge in self.snapshot.in_edges(vertex):
                if edge.timestamp <= watermark:
                    continue
                for source_state, target_state in self.dfa.transitions_on(edge.label):
                    if target_state != state:
                        continue
                    parent_key: NodeKey = (edge.source, source_state)
                    parent = tree.get(parent_key)
                    if parent is None or parent.timestamp <= watermark:
                        continue
                    self._insert(tree, parent_key, key, edge.timestamp, now, watermark, report=False)
                    break
                if key in tree:
                    break

        permanently_removed = 0
        for key in expired_keys:
            if key in tree:
                continue
            permanently_removed += 1
            vertex, state = key
            if record_invalidations and state in self.dfa.finals:
                self._invalidate(tree.root_vertex, vertex, now)
        return permanently_removed

    # ------------------------------------------------------------------ #
    # Algorithm Delete (explicit deletions)
    # ------------------------------------------------------------------ #

    def _process_delete(self, tup: StreamingGraphTuple) -> None:
        """Process a negative tuple with Algorithm Delete."""
        self.stats["deletions_processed"] += 1
        if self.manage_snapshot:
            self.snapshot.delete(tup.source, tup.target, tup.label)
        watermark = self._watermark(tup.timestamp)
        transitions = self.dfa.transitions_on(tup.label)
        if not transitions:
            return
        for tree in self.index.trees_containing(tup.target):
            affected = False
            for source_state, target_state in transitions:
                child_key: NodeKey = (tup.target, target_state)
                child = tree.get(child_key)
                if child is None or child.parent != (tup.source, source_state):
                    continue  # not a tree edge in this tree
                # Mark the whole subtree as expired (timestamp -inf).
                for key in tree.subtree_keys(child_key):
                    node = tree.get(key)
                    if node is not None:
                        node.timestamp = -math.inf
                affected = True
            if affected:
                self._expire_tree(tree, watermark, record_invalidations=True)
                if len(tree) <= 1:
                    self.index.discard_tree(tree.root_vertex)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __str__(self) -> str:
        return (
            f"RAPQEvaluator(query={self.analysis.expression}, k={self.dfa.num_states}, "
            f"|W|={self.window.size}, beta={self.window.slide}, "
            f"index={self.index.size_summary()})"
        )
