"""The columnar RAPQ evaluator: batched, fully interned.

:class:`ColumnarRAPQEvaluator` is a drop-in subclass of
:class:`~repro.core.rapq.RAPQEvaluator` whose internal state is keyed by
dense integer ids instead of vertex/label values:

* vertices and labels are interned at the evaluator boundary
  (:class:`~repro.core.columnar.interning.Interner`); everything the
  outside world observes — result events, returned pairs, partition
  admission — is resolved back to original values there, and
  :mod:`repro.core.checkpoint` resolves the interned state through the
  same tables as it writes a checkpoint (and interns as it restores one);
* the DFA is compiled incrementally into a dense ``label_id × state``
  transition table (:class:`_TableDFA`), replacing the per-tuple
  ``transitions_on`` list walk with one indexed load;
* the window snapshot gains a FIFO expiry queue
  (:class:`ColumnarSnapshot`) so a slide boundary costs O(expired
  edges) instead of a full adjacency scan;
* each spanning tree carries a minimum-timestamp lower bound so expiry
  skips trees that cannot possibly hold expired nodes, and the per-tree
  scan itself runs through the column kernels.

The batch entry point :meth:`ColumnarRAPQEvaluator.process_batch` adds
the column pre-passes: relevance filtering of a whole
:class:`~repro.core.columnar.batch.ColumnarBatch` via the label table,
and a single monotonicity scan per irrelevant run.  Parity is *by
construction*: the pre-passes only decide **which** per-tuple mutations
run; the mutations themselves execute in stream order (the deterministic
ordered drain), so result streams, emission keys, and checkpoints are
bit-identical to the scalar evaluator's — the parity and differential
tests assert exactly that.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from ...graph.snapshot import LabeledEdge, SnapshotGraph
from ...graph.tuples import StreamingGraphTuple, Vertex
from ...graph.window import WindowSpec
from ..partition import RootPartition, vertex_sort_key
from ..rapq import RAPQEvaluator
from ..tree_index import SpanningTree, TreeIndex
from .batch import ColumnarBatch
from .interning import Interner
from .kernels import (
    boundary_crossings,
    expired_node_keys,
    first_decrease,
    map_labels,
    min_timestamp,
    relevant_indices,
)

__all__ = ["ColumnarRAPQEvaluator", "ColumnarSnapshot"]


class _TableDFA:
    """The query DFA compiled to dense per-label-id transition rows.

    Grown incrementally as labels are interned: label id ``l`` gets the
    sorted transition pairs of :meth:`~repro.regex.dfa.DFA.transitions_on`
    (order is part of the emission-order contract), the dense
    :meth:`~repro.regex.dfa.DFA.dense_row`, and a precomputed
    "can start a tree" flag.  ``start``/``finals``/``num_states`` mirror
    the base DFA.
    """

    __slots__ = ("base", "start", "finals", "num_states", "trans_pairs", "delta_rows", "starts")

    def __init__(self, base) -> None:
        self.base = base
        self.start = base.start
        self.finals = base.finals
        self.num_states = base.num_states
        #: label id -> sorted ``(source_state, target_state)`` pairs
        self.trans_pairs: List[Tuple[Tuple[int, int], ...]] = []
        #: label id -> dense ``state -> target`` row (-1 = dead)
        self.delta_rows: List[List[int]] = []
        #: label id -> whether some transition leaves the start state
        self.starts: List[bool] = []

    def add_label(self, label: str) -> None:
        """Append the table rows for the next interned label."""
        pairs = tuple(self.base.transitions_on(label))
        self.trans_pairs.append(pairs)
        self.delta_rows.append(list(self.base.dense_row(label)))
        self.starts.append(any(source == self.start for source, _ in pairs))


class ColumnarSnapshot(SnapshotGraph):
    """A snapshot graph with a FIFO expiry queue over interned edges.

    Every insert appends ``(timestamp, source, target, label)`` to the
    queue; stream order makes the queue timestamps non-decreasing, so a
    slide boundary pops only the entries at or below the watermark —
    O(expired) instead of the base class's full adjacency scan.  Entries
    are re-checked against the live adjacency before deletion (the edge
    may have been refreshed by a newer occurrence, or explicitly deleted),
    which makes stale queue entries harmless.  The final adjacency state
    equals the base class's: the same edge set is deleted, and dict
    deletion preserves the insertion order of the remaining entries.
    """

    def __init__(self) -> None:
        super().__init__()
        self._expiry_queue: deque = deque()

    def insert(self, source, target, label, timestamp) -> bool:
        self._expiry_queue.append((timestamp, source, target, label))
        return super().insert(source, target, label, timestamp)

    def expire(self, watermark) -> List[LabeledEdge]:
        expired: List[LabeledEdge] = []
        queue = self._expiry_queue
        out = self._out
        while queue and queue[0][0] <= watermark:
            _, source, target, label = queue.popleft()
            live = out.get(source)
            if live is None:
                continue
            actual = live.get((target, label))
            if actual is None or actual > watermark:
                continue
            expired.append(LabeledEdge(source, target, label, actual))
            self.delete(source, target, label)
        return expired

    def rebuild_expiry_queue(self) -> None:
        """Re-seed the queue from the live adjacency (checkpoint restore path)."""
        self._expiry_queue = deque(
            sorted(
                (timestamp, source, target, label)
                for source, out_edges in self._out.items()
                for (target, label), timestamp in out_edges.items()
            )
        )


class _ColTree(SpanningTree):
    """A spanning tree carrying a conservative minimum-timestamp bound.

    ``min_timestamp`` is a lower bound on every node's timestamp (the root
    is ``+inf``): while it sits above the watermark the tree cannot hold
    an expired node and the expiry scan skips it entirely.  Insertions
    and reparents lower the bound eagerly; removals leave it conservative
    (possibly too low — an extra scan, never a missed one) until
    :meth:`recompute_min` refreshes it after a scan.
    """

    def __init__(self, root_vertex, start_state: int) -> None:
        super().__init__(root_vertex, start_state)
        self.min_timestamp: float = math.inf

    def add_node(self, key, parent, timestamp):
        node = super().add_node(key, parent, timestamp)
        if timestamp < self.min_timestamp:
            self.min_timestamp = timestamp
        return node

    def reparent(self, key, new_parent, timestamp):
        node = super().reparent(key, new_parent, timestamp)
        if timestamp < self.min_timestamp:
            self.min_timestamp = timestamp
        return node

    def recompute_min(self) -> None:
        """Tighten the bound to the true minimum after a pruning scan."""
        self.min_timestamp = min_timestamp(self._nodes)


class _ColTreeIndex(TreeIndex):
    """A Delta index over interned roots that keeps *canonical* tree order.

    Tree iteration order is the cross-evaluator contract (it shapes
    same-timestamp emission order), and the canonical order is defined
    over original vertex values — so each tree's ``order_key`` is
    computed from the root id *resolved* through the interner table, not
    from the id itself (interning order is an accident of the stream).
    """

    def __init__(self, start_state: int, resolve_table: List) -> None:
        super().__init__(start_state)
        self._resolve_table = resolve_table

    def get_or_create(self, root_vertex) -> _ColTree:
        tree = self._trees.get(root_vertex)
        if tree is None:
            tree = _ColTree(root_vertex, self._start_state)
            tree.order_key = vertex_sort_key(self._resolve_table[root_vertex])
            self._trees[root_vertex] = tree
            self._vertex_to_roots.setdefault(root_vertex, {})[root_vertex] = None
        return tree


class ColumnarRAPQEvaluator(RAPQEvaluator):
    """Algorithm RAPQ over interned ids, with a batch entry point.

    Behaviourally identical to :class:`~repro.core.rapq.RAPQEvaluator` —
    same results in the same order, same emission keys, same stats, same
    checkpoints — but internally columnar: ids instead of values, table
    lookups instead of dict-of-tuples walks, queue pops instead of full
    scans.  :meth:`process` keeps the scalar tuple-at-a-time interface;
    :meth:`process_batch` evaluates a whole
    :class:`~repro.core.columnar.batch.ColumnarBatch` with column
    pre-passes and a deterministic ordered drain.

    Unlike the scalar evaluator it always owns its snapshot (a shared
    snapshot would have to be interned consistently across evaluators) and
    always visits trees through the reverse index; multi-query
    shared-snapshot setups and the reverse-index ablation keep using the
    scalar class.  :mod:`repro.core.checkpoint` reads and writes its
    interned state in place.
    """

    def __init__(
        self,
        query,
        window: WindowSpec,
        result_semantics: str = "implicit",
        partition: Optional[RootPartition] = None,
    ) -> None:
        super().__init__(query, window, result_semantics=result_semantics, partition=partition)
        self._vertices = Interner()
        self._labels = Interner()
        self._base_dfa = self.dfa
        self.dfa = _TableDFA(self._base_dfa)
        self.snapshot = ColumnarSnapshot()
        self.index = _ColTreeIndex(self._base_dfa.start, self._vertices.table)

    # ------------------------------------------------------------------ #
    # Interning boundary
    # ------------------------------------------------------------------ #

    def _intern_label(self, label) -> int:
        """Intern a label, growing the transition table to cover its id."""
        label_id = self._labels.intern(label)
        dfa = self.dfa
        while len(dfa.trans_pairs) <= label_id:
            dfa.add_label(self._labels.table[len(dfa.trans_pairs)])
        return label_id

    # ------------------------------------------------------------------ #
    # Scalar-compatible tuple interface
    # ------------------------------------------------------------------ #

    def process(self, tup: StreamingGraphTuple) -> List[Tuple[Vertex, Vertex]]:
        """Process one tuple; identical contract to the scalar evaluator."""
        self._advance_time(tup.timestamp)
        if tup.label not in self.analysis.alphabet:
            self.stats["tuples_discarded"] += 1
            return []
        self._emission_seq += 1
        self.stats["tuples_processed"] += 1
        source = self._vertices.intern(tup.source)
        target = self._vertices.intern(tup.target)
        label_id = self._intern_label(tup.label)
        if tup.is_delete:
            self._delete_interned(source, target, label_id, tup.timestamp)
            return []
        return self._insert_interned(source, target, label_id, tup.timestamp)

    # ------------------------------------------------------------------ #
    # Batch interface (the columnar hot path)
    # ------------------------------------------------------------------ #

    def process_batch(self, batch: ColumnarBatch) -> List[Tuple[int, Vertex, Vertex]]:
        """Evaluate a whole batch; return ``(batch_index, source, target)`` pairs.

        The column pre-passes — label-table relevance mapping and the
        per-run monotonicity scan — only *select* which per-tuple mutations
        run; relevant tuples are then drained strictly in stream order, so
        every observable (results, emission keys, stats, checkpoints) is
        bit-identical to feeding the same tuples through :meth:`process`.
        """
        timestamps = batch.timestamps
        count = len(timestamps)
        if count == 0:
            return []
        alphabet = self.analysis.alphabet
        label_map = [
            self._intern_label(label) if label in alphabet else -1 for label in batch.label_table
        ]
        mapped = map_labels(batch.labels, label_map)
        indices = relevant_indices(mapped)
        pairs: List[Tuple[int, Vertex, Vertex]] = []
        if not indices:
            self._observe_run(timestamps, 0, count)
            return pairs
        vertex_map: Dict[int, int] = {}
        vertex_table = batch.vertex_table
        intern_vertex = self._vertices.intern
        sources = batch.sources
        targets = batch.targets
        labels = batch.labels
        deletes = batch.deletes
        stats = self.stats
        cursor = 0
        for index in indices:
            if index > cursor:
                self._observe_run(timestamps, cursor, index)
            cursor = index + 1
            now = timestamps[index]
            self._advance_time(now)
            self._emission_seq += 1
            stats["tuples_processed"] += 1
            batch_source = sources[index]
            source = vertex_map.get(batch_source)
            if source is None:
                source = vertex_map[batch_source] = intern_vertex(vertex_table[batch_source])
            batch_target = targets[index]
            target = vertex_map.get(batch_target)
            if target is None:
                target = vertex_map[batch_target] = intern_vertex(vertex_table[batch_target])
            label_id = label_map[labels[index]]
            if deletes[index]:
                self._delete_interned(source, target, label_id, now)
            else:
                for left, right in self._insert_interned(source, target, label_id, now):
                    pairs.append((index, left, right))
        if cursor < count:
            self._observe_run(timestamps, cursor, count)
        return pairs

    def _observe_run(self, timestamps, start: int, stop: int) -> None:
        """Advance time over a run of irrelevant tuples ``[start, stop)``.

        Equivalent to calling :meth:`observe` once per tuple, but with one
        monotonicity scan and at most one boundary walk: runs that do not
        cross a slide boundary collapse into a single clock assignment.
        ``_current_time`` is set to the crossing tuple's timestamp before
        each expiry (the scalar evaluator assigns the clock before the
        boundary check, and expiry-time invalidations carry that clock),
        and monotonicity violations surface the exact scalar error with
        the exact scalar partial state.
        """
        stats = self.stats
        offender = first_decrease(timestamps, start, stop, self._current_time)
        if offender is not None:
            # Replay the valid prefix tuple-at-a-time, then let _advance_time
            # raise the scalar monotonicity error on the offending tuple.
            for index in range(start, offender + 1):
                self._advance_time(timestamps[index])
                stats["tuples_discarded"] += 1
            return
        if self._last_expiry_boundary is None:
            # First tuple ever: _advance_time records the boundary without expiring.
            self._advance_time(timestamps[start])
            stats["tuples_discarded"] += 1
            start += 1
            if start == stop:
                return
        last = timestamps[stop - 1]
        stats["tuples_discarded"] += stop - start
        slide = self.window.slide
        if (last // slide) * slide <= self._last_expiry_boundary:
            self._current_time = last
            return
        # Expire only at the tuples that first cross a slide boundary (the
        # positions the scalar _advance_time would expire at); the rest of
        # the run is bulk-skipped.
        for index in boundary_crossings(timestamps, start, stop, slide, self._last_expiry_boundary):
            value = timestamps[index]
            self._current_time = value
            boundary = (value // slide) * slide
            self._last_expiry_boundary = boundary
            self._expire(boundary)
        self._current_time = last

    # ------------------------------------------------------------------ #
    # Algorithm RAPQ over interned ids
    # ------------------------------------------------------------------ #

    def _maybe_root_cycle_interned(self, tree, child_key, now) -> List[Tuple[Vertex, Vertex]]:
        """Interned counterpart of ``_maybe_report_root_cycle`` (resolved output)."""
        if child_key != tree.root_key:
            return []
        dfa = self.dfa
        if dfa.start not in dfa.finals:
            return []
        if getattr(tree, "root_cycle_reported", False):
            return []
        tree.root_cycle_reported = True
        root = self._vertices.table[tree.root_vertex]
        self._report(root, root, now)
        return [(root, root)]

    def _insert_interned(self, source: int, target: int, label_id: int, now) -> List[Tuple[Vertex, Vertex]]:
        """Mirror of the scalar ``_process_insert`` over interned ids."""
        watermark = self._watermark(now)
        self.snapshot.insert(source, target, label_id, now)
        dfa = self.dfa
        transitions = dfa.trans_pairs[label_id]
        if not transitions:
            return []
        newly_reported: List[Tuple[Vertex, Vertex]] = []

        if dfa.starts[label_id] and (
            self.partition is None or self.partition.admits(self._vertices.table[source])
        ):
            self.index.get_or_create(source)

        for tree in self.index.trees_containing(source):
            nodes = tree._nodes
            for source_state, target_state in transitions:
                parent = nodes.get((source, source_state))
                if parent is None or parent.timestamp <= watermark:
                    continue
                child_key = (target, target_state)
                newly_reported.extend(self._maybe_root_cycle_interned(tree, child_key, now))
                child = nodes.get(child_key)
                candidate_ts = parent.timestamp if parent.timestamp < now else now
                if child is None or child.timestamp < candidate_ts:
                    newly_reported.extend(
                        self._insert(tree, (source, source_state), child_key, now, now, watermark)
                    )
        return newly_reported

    def _insert(
        self,
        tree,
        parent_key,
        child_key,
        edge_timestamp,
        now,
        watermark,
        report: bool = True,
    ) -> List[Tuple[Vertex, Vertex]]:
        """Iterative Algorithm Insert over interned ids (resolved reporting).

        Same traversal, same order, same ``insert_calls`` accounting as the
        scalar version; the differences are mechanical — plain-tuple work
        stack, direct adjacency/transition-table access, and resolution of
        reported pairs at the boundary.
        """
        reported: List[Tuple[Vertex, Vertex]] = []
        nodes = tree._nodes
        snap_out = self.snapshot._out
        dfa = self.dfa
        delta_rows = dfa.delta_rows
        finals = dfa.finals
        resolve = self._vertices.table
        index = self.index
        root_key = tree.root_key
        root_cycle_candidate = report and dfa.start in finals
        root_resolved = resolve[tree.root_vertex]
        insert_calls = 0
        stack = [(parent_key, child_key, edge_timestamp)]
        while stack:
            pending_parent, pending_child, pending_edge_ts = stack.pop()
            parent = nodes.get(pending_parent)
            if parent is None or parent.timestamp <= watermark:
                continue
            parent_ts = parent.timestamp
            new_timestamp = parent_ts if parent_ts < pending_edge_ts else pending_edge_ts
            if new_timestamp <= watermark:
                continue
            child = nodes.get(pending_child)
            insert_calls += 1
            if child is not None:
                if child.timestamp >= new_timestamp:
                    continue
                tree.reparent(pending_child, pending_parent, new_timestamp)
            else:
                node = tree.add_node(pending_child, pending_parent, new_timestamp)
                index.register_node(tree, node.vertex)
                child_vertex, child_state = pending_child
                if report and child_state in finals:
                    target_resolved = resolve[child_vertex]
                    self._report(root_resolved, target_resolved, now)
                    reported.append((root_resolved, target_resolved))
            child_vertex, child_state = pending_child
            for (next_vertex, label_id), edge_ts in snap_out.get(child_vertex, {}).items():
                if edge_ts <= watermark:
                    continue
                next_state = delta_rows[label_id][child_state]
                if next_state < 0:
                    continue
                next_key = (next_vertex, next_state)
                if (
                    root_cycle_candidate
                    and next_key == root_key
                    and not getattr(tree, "root_cycle_reported", False)
                ):
                    tree.root_cycle_reported = True
                    self._report(root_resolved, root_resolved, now)
                    reported.append((root_resolved, root_resolved))
                existing = nodes.get(next_key)
                candidate_ts = new_timestamp if new_timestamp < edge_ts else edge_ts
                if existing is None or existing.timestamp < candidate_ts:
                    stack.append((pending_child, next_key, edge_ts))
        if insert_calls:
            self.stats["insert_calls"] += insert_calls
        return reported

    # ------------------------------------------------------------------ #
    # Algorithm ExpiryRAPQ over interned ids
    # ------------------------------------------------------------------ #

    def _expire(self, now) -> int:
        started = time.perf_counter()
        watermark = self._watermark(now)
        self.snapshot.expire(watermark)
        expired_total = 0
        self.stats["expiry_runs"] += 1
        record_invalidations = self.result_semantics == "explicit"
        for tree in self.index.trees():
            # min_timestamp is a conservative lower bound: above the
            # watermark the tree provably holds no expired node, so the
            # scan (a no-op in the scalar evaluator too) is skipped.
            if tree.min_timestamp <= watermark:
                expired_total += self._expire_tree(
                    tree, watermark, record_invalidations=record_invalidations
                )
                tree.recompute_min()
            if len(tree) <= 1:
                self.index.discard_tree(tree.root_vertex)
        self.stats["nodes_expired"] += expired_total
        self.stats["expiry_seconds"] += time.perf_counter() - started
        return expired_total

    def _expire_tree(self, tree, watermark, record_invalidations) -> int:
        """Mirror of the scalar ``_expire_tree`` with kernel-driven scans."""
        expired_keys = expired_node_keys(tree._nodes, watermark)
        if not expired_keys:
            return 0
        removed_nodes = tree.remove_many(iter(expired_keys))
        index = self.index
        for node in removed_nodes:
            index.unregister_node(tree, node.vertex)

        now = self._current_time if self._current_time is not None else 0
        nodes = tree._nodes
        snap_in = self.snapshot._in
        trans_pairs = self.dfa.trans_pairs
        for key in expired_keys:
            if key in nodes:
                continue  # reconnected transitively by an earlier reconnection
            vertex, state = key
            for (edge_source, label_id), edge_ts in snap_in.get(vertex, {}).items():
                if edge_ts <= watermark:
                    continue
                for source_state, target_state in trans_pairs[label_id]:
                    if target_state != state:
                        continue
                    parent = nodes.get((edge_source, source_state))
                    if parent is None or parent.timestamp <= watermark:
                        continue
                    self._insert(
                        tree, (edge_source, source_state), key, edge_ts, now, watermark, report=False
                    )
                    break
                if key in nodes:
                    break

        permanently_removed = 0
        finals = self.dfa.finals
        resolve = self._vertices.table
        root_resolved = resolve[tree.root_vertex]
        for key in expired_keys:
            if key in nodes:
                continue
            permanently_removed += 1
            vertex, state = key
            if record_invalidations and state in finals:
                self._invalidate(root_resolved, resolve[vertex], now)
        return permanently_removed

    # ------------------------------------------------------------------ #
    # Algorithm Delete over interned ids
    # ------------------------------------------------------------------ #

    def _delete_interned(self, source: int, target: int, label_id: int, now) -> None:
        """Mirror of the scalar ``_process_delete`` over interned ids."""
        self.stats["deletions_processed"] += 1
        self.snapshot.delete(source, target, label_id)
        watermark = self._watermark(now)
        transitions = self.dfa.trans_pairs[label_id]
        if not transitions:
            return
        for tree in self.index.trees_containing(target):
            nodes = tree._nodes
            affected = False
            for source_state, target_state in transitions:
                child_key = (target, target_state)
                child = nodes.get(child_key)
                if child is None or child.parent != (source, source_state):
                    continue  # not a tree edge in this tree
                for key in tree.subtree_keys(child_key):
                    node = nodes.get(key)
                    if node is not None:
                        node.timestamp = -math.inf
                affected = True
            if affected:
                tree.min_timestamp = -math.inf
                self._expire_tree(tree, watermark, record_invalidations=True)
                tree.recompute_min()
                if len(tree) <= 1:
                    self.index.discard_tree(tree.root_vertex)

    def __str__(self) -> str:
        return (
            f"ColumnarRAPQEvaluator(query={self.analysis.expression}, k={self.dfa.num_states}, "
            f"|W|={self.window.size}, beta={self.window.slide}, "
            f"index={self.index.size_summary()})"
        )
