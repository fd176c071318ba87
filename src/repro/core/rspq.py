"""Algorithm RSPQ: streaming RPQ evaluation under simple path semantics (§4).

The evaluator mirrors :class:`~repro.core.rapq.RAPQEvaluator` but enforces
that result paths never visit the same graph vertex twice.  It maintains,
per source vertex, an :class:`~repro.core.rspq_tree.RSPQTree` (a spanning
tree whose nodes are *occurrences* of (vertex, state) pairs) together with
the set of markings ``M_x``.

Main differences from the arbitrary-path algorithm, following §4.1:

* a traversal is pruned when the target vertex was already visited **in the
  same state** on the current prefix path (case 1), or when the target pair
  is marked (case 2);
* when the target vertex was visited on the prefix path in a state whose
  suffix language does not contain the new state's suffix language, a
  **conflict** is detected (case 3): the ancestors of the current node are
  unmarked (Algorithm Unmark) and the extensions that were previously pruned
  at those nodes are re-attempted;
* otherwise the path is extended (case 4) and, because the pair is marked on
  first insertion, each pair occurs once per tree in the absence of
  conflicts, giving the same amortized cost as RAPQ.

Because RSPQ evaluation is NP-hard in general, the evaluator accepts a node
budget; exceeding it raises
:class:`~repro.errors.ConflictBudgetExceeded`, which the experiment harness
interprets as "the query cannot be evaluated under simple path semantics on
this graph" (Table 4).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConflictBudgetExceeded
from ..graph.snapshot import SnapshotGraph
from ..graph.tuples import StreamingGraphTuple, Vertex
from ..graph.window import WindowSpec
from ..regex.analysis import QueryAnalysis, analyze
from .results import ResultStream
from .rspq_tree import NodeKey, RSPQNode, RSPQTree

__all__ = ["RSPQEvaluator"]


@dataclass
class _PendingExtend:
    """A deferred call to Algorithm Extend."""

    parent: RSPQNode
    child_key: NodeKey
    edge_timestamp: int


class RSPQEvaluator:
    """Incremental evaluator for a single RPQ under simple path semantics.

    Args:
        query: RPQ expression (string, AST, or a pre-computed analysis).
        window: sliding-window specification.
        max_nodes_per_tree: optional budget on the size of a single spanning
            tree; ``None`` disables the check.  The paper's Table 4 reports
            which real-world queries can be evaluated at all — this budget is
            how the harness detects the ones that cannot.
    """

    def __init__(
        self,
        query,
        window: WindowSpec,
        max_nodes_per_tree: Optional[int] = None,
        result_semantics: str = "implicit",
        snapshot: Optional[SnapshotGraph] = None,
        manage_snapshot: bool = True,
    ) -> None:
        if isinstance(query, QueryAnalysis):
            self.analysis = query
        else:
            self.analysis = analyze(query)
        if result_semantics not in {"implicit", "explicit"}:
            raise ValueError(f"result_semantics must be 'implicit' or 'explicit', got {result_semantics!r}")
        self.dfa = self.analysis.dfa
        self.window = window
        self.max_nodes_per_tree = max_nodes_per_tree
        self.result_semantics = result_semantics
        self.snapshot = snapshot if snapshot is not None else SnapshotGraph()
        self.manage_snapshot = manage_snapshot
        self.trees: Dict[Vertex, RSPQTree] = {}
        self._vertex_to_roots: Dict[Vertex, Set[Vertex]] = {}
        self.results = ResultStream()
        self._current_time: Optional[int] = None
        self._last_expiry_boundary: Optional[int] = None
        self.stats: Dict[str, float] = {
            "tuples_processed": 0,
            "tuples_discarded": 0,
            "extend_calls": 0,
            "conflicts_detected": 0,
            "unmark_operations": 0,
            "expiry_runs": 0,
            "nodes_expired": 0,
            "deletions_processed": 0,
            "expiry_seconds": 0.0,
        }

    # ------------------------------------------------------------------ #
    # Public API (mirrors RAPQEvaluator)
    # ------------------------------------------------------------------ #

    @property
    def current_time(self) -> Optional[int]:
        """Timestamp of the most recently processed tuple."""
        return self._current_time

    def relevant(self, tup: StreamingGraphTuple) -> bool:
        """Return ``True`` if the tuple's label belongs to the query alphabet."""
        return tup.label in self.analysis.alphabet

    def process(self, tup: StreamingGraphTuple) -> List[Tuple[Vertex, Vertex]]:
        """Process one tuple; return the pairs newly reported by this tuple."""
        self._advance_time(tup.timestamp)
        if not self.relevant(tup):
            self.stats["tuples_discarded"] += 1
            return []
        self.stats["tuples_processed"] += 1
        if tup.is_delete:
            self._process_delete(tup)
            return []
        return self._process_insert(tup)

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
        """Pairs reported and not invalidated by explicit deletions."""
        return self.results.active_pairs

    def index_size(self) -> Dict[str, int]:
        """Aggregate size of all RSPQ spanning trees."""
        nodes = sum(len(tree) for tree in self.trees.values())
        markings = sum(len(tree.markings) for tree in self.trees.values())
        return {"trees": len(self.trees), "nodes": nodes, "markings": markings}

    def expire_now(self) -> int:
        """Force window maintenance at the current time; return #expired nodes."""
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

    # ------------------------------------------------------------------ #
    # Tree bookkeeping
    # ------------------------------------------------------------------ #

    def _get_or_create_tree(self, root_vertex: Vertex) -> RSPQTree:
        tree = self.trees.get(root_vertex)
        if tree is None:
            tree = RSPQTree(root_vertex, self.dfa.start)
            self.trees[root_vertex] = tree
            self._vertex_to_roots.setdefault(root_vertex, set()).add(root_vertex)
        return tree

    def _discard_tree(self, root_vertex: Vertex) -> None:
        tree = self.trees.pop(root_vertex, None)
        if tree is None:
            return
        for node in tree.nodes():
            roots = self._vertex_to_roots.get(node.vertex)
            if roots is not None:
                roots.discard(root_vertex)
                if not roots:
                    del self._vertex_to_roots[node.vertex]

    def _trees_containing(self, vertex: Vertex) -> List[RSPQTree]:
        roots = self._vertex_to_roots.get(vertex)
        if not roots:
            return []
        return [self.trees[root] for root in list(roots) if root in self.trees]

    def _register_vertex(self, tree: RSPQTree, vertex: Vertex) -> None:
        self._vertex_to_roots.setdefault(vertex, set()).add(tree.root_vertex)

    def _unregister_vertex(self, tree: RSPQTree, vertex: Vertex) -> None:
        if tree.contains_vertex(vertex):
            return
        roots = self._vertex_to_roots.get(vertex)
        if roots is not None:
            roots.discard(tree.root_vertex)
            if not roots:
                del self._vertex_to_roots[vertex]

    # ------------------------------------------------------------------ #
    # Algorithm RSPQ (insertion tuples)
    # ------------------------------------------------------------------ #

    def _process_insert(self, tup: StreamingGraphTuple) -> List[Tuple[Vertex, Vertex]]:
        now = tup.timestamp
        watermark = self._watermark(now)
        if self.manage_snapshot:
            self.snapshot.insert_tuple(tup)
        transitions = self.dfa.transitions_on(tup.label)
        if not transitions:
            return []
        if any(source_state == self.dfa.start for source_state, _ in transitions):
            self._get_or_create_tree(tup.source)

        reported: List[Tuple[Vertex, Vertex]] = []
        for tree in self._trees_containing(tup.source):
            work: List[_PendingExtend] = []
            for source_state, target_state in transitions:
                child_key: NodeKey = (tup.target, target_state)
                for parent in tree.instances_of((tup.source, source_state)):
                    if parent.timestamp <= watermark:
                        continue
                    work.append(
                        _PendingExtend(parent=parent, child_key=child_key, edge_timestamp=tup.timestamp)
                    )
            if work:
                reported.extend(self._extend_loop(tree, work, now, watermark))
        return reported

    # ------------------------------------------------------------------ #
    # Algorithms Extend and Unmark (iterative, shared work stack)
    # ------------------------------------------------------------------ #

    def _extend_loop(
        self,
        tree: RSPQTree,
        work: List[_PendingExtend],
        now: int,
        watermark: float,
        report: bool = True,
    ) -> List[Tuple[Vertex, Vertex]]:
        """Run Algorithm Extend for every pending item, handling conflicts.

        Conflicts trigger Algorithm Unmark inline: ancestors of the current
        node are unmarked and the traversals that had been pruned at them are
        pushed back onto the work stack.
        """
        reported: List[Tuple[Vertex, Vertex]] = []
        stack = list(work)
        while stack:
            pending = stack.pop()
            parent = pending.parent
            if parent.detached or parent.timestamp <= watermark:
                continue
            child_vertex, child_state = pending.child_key
            self.stats["extend_calls"] += 1
            new_timestamp = min(parent.timestamp, pending.edge_timestamp)
            if new_timestamp <= watermark:
                continue

            # Case 1: the target vertex was already visited in the same state
            # on this prefix path — extending would cycle in the product graph.
            states_on_path = parent.states_at_vertex(child_vertex)
            if child_state in states_on_path:
                continue
            # Case 2: the target pair is marked — prune (suffix containment
            # guarantees its subtree has already been fully explored), unless
            # this derivation carries a strictly fresher path timestamp: a
            # fresher path may unblock window-expired extensions of the marked
            # node, so it must be materialized and re-explored.
            if tree.is_marked(pending.child_key):
                best_existing = max(
                    (instance.timestamp for instance in tree.instances_of(pending.child_key)),
                    default=-math.inf,
                )
                if best_existing >= new_timestamp:
                    continue
            # Case 3: conflict between the first occurrence of the vertex on
            # the path and the new state.
            if states_on_path:
                first_state = states_on_path[0]
                if not self.analysis.suffix_contains(first_state, child_state):
                    self.stats["conflicts_detected"] += 1
                    self._unmark(tree, parent, stack, watermark)
                    continue
            # Case 4: extend the path.  If this parent already holds a child
            # with the same key, the extension was performed earlier — but a
            # strictly fresher timestamp must still be propagated so that
            # previously window-blocked continuations get re-explored.
            existing_child = parent.children.get(pending.child_key)
            newly_added = existing_child is None
            if existing_child is not None:
                if existing_child.timestamp >= new_timestamp:
                    continue
                existing_child.timestamp = new_timestamp
                node = existing_child
            else:
                first_occurrence = not tree.has_key(pending.child_key)
                node = tree.add_child(parent, pending.child_key, new_timestamp)
                self._register_vertex(tree, child_vertex)
                if self.max_nodes_per_tree is not None and len(tree) > self.max_nodes_per_tree:
                    raise ConflictBudgetExceeded(
                        f"RSPQ spanning tree rooted at {tree.root_vertex!r} exceeded "
                        f"{self.max_nodes_per_tree} nodes",
                        tree_root=tree.root_vertex,
                        nodes=len(tree),
                    )
                if first_occurrence:
                    tree.mark(pending.child_key)
                # Report the pair unless the target is the tree's own root: a
                # path from x back to x necessarily repeats x, so it is never a
                # simple path (the suffix-containment shortcut argument of
                # Theorem 4 would collapse it to the empty path, which is not
                # an answer).
                if (
                    report
                    and child_state in self.dfa.finals
                    and child_vertex != tree.root_vertex
                    and (
                        first_occurrence
                        or (tree.root_vertex, child_vertex) not in self.results
                    )
                ):
                    self.results.report(tree.root_vertex, child_vertex, now)
                    reported.append((tree.root_vertex, child_vertex))

            # Explore window edges leaving the new node.
            for edge in self.snapshot.out_edges(child_vertex):
                if edge.timestamp <= watermark:
                    continue
                next_state = self.dfa.delta(child_state, edge.label)
                if next_state is None:
                    continue
                next_key: NodeKey = (edge.target, next_state)
                stack.append(_PendingExtend(parent=node, child_key=next_key, edge_timestamp=edge.timestamp))
        return reported

    def _unmark(
        self,
        tree: RSPQTree,
        from_node: RSPQNode,
        stack: List[_PendingExtend],
        watermark: float,
    ) -> None:
        """Algorithm Unmark: remove ancestors of ``from_node`` from ``M_x``.

        For every unmarked pair, traversals that were previously pruned
        because the pair was marked are re-attempted: every valid window edge
        entering the pair's vertex from a node already in the tree yields a
        new pending Extend.
        """
        unmarked: List[NodeKey] = []
        node: Optional[RSPQNode] = from_node
        while node is not None and tree.unmark(node.key):
            self.stats["unmark_operations"] += 1
            unmarked.append(node.key)
            node = node.parent
        for key in unmarked:
            vertex, state = key
            for edge in self.snapshot.in_edges(vertex):
                if edge.timestamp <= watermark:
                    continue
                for source_state, target_state in self.dfa.transitions_on(edge.label):
                    if target_state != state:
                        continue
                    for candidate in tree.instances_of((edge.source, source_state)):
                        if candidate.detached or candidate.timestamp <= watermark:
                            continue
                        stack.append(
                            _PendingExtend(parent=candidate, child_key=key, edge_timestamp=edge.timestamp)
                        )

    # ------------------------------------------------------------------ #
    # Algorithm ExpiryRSPQ (window maintenance)
    # ------------------------------------------------------------------ #

    def _expire(self, now: int) -> int:
        started = time.perf_counter()
        watermark = self._watermark(now)
        if self.manage_snapshot:
            self.snapshot.expire(watermark)
        self.stats["expiry_runs"] += 1
        expired_total = 0
        record_invalidations = self.result_semantics == "explicit"
        for tree in list(self.trees.values()):
            expired_total += self._expire_tree(
                tree, watermark, now, record_invalidations=record_invalidations
            )
            if len(tree) <= 1:
                self._discard_tree(tree.root_vertex)
        self.stats["nodes_expired"] += expired_total
        self.stats["expiry_seconds"] += time.perf_counter() - started
        return expired_total

    def _expire_tree(
        self,
        tree: RSPQTree,
        watermark: float,
        now: int,
        record_invalidations: bool,
    ) -> int:
        """Prune expired instances and try to reconnect marked pairs.

        Following Algorithm ExpiryRSPQ: unmarked expired instances are simply
        dropped (the unmarking procedure already explored every alternative
        edge into them), while marked pairs that lost all instances are
        re-extended from surviving nodes through valid window edges.
        """
        expired_roots: List[RSPQNode] = [
            node
            for node in tree.nodes()
            if node.parent is not None
            and node.timestamp <= watermark
            and (node.parent.timestamp > watermark or node.parent.parent is None)
        ]
        if not expired_roots:
            return 0
        removed: List[RSPQNode] = []
        for node in expired_roots:
            if node.detached:
                continue
            removed.extend(tree.detach_subtree(node))
        removed_keys: Set[NodeKey] = {node.key for node in removed}
        for node in removed:
            self._unregister_vertex(tree, node.vertex)

        # Keys that were marked and lost every instance: prune the marking and
        # attempt reconnection through valid edges from surviving instances.
        candidates = [key for key in removed_keys if tree.is_marked(key) and not tree.has_key(key)]
        for key in candidates:
            tree.unmark(key)
        work: List[_PendingExtend] = []
        for key in candidates:
            vertex, state = key
            for edge in self.snapshot.in_edges(vertex):
                if edge.timestamp <= watermark:
                    continue
                for source_state, target_state in self.dfa.transitions_on(edge.label):
                    if target_state != state:
                        continue
                    for parent in tree.instances_of((edge.source, source_state)):
                        if parent.detached or parent.timestamp <= watermark:
                            continue
                        work.append(
                            _PendingExtend(parent=parent, child_key=key, edge_timestamp=edge.timestamp)
                        )
        if work:
            # Reconnection can only re-derive pairs the tree already witnessed
            # before pruning, so it never reports new results.
            self._extend_loop(tree, work, now, watermark, report=False)

        permanently_removed = 0
        for key in removed_keys:
            if tree.has_key(key):
                continue
            permanently_removed += 1
            vertex, state = key
            if record_invalidations and state in self.dfa.finals:
                self.results.invalidate(tree.root_vertex, vertex, now)
        return permanently_removed

    # ------------------------------------------------------------------ #
    # Explicit deletions
    # ------------------------------------------------------------------ #

    def _process_delete(self, tup: StreamingGraphTuple) -> None:
        """Process a negative tuple: mark affected subtrees expired, then expire."""
        self.stats["deletions_processed"] += 1
        if self.manage_snapshot:
            self.snapshot.delete(tup.source, tup.target, tup.label)
        watermark = self._watermark(tup.timestamp)
        transitions = self.dfa.transitions_on(tup.label)
        if not transitions:
            return
        for tree in self._trees_containing(tup.target):
            affected = False
            for source_state, target_state in transitions:
                for node in tree.instances_of((tup.target, target_state)):
                    parent = node.parent
                    if parent is None or parent.key != (tup.source, source_state):
                        continue
                    stack = [node]
                    while stack:
                        current = stack.pop()
                        current.timestamp = -math.inf
                        stack.extend(current.children.values())
                    affected = True
            if affected:
                self._expire_tree(tree, watermark, tup.timestamp, record_invalidations=True)
                if len(tree) <= 1:
                    self._discard_tree(tree.root_vertex)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __str__(self) -> str:
        return (
            f"RSPQEvaluator(query={self.analysis.expression}, k={self.dfa.num_states}, "
            f"|W|={self.window.size}, beta={self.window.slide}, index={self.index_size()})"
        )
