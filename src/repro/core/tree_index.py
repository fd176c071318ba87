"""The Delta tree index used by Algorithm RAPQ (Definition 12).

``Delta`` is a collection of spanning trees, one per source vertex ``x`` of
the window snapshot.  A tree node is a (vertex, automaton-state) pair; a
node ``(u, s)`` in the tree ``T_x`` witnesses a path from ``x`` to ``u`` in
the window whose label takes the automaton from the start state to ``s``.
Each node stores a parent pointer and the *path timestamp*: the minimum
edge timestamp along the tree path from the root, which determines when the
node expires.

The index also maintains a reverse map ``vertex -> set of tree roots`` so
that an incoming edge ``(u, v)`` only visits the trees that actually
contain ``u`` — this is the hash-index optimization the paper's prototype
uses for efficient node look-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..graph.tuples import Vertex
from .partition import vertex_sort_key

__all__ = ["NodeKey", "TreeNode", "SpanningTree", "TreeIndex", "ROOT_TIMESTAMP"]

# A tree node is identified by its (vertex, state) pair.
NodeKey = Tuple[Vertex, int]

# The root (x, s0) represents the empty path from x to itself; it never
# expires, which we model with an infinite timestamp.
ROOT_TIMESTAMP = math.inf


@dataclass
class TreeNode:
    """A node ``(vertex, state)`` of a spanning tree.

    Attributes:
        vertex: the graph vertex ``u``.
        state: the automaton state ``s``.
        parent: key of the parent node, or ``None`` for the root.
        timestamp: minimum edge timestamp along the path from the root.
        children: keys of the node's children in the tree.
    """

    vertex: Vertex
    state: int
    parent: Optional[NodeKey]
    timestamp: float
    children: Set[NodeKey] = field(default_factory=set)

    @property
    def key(self) -> NodeKey:
        """The ``(vertex, state)`` identity of this node."""
        return (self.vertex, self.state)

    def __str__(self) -> str:
        return f"({self.vertex},{self.state})@{self.timestamp}"


class SpanningTree:
    """A spanning tree ``T_x`` of the product graph rooted at ``(x, s0)``.

    Under arbitrary path semantics each (vertex, state) pair appears at most
    once in the tree (second invariant of Lemma 1), so nodes are keyed by
    that pair.
    """

    def __init__(self, root_vertex: Vertex, start_state: int) -> None:
        self.root_vertex = root_vertex
        self.start_state = start_state
        # Canonical position of this tree in cross-tree iteration; computed
        # once (vertex_sort_key is pure) and used by TreeIndex.trees() /
        # trees_containing() to make result-emission order partition-independent.
        self.order_key = vertex_sort_key(root_vertex)
        root = TreeNode(vertex=root_vertex, state=start_state, parent=None, timestamp=ROOT_TIMESTAMP)
        self._nodes: Dict[NodeKey, TreeNode] = {root.key: root}
        # How many states each vertex currently occupies in this tree; used to
        # keep the index's reverse map up to date.
        self._vertex_degree: Dict[Vertex, int] = {root_vertex: 1}

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    @property
    def root_key(self) -> NodeKey:
        """Key of the root node ``(x, s0)``."""
        return (self.root_vertex, self.start_state)

    @property
    def root(self) -> TreeNode:
        """The root node object."""
        return self._nodes[self.root_key]

    def get(self, key: NodeKey) -> Optional[TreeNode]:
        """Return the node with ``key`` or ``None``."""
        return self._nodes.get(key)

    def __contains__(self, key: NodeKey) -> bool:
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[TreeNode]:
        """Iterate over every node of the tree (including the root)."""
        return iter(list(self._nodes.values()))

    def node_keys(self) -> List[NodeKey]:
        """Return the keys of every node of the tree."""
        return list(self._nodes.keys())

    def contains_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if ``vertex`` appears in the tree in some state."""
        return self._vertex_degree.get(vertex, 0) > 0

    def states_of(self, vertex: Vertex) -> List[int]:
        """Return the automaton states in which ``vertex`` appears in this tree."""
        return [state for (v, state) in self._nodes if v == vertex]

    def path_to_root(self, key: NodeKey) -> List[NodeKey]:
        """Return the keys on the path from the root to ``key`` (root first)."""
        path: List[NodeKey] = []
        current: Optional[NodeKey] = key
        while current is not None:
            path.append(current)
            node = self._nodes.get(current)
            if node is None:
                raise KeyError(f"node {current} not in tree rooted at {self.root_vertex}")
            current = node.parent
        path.reverse()
        return path

    def subtree_keys(self, key: NodeKey) -> List[NodeKey]:
        """Return the keys of the subtree rooted at ``key`` (including it)."""
        if key not in self._nodes:
            return []
        collected: List[NodeKey] = []
        stack = [key]
        while stack:
            current = stack.pop()
            collected.append(current)
            stack.extend(self._nodes[current].children)
        return collected

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_node(self, key: NodeKey, parent: NodeKey, timestamp: float) -> TreeNode:
        """Insert a new node under ``parent``; the key must not exist yet."""
        if key in self._nodes:
            raise ValueError(f"node {key} already present in tree rooted at {self.root_vertex}")
        if parent not in self._nodes:
            raise KeyError(f"parent {parent} not in tree rooted at {self.root_vertex}")
        vertex, state = key
        node = TreeNode(vertex=vertex, state=state, parent=parent, timestamp=timestamp)
        self._nodes[key] = node
        self._nodes[parent].children.add(key)
        self._vertex_degree[vertex] = self._vertex_degree.get(vertex, 0) + 1
        return node

    def reparent(self, key: NodeKey, new_parent: NodeKey, timestamp: float) -> TreeNode:
        """Move an existing node under ``new_parent`` and refresh its timestamp.

        This is the "refresh" branch of Algorithm Insert: a fresher path to an
        already-present node updates its parent pointer and timestamp without
        revisiting its descendants.
        """
        node = self._nodes[key]
        if new_parent not in self._nodes:
            raise KeyError(f"parent {new_parent} not in tree rooted at {self.root_vertex}")
        if key == new_parent:
            raise ValueError("a node cannot become its own parent")
        if node.parent is not None:
            self._nodes[node.parent].children.discard(key)
        node.parent = new_parent
        node.timestamp = timestamp
        self._nodes[new_parent].children.add(key)
        return node

    def remove(self, key: NodeKey) -> Optional[TreeNode]:
        """Detach and remove a single node (its children keep their parent pointer).

        Callers removing a whole subtree should use :meth:`remove_many` with
        the subtree's keys so that child links stay consistent.
        """
        node = self._nodes.pop(key, None)
        if node is None:
            return None
        if node.parent is not None and node.parent in self._nodes:
            self._nodes[node.parent].children.discard(key)
        degree = self._vertex_degree.get(node.vertex, 0) - 1
        if degree <= 0:
            self._vertex_degree.pop(node.vertex, None)
        else:
            self._vertex_degree[node.vertex] = degree
        return node

    def remove_many(self, keys: Iterator[NodeKey]) -> List[TreeNode]:
        """Remove a batch of nodes and return the removed node objects."""
        removed: List[TreeNode] = []
        for key in list(keys):
            node = self.remove(key)
            if node is not None:
                removed.append(node)
        return removed

    def restore_nodes(self, entries: List[Tuple[NodeKey, NodeKey, float]]) -> None:
        """Adopt checkpointed non-root nodes verbatim, in the recorded order.

        Unlike repeated :meth:`add_node` calls, this tolerates entries whose
        parent appears later in the list (a node reparented under a younger
        node keeps its original insertion position), so the node iteration
        order of the restored tree is *exactly* the checkpointed one.  That
        order drives expiry scans, which drive result emission order — the
        property the runtime's live-migration parity relies on.

        Args:
            entries: ``(key, parent_key, timestamp)`` triples in the source
                tree's node-insertion order (the root is implied).

        Raises:
            ValueError: if the tree already has non-root nodes, a key repeats,
                or the entries do not form one tree rooted at the root node
                (unknown parent or an unreachable cycle).
        """
        if len(self._nodes) > 1:
            raise ValueError("restore_nodes requires a tree holding only its root")
        for key, parent_key, timestamp in entries:
            if key in self._nodes:
                raise ValueError(f"corrupt checkpoint: node {key} appears twice")
            vertex, state = key
            self._nodes[key] = TreeNode(vertex=vertex, state=state, parent=parent_key, timestamp=timestamp)
            self._vertex_degree[vertex] = self._vertex_degree.get(vertex, 0) + 1
        for key, node in self._nodes.items():
            if node.parent is None:
                continue
            parent = self._nodes.get(node.parent)
            if parent is None:
                raise ValueError(
                    f"corrupt checkpoint: node {key} has no reachable parent "
                    f"in the tree rooted at {self.root_vertex!r}"
                )
            parent.children.add(key)
        # Every node must hang off the root; a parent cycle among restored
        # nodes would otherwise go unnoticed until expiry walks the tree.
        reachable = 0
        stack = [self.root_key]
        while stack:
            reachable += 1
            stack.extend(self._nodes[stack.pop()].children)
        if reachable != len(self._nodes):
            raise ValueError(
                f"corrupt checkpoint: {len(self._nodes) - reachable} nodes have no "
                f"reachable parent in the tree rooted at {self.root_vertex!r}"
            )

    def __str__(self) -> str:
        return f"SpanningTree(root={self.root_vertex}, nodes={len(self._nodes)})"


class TreeIndex:
    """The Delta index: one spanning tree per source vertex (Definition 12)."""

    def __init__(self, start_state: int) -> None:
        self._start_state = start_state
        self._trees: Dict[Vertex, SpanningTree] = {}
        # vertex -> tree roots whose tree contains the vertex, kept as dict
        # keys (an insertion-ordered set).  Iteration over trees is *not*
        # this insertion order: trees_containing()/trees() sort by the
        # canonical root key, so same-timestamp emission order is
        # independent of hash seeds, of tree-creation history, and of how
        # trees are distributed over root partitions.
        self._vertex_to_roots: Dict[Vertex, Dict[Vertex, None]] = {}

    # ------------------------------------------------------------------ #
    # Tree management
    # ------------------------------------------------------------------ #

    @property
    def start_state(self) -> int:
        """The automaton start state ``s0`` used for every root."""
        return self._start_state

    def get(self, root_vertex: Vertex) -> Optional[SpanningTree]:
        """Return the tree rooted at ``root_vertex`` or ``None``."""
        return self._trees.get(root_vertex)

    def get_or_create(self, root_vertex: Vertex) -> SpanningTree:
        """Return the tree rooted at ``root_vertex``, creating it if needed."""
        tree = self._trees.get(root_vertex)
        if tree is None:
            tree = SpanningTree(root_vertex, self._start_state)
            self._trees[root_vertex] = tree
            self._vertex_to_roots.setdefault(root_vertex, {})[root_vertex] = None
        return tree

    def discard_tree(self, root_vertex: Vertex) -> None:
        """Drop an entire tree (used when a tree shrinks back to just its root)."""
        tree = self._trees.pop(root_vertex, None)
        if tree is None:
            return
        for node in tree.nodes():
            roots = self._vertex_to_roots.get(node.vertex)
            if roots is not None:
                roots.pop(root_vertex, None)
                if not roots:
                    del self._vertex_to_roots[node.vertex]

    def trees(self) -> Iterator[SpanningTree]:
        """Iterate over every spanning tree, in canonical root order.

        Cross-tree iteration order determines the order same-timestamp
        results are emitted, so it is *canonical* — sorted by
        :func:`~repro.core.partition.vertex_sort_key` of the root — rather
        than historical: the order then depends only on which trees exist,
        which is what lets a root-partitioned evaluator reproduce the
        unpartitioned emission order exactly (each partition iterates the
        same canonical subsequence it owns).
        """
        return iter(sorted(self._trees.values(), key=attrgetter("order_key")))

    def trees_containing(self, vertex: Vertex) -> List[SpanningTree]:
        """Return the trees that contain ``vertex``, in canonical root order.

        This is the reverse index that lets the per-tuple loop of Algorithm
        RAPQ visit only trees that can actually extend with the new edge;
        like :meth:`trees` it yields canonical (root-sorted) order so that
        emission order is independent of tree-creation history and of any
        root partitioning.
        """
        roots = self._vertex_to_roots.get(vertex)
        if not roots:
            return []
        found = [self._trees[root] for root in list(roots) if root in self._trees]
        if len(found) > 1:
            found.sort(key=attrgetter("order_key"))
        return found

    # ------------------------------------------------------------------ #
    # Node bookkeeping (keeps the reverse index in sync)
    # ------------------------------------------------------------------ #

    def register_node(self, tree: SpanningTree, vertex: Vertex) -> None:
        """Record that ``vertex`` now appears in ``tree``."""
        self._vertex_to_roots.setdefault(vertex, {})[tree.root_vertex] = None

    def unregister_node(self, tree: SpanningTree, vertex: Vertex) -> None:
        """Record that ``vertex`` may have left ``tree`` (checked against the tree)."""
        if tree.contains_vertex(vertex):
            return
        roots = self._vertex_to_roots.get(vertex)
        if roots is not None:
            roots.pop(tree.root_vertex, None)
            if not roots:
                del self._vertex_to_roots[vertex]

    def reverse_index(self) -> Dict[Vertex, List[Vertex]]:
        """The reverse map ``vertex -> tree roots`` in its recorded order.

        Checkpoints record this map so a restored evaluator visits exactly
        the trees the original would have.  The recorded *order* is kept
        for checkpoint-format stability, but iteration no longer depends
        on it: :meth:`trees_containing` sorts by the canonical root key.
        """
        return {vertex: list(roots) for vertex, roots in self._vertex_to_roots.items()}

    def restore_reverse_index(self, entries: Iterable[Tuple[Vertex, List[Vertex]]]) -> None:
        """Adopt a recorded reverse map in its recorded order (checkpoint restore path).

        Args:
            entries: ``(vertex, roots)`` pairs as :meth:`reverse_index` lists
                them, read after every tree has been restored.

        Raises:
            ValueError: if a vertex is listed twice, or the map is not, as
                sets, the ``vertex -> roots`` membership of the trees.
        """
        recorded: Dict[Vertex, Dict[Vertex, None]] = {}
        for vertex, roots in entries:
            if vertex in recorded:
                raise ValueError("corrupt checkpoint: reverse index lists a vertex twice")
            recorded[vertex] = dict.fromkeys(roots)
        membership: Dict[Vertex, Set[Vertex]] = {}
        for root, tree in self._trees.items():
            for vertex in tree._vertex_degree:
                membership.setdefault(vertex, set()).add(root)
        if {vertex: set(roots) for vertex, roots in recorded.items()} != membership:
            raise ValueError(
                "corrupt checkpoint: reverse index disagrees with the vertices the trees hold"
            )
        self._vertex_to_roots = recorded

    # ------------------------------------------------------------------ #
    # Statistics (Figure 5 reports these)
    # ------------------------------------------------------------------ #

    @property
    def num_trees(self) -> int:
        """Number of spanning trees currently materialized."""
        return len(self._trees)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes across all spanning trees (including roots)."""
        return sum(len(tree) for tree in self._trees.values())

    def size_summary(self) -> Dict[str, int]:
        """Return ``{"trees": ..., "nodes": ...}`` for index-size reporting."""
        return {"trees": self.num_trees, "nodes": self.num_nodes}

    def __len__(self) -> int:
        return len(self._trees)

    def __str__(self) -> str:
        return f"TreeIndex(trees={self.num_trees}, nodes={self.num_nodes})"
