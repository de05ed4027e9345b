"""Memoized walk structures for repeated batch serving (the warm path).

Scoring a cohort through :class:`~repro.core.graph_base.RandomWalkRecommender`
spends a large share of its time *before* any sweep runs: slicing the
component-group submatrix out of the global adjacency, row-normalizing it,
building the user mask and the per-node entropy vector. Those structures
depend only on the (immutable) fitted graph and the component-group key —
never on the query — so a serving process that sees the same µ-subgraph
groups request after request is recomputing identical sparse matrices.

:class:`TransitionCache` memoizes them, and since the prepared-operator
refactor every entry carries a ready-to-solve
:class:`~repro.solver.WalkOperator`: the transition matrix is validated
exactly once when the entry is built, and every subsequent solve through the
operator skips validation, reuses the memoized cost vectors and label-indexed
reachability, and sweeps through chunked buffers. Every operator is built
with its entry's user mask over a users-first node order, so it is a
bipartite operator: its sweeps compute only the side the next step reads,
and its solves return the item rows only.

* :meth:`group` — the shared transition matrix (plus user mask, local
  component labels, item index maps, the entropy slice and the prepared
  operator) for a component-group key, as used by the grouped multi-RHS
  batch path;
* :meth:`bfs` — the µ-truncated BFS subgraph's node index and its prepared
  operator for a single query, keyed by (user, absorbing set, µ): the BFS
  expansion is deterministic, so a repeated query skips the traversal, the
  sparse slice, the normalization and the validation entirely. An entry
  keeps only the node order, its sorted inverse and the operator — the
  induced adjacency is dropped once the transition is built. The
  subgraph's nodes are laid out by kind (users, then items, each in BFS
  order), so the operator is bipartite like a group's;
* :attr:`node_entropy` — the full per-node entropy vector, computed once.

Entries are kept in an LRU dict bounded by ``max_entries``; hit/miss
counters feed the serving reports (`cache-hit stats` in
:class:`~repro.service.engine.ServingEngine`). Lookups are guarded by a lock,
because a :class:`~repro.service.server.BatchingServer`'s solve thread and
direct callers can resolve groups at the same time; a racing cold build can
run twice, but only one entry wins. The operators themselves are shared by
every such thread.

The cache assumes the graph and the entropy vector are frozen between
updates — the offline-fit / online-serve contract of the artifact layer.
When the incremental pipeline applies a
:class:`~repro.data.dataset.DatasetDelta`, :meth:`TransitionCache.apply_update`
rebinds the cache to the updated graph with **targeted invalidation**: only
entries whose component key intersects the touched components are evicted;
everything else — including the prepared operators and their splu factors —
stays warm, with eviction/retention counts surfaced in :meth:`stats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigError
from repro.graph.bipartite import GraphUpdate, UserItemGraph
from repro.graph.subgraph import NodeIndex, bfs_subgraph
from repro.solver import WalkOperator
from repro.utils.sparse import row_normalize, safe_divide_rows
from repro.utils.validation import check_positive_int

__all__ = ["TransitionGroup", "TransitionCache"]


@dataclass(frozen=True)
class TransitionGroup:
    """Warm walk structures shared by every query hitting one node group.

    Attributes
    ----------
    nodes:
        Parent-graph node indices of the group, sorted ascending (so users
        come first, then items).
    transition:
        Row-normalized transition matrix over ``nodes``.
    user_mask:
        Boolean per local node; True where the node is a user.
    labels:
        Connected-component id per local node.
    node_entropy:
        Entropy per local node (user entropy at user nodes, 0 at items).
    item_indices:
        Catalogue item index of each item node (the nodes after the user
        prefix, ``nodes[operator.n_users:]``), so of each row a solve
        returns.
    operator:
        The prepared :class:`~repro.solver.WalkOperator` over ``transition``
        — validated once at build time; all warm solves go through it.
    """

    nodes: np.ndarray
    transition: sp.csr_matrix
    user_mask: np.ndarray
    labels: np.ndarray
    node_entropy: np.ndarray
    item_indices: np.ndarray
    operator: WalkOperator


class TransitionCache:
    """LRU cache of prepared walk operators and structures for one graph.

    Parameters
    ----------
    graph:
        The fitted (immutable) user-item graph.
    node_entropy:
        Optional per-node entropy vector (length ``graph.n_nodes``); defaults
        to all zeros (HT/AT — only Absorbing Cost carries entropies).
    max_entries:
        Bound on cached component-group entries; least-recently-used entries
        are evicted beyond it.
    max_bfs_entries:
        Separate bound for per-query BFS entries. The two kinds live in
        separate LRUs so a churn of one-off truncated-BFS queries can never
        evict the heavily shared group transition matrices. A BFS entry is
        a ``(NodeIndex, WalkOperator)`` pair whose only sparse matrix is the
        operator's transition (about 4.2 MiB at µ = 6000 on a ~15k-node
        subgraph).
    """

    #: Key of the whole-graph pseudo-group used by global-graph scoring.
    GLOBAL_KEY = ("__global__",)

    def __init__(self, graph: UserItemGraph, node_entropy: np.ndarray | None = None,
                 max_entries: int = 256, max_bfs_entries: int = 256):
        self.graph = graph
        if node_entropy is None:
            node_entropy = np.zeros(graph.n_nodes)
        node_entropy = np.asarray(node_entropy, dtype=np.float64).ravel()
        if node_entropy.shape[0] != graph.n_nodes:
            raise ConfigError(
                f"node_entropy length {node_entropy.shape[0]} != n_nodes {graph.n_nodes}"
            )
        self.node_entropy = node_entropy
        self.max_entries = check_positive_int(max_entries, "max_entries")
        self.max_bfs_entries = check_positive_int(max_bfs_entries, "max_bfs_entries")
        self._groups: OrderedDict[tuple, TransitionGroup] = OrderedDict()  # guarded-by: cache._lock
        self._bfs: OrderedDict[tuple, tuple] = OrderedDict()  # guarded-by: cache._lock
        # Reentrant so stats() can aggregate via operator_stats()/len()
        # under one consistent snapshot.
        self._lock = threading.RLock()
        self.hits = 0  # guarded-by: cache._lock
        self.misses = 0  # guarded-by: cache._lock
        self.invalidated_groups = 0  # guarded-by: cache._lock
        self.invalidated_bfs = 0  # guarded-by: cache._lock
        self.retained_groups = 0  # guarded-by: cache._lock
        self.retained_bfs = 0  # guarded-by: cache._lock

    # -- generic LRU ---------------------------------------------------------

    def _get(self, entries: OrderedDict, key: tuple, builder, bound: int):
        with self._lock:
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        # Build outside the lock so a slow build never stalls another
        # thread's hit; a duplicate racing build is harmless (first writer
        # wins, the loser's entry is discarded).
        entry = builder()
        with self._lock:
            existing = entries.get(key)
            if existing is not None:
                entries.move_to_end(key)
                return existing
            entries[key] = entry
            while len(entries) > bound:
                entries.popitem(last=False)
        return entry

    # -- component-group transitions ----------------------------------------

    def group(self, components: tuple[int, ...] | None) -> TransitionGroup:
        """Warm structures for a component-group key.

        ``components`` is the sorted tuple of connected-component ids whose
        union forms the shared subgraph; ``None`` addresses the whole graph
        (the global-graph scoring mode), reusing the graph's own cached
        transition matrix.
        """
        if components is None:
            return self._get(self._groups, self.GLOBAL_KEY, self._build_global,
                             self.max_entries)
        key = ("group",) + tuple(int(c) for c in components)
        return self._get(self._groups, key,
                         lambda: self._build_group(key[1:]), self.max_entries)

    def _finish_group(self, nodes: np.ndarray, transition: sp.csr_matrix,
                      labels: np.ndarray) -> TransitionGroup:
        user_mask = nodes < self.graph.n_users
        node_entropy = self.node_entropy[nodes]
        # The one place a group matrix is validated: operator construction.
        operator = WalkOperator(
            transition, labels=labels, user_mask=user_mask,
            node_entropy=node_entropy,
            substochastic=self.graph.substochastic,
        )
        return TransitionGroup(
            nodes=nodes,
            transition=operator.transition,
            user_mask=user_mask,
            labels=labels,
            node_entropy=node_entropy,
            item_indices=nodes[operator.n_users:] - self.graph.n_users,
            operator=operator,
        )

    def _build_global(self) -> TransitionGroup:
        graph = self.graph
        nodes = np.arange(graph.n_nodes, dtype=np.int64)
        return self._finish_group(
            nodes, graph.transition_matrix(), graph.component_labels()
        )

    def _subgraph_transition(self, sub: sp.csr_matrix,
                             nodes: np.ndarray) -> sp.csr_matrix:
        """Transition rows for a node-sliced subgraph.

        Ordinary graphs renormalise over the surviving edges (a component
        slice loses none, so the result is exactly the global rows). A
        degree-true halo graph instead divides by the parent's degree vector
        — which already includes each node's cut-edge deficit — so boundary
        rows stay substochastic instead of inflating the surviving edges.
        """
        if self.graph.substochastic:
            return safe_divide_rows(sub, self.graph.degrees[nodes])
        return row_normalize(sub, allow_zero_rows=True)

    def _build_group(self, components: tuple[int, ...]) -> TransitionGroup:
        graph = self.graph
        labels = graph.component_labels()
        nodes = np.flatnonzero(np.isin(labels, np.array(components)))
        transition = self._subgraph_transition(
            graph.adjacency[nodes][:, nodes].tocsr(), nodes
        )
        return self._finish_group(nodes, transition, labels[nodes])

    # -- per-query BFS subgraphs --------------------------------------------

    def bfs(self, user: int, seed_items: np.ndarray, absorbing: np.ndarray,
            max_items: int) -> tuple[NodeIndex, WalkOperator]:
        """Memoized µ-truncated BFS subgraph as ``(node index, operator)``.

        The key covers everything the expansion depends on — the seed items,
        the absorbing set and the µ budget — so a repeated request for the
        same user is answered without touching the adjacency (or
        re-validating the transition) at all.

        An entry holds one sparse matrix, the operator's transition: the
        induced adjacency is dropped once the transition exists, and the
        parent → local map is the :class:`~repro.graph.subgraph.NodeIndex`'s
        sorted arrays, not a per-node dict. Both follow the subgraph's
        ``by_kind`` order, users then items, so the operator is bipartite
        and its solves return the item rows. When the BFS established that
        the subgraph is one connected piece, the operator gets a single
        component label, so reachability is a label lookup instead of a
        reversed-edge Dijkstra per absorbing set; any other subgraph keeps
        the label-less operator.
        """
        key = ("bfs", int(user), int(max_items),
               seed_items.tobytes(), absorbing.tobytes())

        def build():
            sub = bfs_subgraph(self.graph, seed_items, max_items)
            nodes = sub.by_kind.nodes
            operator = WalkOperator(
                self._subgraph_transition(sub.adjacency, nodes),
                labels=(np.zeros(nodes.size, dtype=np.int8)
                        if sub.connected else None),
                user_mask=nodes < self.graph.n_users,
                node_entropy=self.node_entropy[nodes],
                substochastic=self.graph.substochastic,
            )
            return (sub.by_kind, operator)

        return self._get(self._bfs, key, build, self.max_bfs_entries)

    # -- incremental updates --------------------------------------------------

    def apply_update(self, update: GraphUpdate,
                     node_entropy: np.ndarray | None = None) -> dict:
        """Rebind the cache to an updated graph, evicting only what changed.

        ``update`` comes from :meth:`UserItemGraph.apply_delta`; its
        ``touched_components`` are exactly the component labels whose walk
        structure the events altered (labels of untouched components are
        stable across the update, by the graph layer's contract). Targeted
        invalidation:

        * group entries whose component key intersects the touched set are
          evicted, as is the whole-graph pseudo-group (any event changes the
          global transition matrix); every other group entry stays **warm**
          — its transition matrix, prepared operator (validation, memoized
          plans, splu factors) and entropy slice are untouched by
          construction. When users were appended, retained entries get their
          parent ``nodes`` remapped (item node = ``n_users + item`` shifts);
          everything local to the subgraph is index-stable.
        * BFS entries are per-query: evicted when their subgraph touches an
          invalidated component — or wholesale when users were appended,
          because their keys embed absorbing *node* ids that shifted (a
          remapped entry could never be hit again).

        ``node_entropy`` is the per-node entropy over the *new* graph
        (defaults to zeros). Callers guarantee entropies of untouched users
        are unchanged — true for the recommenders using this cache, whose
        per-user entropies depend only on the user's own (untouched)
        ratings. Returns the eviction/retention counts of this update.
        """
        if not isinstance(update, GraphUpdate):
            raise ConfigError(
                f"apply_update expects a GraphUpdate; got {type(update).__name__}"
            )
        new_graph = update.graph
        if node_entropy is None:
            node_entropy = np.zeros(new_graph.n_nodes)
        node_entropy = np.asarray(node_entropy, dtype=np.float64).ravel()
        if node_entropy.shape[0] != new_graph.n_nodes:
            raise ConfigError(
                f"node_entropy length {node_entropy.shape[0]} != n_nodes "
                f"{new_graph.n_nodes}"
            )
        touched = set(int(c) for c in update.touched_components)
        user_shift = update.n_new_users
        old_n_users = self.graph.n_users
        old_labels = self.graph.component_labels()
        counts = {"invalidated_groups": 0, "retained_groups": 0,
                  "invalidated_bfs": 0, "retained_bfs": 0}
        with self._lock:
            groups: OrderedDict[tuple, TransitionGroup] = OrderedDict()
            for key, entry in self._groups.items():
                if key == self.GLOBAL_KEY or touched.intersection(key[1:]):
                    counts["invalidated_groups"] += 1
                    continue
                if user_shift:
                    nodes = np.where(entry.nodes < old_n_users,
                                     entry.nodes, entry.nodes + user_shift)
                    entry = TransitionGroup(
                        nodes=nodes,
                        transition=entry.transition,
                        user_mask=entry.user_mask,
                        labels=entry.labels,
                        node_entropy=entry.node_entropy,
                        item_indices=entry.item_indices,
                        operator=entry.operator,
                    )
                groups[key] = entry
                counts["retained_groups"] += 1
            self._groups = groups

            bfs: OrderedDict[tuple, tuple] = OrderedDict()
            for key, (index, operator) in self._bfs.items():
                if user_shift or touched.intersection(
                        int(c) for c in np.unique(old_labels[index.nodes])):
                    counts["invalidated_bfs"] += 1
                    continue
                bfs[key] = (index, operator)
                counts["retained_bfs"] += 1
            self._bfs = bfs

            self.graph = new_graph
            self.node_entropy = node_entropy
            self.invalidated_groups += counts["invalidated_groups"]
            self.retained_groups += counts["retained_groups"]
            self.invalidated_bfs += counts["invalidated_bfs"]
            self.retained_bfs += counts["retained_bfs"]
        return counts

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._groups) + len(self._bfs)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def operator_stats(self) -> dict:
        """Aggregate counters across every cached prepared operator.

        ``validations`` equals the number of operators built — the
        zero-revalidation contract: serving a cached group any number of
        times never increments it.
        """
        with self._lock:  # snapshot: other threads may be inserting
            operators = [entry.operator for entry in self._groups.values()]
            operators += [op for _, op in self._bfs.values()]
        stats = [op.stats() for op in operators]
        counters = ("validations", "solves", "columns_solved", "plan_hits",
                    "plan_misses")
        return {"operators": len(operators),
                **{name: sum(s[name] for s in stats) for name in counters}}

    def stats(self) -> dict:
        """Counters for serving reports (one consistent snapshot)."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        stats = {
            "entries": len(self),
            "group_entries": len(self._groups),
            "bfs_entries": len(self._bfs),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "invalidated_groups": self.invalidated_groups,
            "invalidated_bfs": self.invalidated_bfs,
            "retained_groups": self.retained_groups,
            "retained_bfs": self.retained_bfs,
        }
        operator = self.operator_stats()
        stats["operator_validations"] = operator["validations"]
        stats["operator_solves"] = operator["solves"]
        return stats

    def clear(self) -> None:
        with self._lock:
            self._groups.clear()
            self._bfs.clear()
            self.hits = 0
            self.misses = 0
            self.invalidated_groups = 0
            self.invalidated_bfs = 0
            self.retained_groups = 0
            self.retained_bfs = 0

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"TransitionCache(group_entries={len(self._groups)}, "
                f"bfs_entries={len(self._bfs)}, hits={self.hits}, "
                f"misses={self.misses}, max_entries={self.max_entries})"
            )
