"""Memoized walk structures for repeated batch serving (the warm path).

Scoring a cohort through :class:`~repro.core.graph_base.RandomWalkRecommender`
spends a large share of its time *before* any sweep runs: slicing the
subgraph's submatrix out of the global adjacency, row-normalizing it and
validating it. Those structures depend only on the (immutable) fitted graph
and the subgraph's key — never on the rest of the query — so a serving
process that sees the same subgraphs request after request would otherwise
recompute identical sparse matrices.

:class:`TransitionCache` memoizes them as :class:`WalkEntry` pairs
``(index, operator)``: the subgraph's
:class:`~repro.graph.subgraph.NodeIndex` (parent nodes in local order, users
first, plus the sorted inverse that maps an absorbing set to local
positions) and a ready-to-solve :class:`~repro.solver.WalkOperator`. The
operator validates its transition exactly once, when the entry is built,
and every later solve skips validation, reuses the memoized cost vectors
and label-indexed reachability, and sweeps through chunked buffers. Every
operator is built with its entry's user mask over a users-first node order,
so it is a bipartite operator: its sweeps compute only the side the next
step reads, and its solves return the item rows only. Both kinds of entry
have that one shape:

* :meth:`group` — the shared subgraph of a component-group key (or the
  whole graph), as used by the grouped multi-RHS batch path. Its nodes are
  sorted ascending, so the index is its own inverse;
* :meth:`bfs` — the µ-truncated BFS subgraph of a single query, keyed by
  (user, absorbing set, µ): the BFS expansion is deterministic, so a
  repeated query skips the traversal, the sparse slice, the normalization
  and the validation entirely. The induced adjacency is dropped once the
  transition is built. The subgraph's nodes are laid out by kind (users,
  then items, each in BFS order), so the operator is bipartite like a
  group's;
* :attr:`node_entropy` — the full per-node entropy vector, computed once.

Entries are kept in two LRU dicts, one per kind, bounded by ``max_entries``
and ``max_bfs_entries``; hit/miss counters feed the serving reports
(`cache-hit stats` in :class:`~repro.service.engine.ServingEngine`). Lookups
pick the LRU under a lock, because a
:class:`~repro.service.server.BatchingServer`'s solve thread and direct
callers can resolve entries at the same time; a racing cold build can run
twice, but only one entry wins. The operators themselves are shared by
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
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigError
from repro.graph.bipartite import GraphUpdate, UserItemGraph
from repro.graph.subgraph import NodeIndex, bfs_subgraph
from repro.solver import WalkOperator
from repro.utils.sparse import row_normalize, safe_divide_rows
from repro.utils.validation import check_positive_int

__all__ = ["TransitionCache", "WalkEntry"]


class WalkEntry(NamedTuple):
    """One cached subgraph, ready to solve.

    Attributes
    ----------
    index:
        Parent-graph nodes in local order (users first, then items) and
        their sorted inverse; ``index.locate`` maps an absorbing set to
        local positions, and ``index.nodes[operator.n_users:]`` are the
        item nodes of the rows a solve returns (item
        ``node - index.parent_users``).
    operator:
        The prepared :class:`~repro.solver.WalkOperator` over the
        subgraph's transition — validated once at build time; all warm
        solves go through it.
    """

    index: NodeIndex
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
        evict the heavily shared group transition matrices. A BFS entry's
        only sparse matrix is the operator's transition (about 4.2 MiB at
        µ = 6000 on a ~15k-node subgraph).
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
        self._groups: OrderedDict[tuple, WalkEntry] = OrderedDict()  # guarded-by: cache._lock
        self._bfs: OrderedDict[tuple, WalkEntry] = OrderedDict()  # guarded-by: cache._lock
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

    def _lru_locked(self, key: tuple) -> tuple[OrderedDict, int]:
        """The LRU holding ``key``'s kind of entry, and its bound."""
        if key[0] == "bfs":
            return self._bfs, self.max_bfs_entries
        return self._groups, self.max_entries

    def _get(self, key: tuple, builder) -> WalkEntry:
        with self._lock:
            entries, bound = self._lru_locked(key)
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            # apply_update rebinds both under this lock; the entry is
            # built from one consistent pair.
            graph, node_entropy = self.graph, self.node_entropy
        # Build outside the lock so a slow build never stalls another
        # thread's hit; a duplicate racing build is harmless (first writer
        # wins, the loser's entry is discarded).
        entry = builder(graph, node_entropy)
        with self._lock:
            if self._lru_locked(key)[0] is not entries:
                # apply_update rebound the LRU while this entry was being
                # built from the old graph: it serves this call only, and
                # its index keeps the old graph's ids and user count.
                return entry
            existing = entries.get(key)
            if existing is not None:
                entries.move_to_end(key)
                return existing
            entries[key] = entry
            while len(entries) > bound:
                entries.popitem(last=False)
        return entry

    @staticmethod
    def _entry(graph: UserItemGraph, node_entropy: np.ndarray, index: NodeIndex,
               transition: sp.csr_matrix, labels: np.ndarray | None) -> WalkEntry:
        nodes = index.nodes
        # The one place an entry's matrix is validated: operator construction.
        return WalkEntry(index, WalkOperator(
            transition, labels=labels, user_mask=nodes < index.parent_users,
            node_entropy=node_entropy[nodes],
            substochastic=graph.substochastic,
        ))

    @staticmethod
    def _subgraph_transition(graph: UserItemGraph, sub: sp.csr_matrix,
                             nodes: np.ndarray) -> sp.csr_matrix:
        """Transition rows for a node-sliced subgraph.

        Ordinary graphs renormalise over the surviving edges (a component
        slice loses none, so the result is exactly the global rows). A
        degree-true halo graph instead divides by the parent's degree vector
        — which already includes each node's cut-edge deficit — so boundary
        rows stay substochastic instead of inflating the surviving edges.
        """
        if graph.substochastic:
            return safe_divide_rows(sub, graph.degrees[nodes])
        return row_normalize(sub, allow_zero_rows=True)

    # -- component groups ----------------------------------------------------

    def group(self, components: tuple[int, ...] | None) -> WalkEntry:
        """The shared subgraph of a component-group key.

        ``components`` is the sorted tuple of connected-component ids whose
        union forms the shared subgraph; ``None`` addresses the whole graph
        (the global-graph scoring mode), reusing the graph's own cached
        transition matrix. The entry's nodes are sorted ascending, so users
        come first and the index is its own inverse.
        """
        if components is None:
            key = self.GLOBAL_KEY
        else:
            key = ("group",) + tuple(int(c) for c in components)
        return self._get(key, lambda graph, node_entropy: self._build_group(
            graph, node_entropy, components))

    def _build_group(self, graph: UserItemGraph, node_entropy: np.ndarray,
                     components: tuple[int, ...] | None) -> WalkEntry:
        labels = graph.component_labels()
        if components is None:
            nodes = np.arange(graph.n_nodes, dtype=np.int64)
            transition = graph.transition_matrix()
        else:
            nodes = np.flatnonzero(np.isin(labels, np.array(components)))
            transition = self._subgraph_transition(
                graph, graph.adjacency[nodes][:, nodes].tocsr(), nodes
            )
            labels = labels[nodes]
        index = NodeIndex(nodes=nodes, sorted_nodes=nodes,
                          sorted_local=np.arange(nodes.size, dtype=np.int32),
                          parent_users=graph.n_users)
        return self._entry(graph, node_entropy, index, transition, labels)

    # -- per-query BFS subgraphs --------------------------------------------

    def bfs(self, user: int, seed_items: np.ndarray, absorbing: np.ndarray,
            max_items: int) -> WalkEntry:
        """Memoized µ-truncated BFS subgraph of one query.

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

        def build(graph, node_entropy):
            sub = bfs_subgraph(graph, seed_items, max_items)
            index = sub.by_kind
            labels = (np.zeros(index.n_nodes, dtype=np.int8)
                      if sub.connected else None)
            transition = self._subgraph_transition(graph, sub.adjacency,
                                                   index.nodes)
            return self._entry(graph, node_entropy, index, transition, labels)

        return self._get(key, build)

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
          — its prepared operator (validation, transition, reachability
          memo, splu factors, entropy slice) is untouched by construction.
          When users were appended, a retained entry's index is shifted
          (item node = ``n_users + item`` moves up by the new-user count,
          which keeps the sort order); everything local to the subgraph is
          index-stable.
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
        old_labels = self.graph.component_labels()
        counts = {"invalidated_groups": 0, "retained_groups": 0,
                  "invalidated_bfs": 0, "retained_bfs": 0}
        with self._lock:
            groups: OrderedDict[tuple, WalkEntry] = OrderedDict()
            for key, entry in self._groups.items():
                if key == self.GLOBAL_KEY or touched.intersection(key[1:]):
                    counts["invalidated_groups"] += 1
                    continue
                if user_shift:
                    entry = entry._replace(
                        index=entry.index.shifted(user_shift))
                groups[key] = entry
                counts["retained_groups"] += 1
            self._groups = groups

            bfs: OrderedDict[tuple, WalkEntry] = OrderedDict()
            for key, entry in self._bfs.items():
                if user_shift or touched.intersection(
                        int(c) for c in np.unique(old_labels[entry.index.nodes])):
                    counts["invalidated_bfs"] += 1
                    continue
                bfs[key] = entry
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
            operators += [entry.operator for entry in self._bfs.values()]
        stats = [op.stats() for op in operators]
        counters = ("validations", "solves", "columns_solved")
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
