"""BFS subgraph extraction around an absorbing set (Algorithm 1, step 2).

The paper scales Absorbing Time/Cost to large graphs by restricting the
computation to a local subgraph: a breadth-first search grows outward from
the query user's rated items ``S_q`` and stops expanding once the subgraph
holds more than ``µ`` item nodes. The walk is then run on the induced
subgraph only; items outside it are never recommended (conceptually at
``+inf`` time).

The search runs level-synchronously: each step gathers the whole
frontier's CSR neighbour lists at once, in frontier order, instead of
popping one node per Python iteration. The graph is bipartite, so every
level is all users or all items, and only item levels spend the budget.
The node order is exactly that of the classical FIFO queue search, which
the tests keep as the reference.

The induced adjacency is laid out by kind instead: users in BFS order,
then items in BFS order. Seeds are items, so that is the odd levels, then
the even ones. A bipartite :class:`~repro.solver.WalkOperator` needs users
first, and building the slice in that order costs nothing, where permuting
a finished matrix would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.bipartite import UserItemGraph
from repro.utils.validation import as_index_array, check_positive_int

__all__ = ["LocalSubgraph", "NodeIndex", "bfs_subgraph"]


@dataclass(frozen=True)
class NodeIndex:
    """Parent-graph nodes in local order, with an array-backed inverse.

    Attributes
    ----------
    nodes:
        Parent-graph node indices in local order (``nodes[k]`` is the
        parent node of local node ``k``).
    sorted_nodes:
        ``nodes`` sorted ascending: the search keys of the inverse map.
    sorted_local:
        Local index of each ``sorted_nodes`` entry.
    parent_users:
        The parent graph's user count when these ids were taken: a node
        below it is a user, any other is item ``node - parent_users``.
    """

    nodes: np.ndarray
    sorted_nodes: np.ndarray
    sorted_local: np.ndarray
    parent_users: int

    @classmethod
    def of(cls, nodes: np.ndarray, parent_users: int) -> "NodeIndex":
        nodes = np.asarray(nodes, dtype=np.int64)
        order = np.argsort(nodes)
        return cls(nodes=nodes, sorted_nodes=nodes[order],
                   sorted_local=order.astype(np.int32),
                   parent_users=int(parent_users))

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def locate(self, parent_nodes) -> np.ndarray:
        """Local index of each parent node, ``-1`` where it is absent."""
        parent_nodes = np.atleast_1d(np.asarray(parent_nodes, dtype=np.int64))
        keys = self.sorted_nodes
        if keys.size == 0:
            return np.full(parent_nodes.shape, -1, dtype=np.int64)
        slots = keys.searchsorted(parent_nodes)
        np.minimum(slots, keys.size - 1, out=slots)
        local = self.sorted_local[slots].astype(np.int64)
        local[keys[slots] != parent_nodes] = -1
        return local

    def to_local(self, parent_nodes) -> np.ndarray:
        """Map parent node indices to local indices (GraphError if absent)."""
        parent_nodes = np.atleast_1d(np.asarray(parent_nodes, dtype=np.int64))
        local = self.locate(parent_nodes)
        missing = np.flatnonzero(local < 0)
        if missing.size:
            raise GraphError(
                f"node {int(parent_nodes[missing[0]])} is not in the subgraph"
            )
        return local

    def contains(self, parent_node: int) -> bool:
        return bool(self.locate(int(parent_node))[0] >= 0)

    def shifted(self, shift: int) -> "NodeIndex":
        """The same local order after ``shift`` users were appended to the
        parent graph: every item node moves up by ``shift``.

        Moving a suffix of the node ids up keeps their sort order, so
        ``sorted_local`` is unchanged, and an index that is its own
        inverse (``sorted_nodes is nodes``) stays one.
        """
        def move(nodes: np.ndarray) -> np.ndarray:
            return np.where(nodes < self.parent_users, nodes, nodes + shift)

        nodes = move(self.nodes)
        sorted_nodes = (nodes if self.sorted_nodes is self.nodes
                        else move(self.sorted_nodes))
        return NodeIndex(nodes=nodes, sorted_nodes=sorted_nodes,
                         sorted_local=self.sorted_local,
                         parent_users=self.parent_users + shift)

    def reordered(self, order: np.ndarray) -> "NodeIndex":
        """The same nodes in local order ``nodes[order]``, without a sort."""
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        return NodeIndex(nodes=self.nodes[order],
                         sorted_nodes=self.sorted_nodes,
                         sorted_local=rank[self.sorted_local],
                         parent_users=self.parent_users)


@dataclass(frozen=True)
class LocalSubgraph:
    """An induced subgraph with mappings back to the parent graph.

    Attributes
    ----------
    index:
        The :class:`NodeIndex` of the subgraph: its parent nodes in BFS
        order and the sorted inverse that :meth:`to_local` searches.
    by_kind:
        The same nodes by kind: users in BFS order, then items in BFS
        order. This is the local order of ``adjacency``.
    adjacency:
        Induced weighted adjacency over ``by_kind.nodes``.
    n_local_items:
        Number of item nodes included.
    connected:
        True when the search established that the subgraph is one
        connected piece (some first-level user is adjacent to every
        seed). False means *not established*, not *disconnected*.
    """

    index: NodeIndex
    by_kind: NodeIndex
    adjacency: sp.csr_matrix
    n_local_items: int
    connected: bool

    @property
    def nodes(self) -> np.ndarray:
        return self.index.nodes

    @property
    def n_nodes(self) -> int:
        return self.index.n_nodes

    def to_local(self, parent_nodes) -> np.ndarray:
        """Map parent node indices to local indices (GraphError if absent)."""
        return self.index.to_local(parent_nodes)

    def contains(self, parent_node: int) -> bool:
        return self.index.contains(parent_node)


def _first_occurrences(values: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Unvisited ``values`` without repeats, each kept at its first position.

    ``stamp`` is a per-node scratch array: ``-1`` at visited nodes and a
    value no position reaches elsewhere. ``np.minimum.at`` leaves each
    unvisited node's first position in it and a visited node's ``-1``, so
    one pass drops repeats and visited nodes together, with no sort. The
    caller stamps the kept nodes ``-1`` once it visits them (or stops), so
    no node is stamped with a position twice.
    """
    positions = np.arange(values.size, dtype=stamp.dtype)
    np.minimum.at(stamp, values, positions)
    return values[stamp[values] == positions]


def bfs_subgraph(graph: UserItemGraph, seed_items: np.ndarray,
                 max_items: int = 6000) -> LocalSubgraph:
    """Grow a local subgraph from ``seed_items`` by breadth-first search.

    Expansion proceeds in breadth-first queue order (items → their raters →
    the raters' other items → …) and stops the moment the included item
    count exceeds ``max_items`` (the paper's µ: "the search stops when the
    number of item nodes in the subgraph is larger than a predefined
    number"). Stopping mid-level makes µ a hard budget — exactly what gives
    the Absorbing Time/Cost methods their locality at scale (items far from
    :math:`S_q` never enter the candidate set). Seeds are always included,
    even if there are more than ``max_items`` of them (the search then
    stops at the seeds); a repeated seed counts once, at its first
    position.

    Each level is one vectorised step: gather the frontier's neighbour
    lists in frontier order, drop visited nodes, keep each node's first
    occurrence and, on an item level, cut at the remaining budget. The
    result is the FIFO queue search's node order, element for element:
    seeds first, then each level in discovery order. The adjacency is
    sliced in kind order (``by_kind``) directly.

    Parameters
    ----------
    graph:
        The global user-item graph.
    seed_items:
        Item indices of the absorbing set :math:`S_q`.
    max_items:
        The µ parameter (paper default 6000).
    """
    max_items = check_positive_int(max_items, "max_items")
    seed_items = as_index_array(seed_items, graph.n_items, "seed_items")
    if seed_items.size == 0:
        raise GraphError("seed_items is empty; cannot anchor the subgraph")

    adjacency = graph.adjacency
    stamp = np.full(graph.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    seeds = _first_occurrences(graph.item_nodes(seed_items), stamp)
    stamp[seeds] = -1
    levels = [seeds]
    n_items = seeds.size
    connected = seeds.size == 1

    frontier = seeds if n_items <= max_items else seeds[:0]
    items_level = False  # seeds are items, so the first level holds users
    while frontier.size:
        # scipy's row kernel: the neighbour lists in frontier order.
        found = adjacency[frontier].indices
        if len(levels) == 1 and not connected and found.size:
            # Every later node hangs off a seed by its discovery edge, so
            # a first-level user adjacent to every seed makes the whole
            # subgraph one piece. Counting neighbour-list entries counts
            # distinct seeds only when the CSR has no repeated entries.
            connected = bool(adjacency.has_canonical_format
                             and np.bincount(found).max() == seeds.size)
        found = _first_occurrences(found, stamp)
        exhausted = False
        if items_level:
            remaining = max_items - n_items
            if found.size > remaining:
                found, exhausted = found[:remaining], True
            n_items += found.size
        stamp[found] = -1
        levels.append(found.astype(np.int64, copy=False))
        if exhausted:
            break
        frontier = found
        items_level = not items_level

    # Levels alternate kinds, seeds (items) first: users are the odd levels.
    bounds = np.cumsum([0] + [level.size for level in levels])
    spans = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    index = NodeIndex.of(np.concatenate(levels), graph.n_users)
    by_kind = index.reordered(np.concatenate(spans[1::2] + spans[0::2]))
    induced = adjacency[by_kind.nodes][:, by_kind.nodes].tocsr()
    return LocalSubgraph(
        index=index,
        by_kind=by_kind,
        adjacency=induced,
        n_local_items=n_items,
        connected=connected,
    )
