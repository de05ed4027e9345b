"""Unit tests for the BFS subgraph extraction (Algorithm 1, step 2).

The level-synchronous search must reproduce the FIFO queue search node for
node; :func:`reference_bfs` keeps that queue search as the oracle, and the
recommenders' per-user rows on the µ-truncated path are checked bit for bit
against a reference path built from it and the plain τ-sweep loop.
"""

from collections import deque

import numpy as np
import pytest

from repro import (
    AbsorbingCostRecommender,
    AbsorbingTimeRecommender,
    HittingTimeRecommender,
)
from repro.data.synthetic import giant_component
from repro.exceptions import GraphError
from repro.graph.bipartite import UserItemGraph
from repro.graph.cache import TransitionCache
from repro.graph.subgraph import bfs_subgraph
from repro.solver import WalkOperator
from repro.utils.sparse import row_normalize
from test_absorbing import iteration_history, reachability_mask


def reference_bfs(graph, seed_items, max_items):
    """FIFO queue search, one node per iteration: ``(nodes, n_items)``.

    The oracle for :func:`bfs_subgraph`'s node order; ``seed_items`` must
    be distinct.
    """
    adjacency = graph.adjacency
    visited = np.zeros(graph.n_nodes, dtype=bool)
    order = []
    n_items = 0
    queue = deque()
    for node in graph.item_nodes(seed_items):
        node = int(node)
        visited[node] = True
        order.append(node)
        queue.append(node)
        n_items += 1
    exhausted = n_items > max_items
    while queue and not exhausted:
        node = queue.popleft()
        lo, hi = adjacency.indptr[node], adjacency.indptr[node + 1]
        for neighbor in adjacency.indices[lo:hi]:
            neighbor = int(neighbor)
            if visited[neighbor]:
                continue
            if graph.is_item_node(neighbor):
                if n_items >= max_items:
                    exhausted = True
                    break
                n_items += 1
            visited[neighbor] = True
            order.append(neighbor)
            queue.append(neighbor)
    return np.array(order, dtype=np.int64), n_items


@pytest.fixture(scope="module")
def giant_half():
    return giant_component(0.5, seed=0)


def _dataset(request, name):
    if name == "medium_synth":
        return request.getfixturevalue(name).dataset
    return request.getfixturevalue(name)


def _seed_sets(dataset):
    """Each of the first few users' rated items, plus two items from
    opposite ends of the catalogue."""
    sets = [dataset.items_of_user(user)
            for user in range(min(4, dataset.n_users))]
    sets.append(np.array([0, dataset.n_items - 1]))
    return [seeds for seeds in sets if seeds.size]


def _budgets(seeds, n_items):
    size = seeds.size
    return sorted({1, max(size - 1, 1), size, size + 1, 5, n_items + 1})


class TestBfsSubgraph:
    def test_large_budget_covers_component(self, fig2):
        graph = UserItemGraph(fig2)
        sub = bfs_subgraph(graph, np.array([0]), max_items=100)
        assert sub.n_nodes == graph.n_nodes  # fig2 graph is connected

    def test_budget_limits_items(self, medium_synth):
        graph = UserItemGraph(medium_synth.dataset)
        seeds = medium_synth.dataset.items_of_user(0)
        sub = bfs_subgraph(graph, seeds, max_items=30)
        n_items = int(np.sum(sub.nodes >= graph.n_users))
        assert n_items <= max(30, seeds.size)
        assert sub.n_local_items == n_items

    def test_seeds_always_included(self, medium_synth):
        graph = UserItemGraph(medium_synth.dataset)
        seeds = medium_synth.dataset.items_of_user(0)
        sub = bfs_subgraph(graph, seeds, max_items=1)
        for node in graph.item_nodes(seeds):
            assert sub.contains(int(node))

    def test_induced_adjacency_matches_parent(self, fig2):
        graph = UserItemGraph(fig2)
        sub = bfs_subgraph(graph, np.array([0, 1]), max_items=100)
        dense = graph.adjacency.toarray()
        nodes = sub.by_kind.nodes  # the adjacency's local order
        for i_local, i_parent in enumerate(nodes):
            for j_local, j_parent in enumerate(nodes):
                assert sub.adjacency[i_local, j_local] == dense[i_parent, j_parent]

    @pytest.mark.parametrize("budget", [1, 5, 40])
    def test_by_kind_is_users_then_items_in_bfs_order(self, medium_synth,
                                                      budget):
        graph = UserItemGraph(medium_synth.dataset)
        sub = bfs_subgraph(graph, medium_synth.dataset.items_of_user(0),
                           budget)
        is_user = sub.nodes < graph.n_users
        np.testing.assert_array_equal(
            sub.by_kind.nodes,
            np.concatenate([sub.nodes[is_user], sub.nodes[~is_user]]))
        np.testing.assert_array_equal(
            sub.by_kind.to_local(sub.by_kind.nodes),
            np.arange(sub.n_nodes))
        np.testing.assert_array_equal(
            sub.by_kind.sorted_nodes, sub.index.sorted_nodes)

    def test_stays_within_component(self, disconnected):
        graph = UserItemGraph(disconnected)
        sub = bfs_subgraph(graph, np.array([0]), max_items=100)
        component = set(graph.component_of(graph.item_node(0)).tolist())
        assert set(sub.nodes.tolist()) <= component

    def test_to_local_round_trip(self, fig2):
        graph = UserItemGraph(fig2)
        sub = bfs_subgraph(graph, np.array([2]), max_items=100)
        parents = sub.nodes[:4]
        locals_ = sub.to_local(parents)
        np.testing.assert_array_equal(sub.nodes[locals_], parents)

    def test_to_local_missing_node(self, medium_synth):
        graph = UserItemGraph(medium_synth.dataset)
        sub = bfs_subgraph(graph, np.array([0]), max_items=1)
        missing = [n for n in range(graph.n_nodes) if not sub.contains(n)]
        assert missing, "budget 1 must exclude something"
        with pytest.raises(GraphError, match="not in the subgraph"):
            sub.to_local([missing[0]])

    def test_empty_seeds_rejected(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(GraphError, match="empty"):
            bfs_subgraph(graph, np.array([], dtype=int))

    def test_out_of_range_seed_rejected(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(Exception):
            bfs_subgraph(graph, np.array([99]))

    def test_every_node_connected_inside(self, medium_synth):
        """Each included node keeps at least one edge inside the subgraph
        (its BFS discovery edge), so no spurious isolated rows appear."""
        graph = UserItemGraph(medium_synth.dataset)
        seeds = medium_synth.dataset.items_of_user(1)
        sub = bfs_subgraph(graph, seeds, max_items=25)
        degrees = np.asarray(sub.adjacency.sum(axis=1)).ravel()
        assert np.all(degrees > 0)

    def test_growing_budget_nested(self, medium_synth):
        graph = UserItemGraph(medium_synth.dataset)
        seeds = medium_synth.dataset.items_of_user(2)
        small = bfs_subgraph(graph, seeds, max_items=10)
        large = bfs_subgraph(graph, seeds, max_items=60)
        assert set(small.nodes.tolist()) <= set(large.nodes.tolist())

    def test_duplicate_seeds_count_once(self):
        graph = UserItemGraph(giant_component(1, seed=0))
        repeated = bfs_subgraph(graph, [0, 0, 5], 50)
        distinct = bfs_subgraph(graph, [0, 5], 50)
        assert np.unique(repeated.nodes).size == repeated.n_nodes
        np.testing.assert_array_equal(repeated.nodes, distinct.nodes)
        assert repeated.n_local_items == distinct.n_local_items
        assert repeated.adjacency.shape == distinct.adjacency.shape
        assert (repeated.adjacency != distinct.adjacency).nnz == 0

    def test_repeated_seed_keeps_first_position(self, fig2):
        graph = UserItemGraph(fig2)
        sub = bfs_subgraph(graph, [3, 1, 3, 1, 0], max_items=100)
        np.testing.assert_array_equal(sub.nodes[:3], graph.item_nodes([3, 1, 0]))

    def test_user_rated_seeds_are_connected(self, medium_synth):
        dataset = medium_synth.dataset
        graph = UserItemGraph(dataset)
        for user in range(5):
            sub = bfs_subgraph(graph, dataset.items_of_user(user), 20)
            assert sub.connected

    def test_seeds_in_two_components_not_connected(self, disconnected):
        graph = UserItemGraph(disconnected)
        labels = graph.component_labels()
        first, second = graph.item_nodes([0, 3])
        assert labels[first] != labels[second]
        assert not bfs_subgraph(graph, [0, 3], 100).connected
        assert bfs_subgraph(graph, [0], 100).connected

    def test_more_seeds_than_budget_stop_at_the_seeds(self, fig2):
        graph = UserItemGraph(fig2)
        sub = bfs_subgraph(graph, [0, 1, 2], max_items=2)
        np.testing.assert_array_equal(sub.nodes, graph.item_nodes([0, 1, 2]))
        assert sub.n_local_items == 3
        assert not sub.connected  # no edges among the seeds


@pytest.mark.parametrize("name", ["fig2", "medium_synth", "disconnected",
                                  "giant_half"])
def test_node_order_matches_queue_search(request, name):
    dataset = _dataset(request, name)
    graph = UserItemGraph(dataset)
    for seeds in _seed_sets(dataset):
        for budget in _budgets(seeds, dataset.n_items):
            nodes, n_items = reference_bfs(graph, seeds, budget)
            sub = bfs_subgraph(graph, seeds, budget)
            np.testing.assert_array_equal(
                sub.nodes, nodes, err_msg=f"{name} µ={budget} seeds={seeds}")
            assert sub.n_local_items == n_items
            np.testing.assert_array_equal(
                sub.to_local(nodes), np.arange(nodes.size))


class TestReachability:
    """The BFS operator's reachability equals a label-less operator's."""

    @staticmethod
    def _label_less(sub):
        return WalkOperator(
            row_normalize(sub.adjacency, allow_zero_rows=True))

    @pytest.mark.parametrize("name,seeds", [
        ("medium_synth", None), ("giant_half", None),
        ("disconnected", [0, 3]), ("disconnected", [1]),
    ])
    def test_columns_match_dijkstra(self, request, name, seeds):
        dataset = _dataset(request, name)
        graph = UserItemGraph(dataset)
        if seeds is None:
            seeds = dataset.items_of_user(0)
        seeds = np.asarray(seeds)
        cache = TransitionCache(graph)
        for budget in (1, 4, dataset.n_items + 1):
            absorbing = graph.item_nodes(seeds)
            index, operator = cache.bfs(0, seeds, absorbing, budget)
            sub = bfs_subgraph(graph, seeds, budget)
            assert (operator.labels is not None) == sub.connected
            reference = self._label_less(sub)
            step = max(1, index.n_nodes // 40)  # ~40 single-node sets
            sets = [index.to_local(absorbing)]
            sets += [np.array([k]) for k in range(0, index.n_nodes, step)]
            np.testing.assert_array_equal(
                operator.reachable_columns(sets),
                reference.reachable_columns(sets))

    def test_two_component_seeds_keep_label_less_operator(self, disconnected):
        graph = UserItemGraph(disconnected)
        seeds = np.array([0, 3])
        index, operator = TransitionCache(graph).bfs(
            0, seeds, graph.item_nodes(seeds), 100)
        assert operator.labels is None
        # Each seed reaches only its own block.
        column = operator.reachable_columns([index.to_local(
            graph.item_nodes([0]))])[:, 0]
        labels = graph.component_labels()
        np.testing.assert_array_equal(
            column, labels[index.nodes] == labels[graph.item_node(0)])


def _reference_row(recommender, user):
    """One user's µ-truncated row through the queue-search subgraph, in
    queue order, and the plain τ-sweep loop over every node (reversed-edge
    Dijkstra reachability)."""
    graph = recommender.graph
    absorbing = recommender._absorbing_nodes(user)
    seeds = recommender._subgraph_seed_items(user, absorbing)
    nodes, _ = reference_bfs(graph, seeds, recommender.subgraph_size)
    local_index = {int(p): k for k, p in enumerate(nodes)}
    p = row_normalize(graph.adjacency[nodes][:, nodes].tocsr(),
                      allow_zero_rows=True)
    model = recommender._cost_model()
    costs = None if model is None else model.local_costs(
        p, nodes < graph.n_users, recommender._node_entropy_vector(nodes))
    local = np.array([local_index[int(a)] for a in absorbing])
    values = iteration_history(p, local, recommender.n_iterations, costs)[-1]
    values[~reachability_mask(p, local)] = np.inf
    row = np.full(recommender.dataset.n_items, -np.inf)
    items = np.flatnonzero(nodes >= graph.n_users)
    finite = np.isfinite(values[items])
    row[nodes[items][finite] - graph.n_users] = -values[items][finite]
    return row


RECOMMENDERS = [AbsorbingTimeRecommender, AbsorbingCostRecommender,
                HittingTimeRecommender]


@pytest.mark.parametrize("cls", RECOMMENDERS, ids=lambda c: c.__name__)
def test_truncated_rows_bit_identical_to_reference_path(cls, giant_half):
    recommender = cls(subgraph_size=40).fit(giant_half)
    users = np.arange(0, giant_half.n_users, 97)
    rows = recommender._score_users_batch(users)
    assert set(recommender._group_keys.values()) == {"solo"}
    for user, row in zip(users, rows):
        np.testing.assert_array_equal(row, _reference_row(recommender, user))


@pytest.mark.parametrize("cls", RECOMMENDERS, ids=lambda c: c.__name__)
def test_truncated_path_never_runs_dijkstra(cls, giant_half, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dijkstra ran on the recommender BFS path")

    monkeypatch.setattr("repro.solver.operator.dijkstra", refuse)
    recommender = cls(subgraph_size=40).fit(giant_half)
    rows = recommender._score_users_batch(np.arange(0, 200, 13))
    assert np.isfinite(rows).any(axis=1).all()
    assert recommender.transition_cache.stats()["bfs_entries"] > 0
