"""Tests for the multi-RHS truncated solver and the multi-restart PPR."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.bipartite import UserItemGraph
from repro.graph.proximity import (
    personalized_pagerank,
    personalized_pagerank_multi,
)
from repro.solver import WalkOperator
from repro.utils.sparse import row_normalize


def path_transition(n: int) -> sp.csr_matrix:
    a = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1], format="csr")
    return row_normalize(a)


class TestTruncatedMulti:
    def test_columns_match_single_solver(self, fig2):
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        sets = [np.array([0]), np.array([7, 8]), np.array([3, 0, 10])]
        multi = WalkOperator(p).solve_multi(sets, n_iterations=15)
        assert multi.shape == (graph.n_nodes, len(sets))
        for column, absorbing in enumerate(sets):
            single = WalkOperator(p).solve(absorbing, n_iterations=15)
            np.testing.assert_array_equal(single, multi[:, column])

    def test_local_costs_shared_across_columns(self):
        p = path_transition(6)
        costs = np.linspace(0.5, 2.0, 6)
        sets = [np.array([0]), np.array([5])]
        multi = WalkOperator(p).solve_multi(sets, n_iterations=20,
                                            local_costs=costs)
        for column, absorbing in enumerate(sets):
            single = WalkOperator(p).solve(absorbing, n_iterations=20,
                                           local_costs=costs)
            np.testing.assert_array_equal(single, multi[:, column])

    def test_unreachable_nodes_inf(self, disconnected):
        graph = UserItemGraph(disconnected)
        p = graph.transition_matrix()
        multi = WalkOperator(p).solve_multi([np.array([0])])
        other = graph.component_of(3)
        assert np.isinf(multi[other, 0]).all()

    def test_empty_set_list(self):
        p = path_transition(4)
        assert WalkOperator(p).solve_multi([]).shape == (4, 0)

    def test_empty_absorbing_set_rejected(self):
        p = path_transition(4)
        with pytest.raises(GraphError, match="empty"):
            WalkOperator(p).solve_multi([np.empty(0, dtype=np.int64)])

    def test_absorbing_rows_zero(self):
        p = path_transition(5)
        multi = WalkOperator(p).solve_multi([np.array([1, 3])])
        assert multi[1, 0] == 0.0 and multi[3, 0] == 0.0


class TestPageRankMulti:
    def test_columns_match_single_solver(self, fig2):
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        sets = [np.array([6]), np.array([7, 9]), np.array([10, 6, 8])]
        multi = personalized_pagerank_multi(p, sets, damping=0.5)
        for column, restart in enumerate(sets):
            single = personalized_pagerank(p, restart, damping=0.5)
            np.testing.assert_allclose(single, multi[:, column],
                                       rtol=1e-12, atol=1e-15)

    def test_columns_sum_to_one(self, fig2):
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        multi = personalized_pagerank_multi(p, [np.array([6]), np.array([8])])
        np.testing.assert_allclose(multi.sum(axis=0), 1.0)

    def test_batch_of_one_bit_identical_to_larger_batch(self, fig2):
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        sets = [np.array([6]), np.array([7]), np.array([9, 10])]
        full = personalized_pagerank_multi(p, sets)
        for column, restart in enumerate(sets):
            alone = personalized_pagerank_multi(p, [restart])
            np.testing.assert_array_equal(alone[:, 0], full[:, column])

    def test_empty_restart_rejected(self):
        p = path_transition(4)
        with pytest.raises(GraphError, match="empty"):
            personalized_pagerank_multi(p, [np.empty(0, dtype=np.int64)])

    def test_empty_set_list(self):
        p = path_transition(4)
        assert personalized_pagerank_multi(p, []).shape == (4, 0)
