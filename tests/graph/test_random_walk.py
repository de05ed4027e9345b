"""Unit tests for random-walk primitives (Eq. 1, Eq. 2, reversibility)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.bipartite import UserItemGraph
from repro.graph.random_walk import (
    monte_carlo_absorbing_time,
    reversibility_gap,
    simulate_walk,
    stationary_distribution,
    transition_matrix,
)


@pytest.fixture()
def fig2_adjacency(fig2):
    return UserItemGraph(fig2).adjacency


class TestTransitionMatrix:
    def test_rows_stochastic(self, fig2_adjacency):
        p = transition_matrix(fig2_adjacency)
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_isolated_node_rejected_by_default(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                    [1.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0]]))
        with pytest.raises(GraphError):
            transition_matrix(a)
        p = transition_matrix(a, allow_isolated=True)
        assert p[2].nnz == 0


class TestStationaryDistribution:
    def test_proportional_to_degree(self, fig2_adjacency):
        pi = stationary_distribution(fig2_adjacency)
        degrees = np.asarray(fig2_adjacency.sum(axis=1)).ravel()
        np.testing.assert_allclose(pi, degrees / degrees.sum())

    def test_edgeless_graph_rejected(self):
        with pytest.raises(GraphError):
            stationary_distribution(sp.csr_matrix((3, 3)))


class TestReversibility:
    def test_symmetric_graph_reversible(self, fig2_adjacency):
        """The paper's §3.3 identity pi_i p_ij = pi_j p_ji holds exactly."""
        assert reversibility_gap(fig2_adjacency) < 1e-12

    def test_asymmetric_graph_not_reversible(self):
        a = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert reversibility_gap(a) > 1e-3


class TestSimulateWalk:
    def test_length_and_start(self, fig2_adjacency):
        path = simulate_walk(fig2_adjacency, 0, 20, np.random.default_rng(0))
        assert path.size == 21
        assert path[0] == 0

    def test_steps_follow_edges(self, fig2_adjacency):
        path = simulate_walk(fig2_adjacency, 0, 50, np.random.default_rng(1))
        dense = fig2_adjacency.toarray()
        for a, b in zip(path[:-1], path[1:]):
            assert dense[a, b] > 0

    def test_bipartite_alternation(self, fig2):
        """On a bipartite graph the walk alternates user/item sides."""
        graph = UserItemGraph(fig2)
        path = simulate_walk(graph.adjacency, 0, 30, np.random.default_rng(2))
        sides = [graph.is_user_node(int(n)) for n in path]
        assert all(a != b for a, b in zip(sides[:-1], sides[1:]))

    def test_isolated_start_rejected(self):
        a = sp.csr_matrix((2, 2))
        with pytest.raises(GraphError):
            simulate_walk(a, 0, 5)

    def test_deterministic_given_seed(self, fig2_adjacency):
        a = simulate_walk(fig2_adjacency, 3, 15, np.random.default_rng(7))
        b = simulate_walk(fig2_adjacency, 3, 15, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestMonteCarloAbsorbingTime:
    def test_zero_when_start_absorbing(self, fig2_adjacency):
        assert monte_carlo_absorbing_time(fig2_adjacency, 0, {0}) == 0.0

    def test_matches_exact_on_fig2(self, fig2):
        """Simulation cross-validates the analytic hitting time."""
        from repro.solver import WalkOperator

        graph = UserItemGraph(fig2)
        q = fig2.user_id("U5")
        exact = WalkOperator(graph.transition_matrix()).solve_exact(
            np.array([q]))
        m4 = graph.item_node(fig2.item_id("M4"))
        estimate = monte_carlo_absorbing_time(
            graph.adjacency, m4, {q}, n_walks=3000, rng=np.random.default_rng(0)
        )
        assert estimate == pytest.approx(exact[m4], rel=0.1)

    def test_empty_absorbing_rejected(self, fig2_adjacency):
        with pytest.raises(GraphError):
            monte_carlo_absorbing_time(fig2_adjacency, 0, set())
