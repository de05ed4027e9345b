"""Unit tests for the related-work proximity measures (PPR, commute, Katz)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.bipartite import UserItemGraph
from repro.graph.proximity import commute_times, katz_index, personalized_pagerank


class TestPersonalizedPagerank:
    def test_sums_to_one(self, fig2):
        graph = UserItemGraph(fig2)
        pi = personalized_pagerank(graph.transition_matrix(), np.array([0]))
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)

    def test_zero_damping_is_restart_distribution(self, fig2):
        graph = UserItemGraph(fig2)
        pi = personalized_pagerank(graph.transition_matrix(), np.array([0, 1]),
                                   damping=0.0)
        assert pi[0] == pytest.approx(0.5)
        assert pi[1] == pytest.approx(0.5)

    def test_localised_around_restart(self, bridged):
        """Mass concentrates on the restart community, not the far one."""
        graph = UserItemGraph(bridged)
        restart = np.array([graph.item_node(0)])
        pi = personalized_pagerank(graph.transition_matrix(), restart, damping=0.5)
        a_side = graph.component_of(0)  # whole graph here; compare block masses
        a_users = pi[:3].sum()
        b_users = pi[3:6].sum()
        assert a_users > b_users

    def test_restart_weights(self, fig2):
        graph = UserItemGraph(fig2)
        pi = personalized_pagerank(
            graph.transition_matrix(), np.array([0, 1]), damping=0.0,
            restart_weights=np.array([3.0, 1.0]),
        )
        assert pi[0] == pytest.approx(0.75)

    def test_dangling_nodes_handled(self):
        # Node 2 is isolated: PPR must still converge and normalise.
        a = sp.csr_matrix(np.array([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]))
        from repro.utils.sparse import row_normalize

        p = row_normalize(a, allow_zero_rows=True)
        pi = personalized_pagerank(p, np.array([0]), damping=0.5)
        assert pi.sum() == pytest.approx(1.0)

    def test_empty_restart_rejected(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(GraphError, match="empty"):
            personalized_pagerank(graph.transition_matrix(), np.array([], dtype=int))

    def test_bad_weights_rejected(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(GraphError):
            personalized_pagerank(graph.transition_matrix(), np.array([0]),
                                  restart_weights=np.array([-1.0]))


class TestCommuteTimes:
    def test_symmetry(self, fig2):
        """C(i, j) must equal C(j, i)."""
        graph = UserItemGraph(fig2)
        c0 = commute_times(graph.adjacency, 0)
        c3 = commute_times(graph.adjacency, 3)
        assert c0[3] == pytest.approx(c3[0], rel=1e-9)

    def test_self_commute_zero(self, fig2):
        graph = UserItemGraph(fig2)
        c = commute_times(graph.adjacency, 2)
        assert c[2] == pytest.approx(0.0, abs=1e-8)

    def test_equals_sum_of_hitting_times(self, fig2):
        """C(i, j) = H(i|j) + H(j|i), cross-checked with the exact solver."""
        from repro.solver import WalkOperator

        graph = UserItemGraph(fig2)
        operator = WalkOperator(graph.transition_matrix())
        i, j = 0, 7
        h_to_i = operator.solve_exact(np.array([i]))
        h_to_j = operator.solve_exact(np.array([j]))
        expected = h_to_i[j] + h_to_j[i]
        c = commute_times(graph.adjacency, i)
        assert c[j] == pytest.approx(expected, rel=1e-9)

    def test_disconnected_rejected(self, disconnected):
        graph = UserItemGraph(disconnected)
        with pytest.raises(GraphError, match="connected"):
            commute_times(graph.adjacency, 0)

    def test_size_guard(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(GraphError, match="max_nodes"):
            commute_times(graph.adjacency, 0, max_nodes=5)


class TestKatzIndex:
    def test_direct_neighbors_dominate_at_small_beta(self, fig2):
        graph = UserItemGraph(fig2)
        u1 = fig2.user_id("U1")
        scores = katz_index(graph.adjacency, u1, beta=0.001)
        neighbors = set(graph.neighbors(u1).tolist())
        non_neighbors = [n for n in range(graph.n_nodes)
                         if n not in neighbors and n != u1
                         and graph.is_item_node(n)]
        assert min(scores[list(neighbors)]) > max(scores[non_neighbors])

    def test_zero_for_unreachable(self, disconnected):
        graph = UserItemGraph(disconnected)
        scores = katz_index(graph.adjacency, 0, beta=0.001)
        assert np.all(scores[graph.component_of(3)] == 0.0)

    def test_divergent_beta_rejected(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(GraphError, match="diverge"):
            katz_index(graph.adjacency, 0, beta=1.0)

    def test_bad_node_rejected(self, fig2):
        graph = UserItemGraph(fig2)
        with pytest.raises(GraphError):
            katz_index(graph.adjacency, 99)
