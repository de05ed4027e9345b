"""Unit and property tests for the absorbing-chain solves of WalkOperator.

Includes closed-form checks (symmetric random walk on a path), the
exact-vs-truncated convergence claim of §4.1, set-monotonicity properties
of absorbing times, and two independent oracles: a reversed-edge Dijkstra
for reachability and the plain ``x ← c + P·x`` loop for the τ-sweep.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import GraphError
from repro.graph.bipartite import UserItemGraph
from repro.solver import WalkOperator
from repro.utils.sparse import row_normalize


def path_transition(n: int) -> sp.csr_matrix:
    """Simple random walk on a path of n nodes (reflecting ends)."""
    a = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1], format="csr")
    return row_normalize(a)


def reachability_mask(p, absorbing) -> np.ndarray:
    """Oracle: nodes that reach ``absorbing``, by BFS along reversed edges."""
    dist = dijkstra(p.T, indices=absorbing, unweighted=True, min_only=True)
    return np.isfinite(dist)


def iteration_history(p, absorbing, n_iterations, local_costs=None,
                      leak_costs=None):
    """Oracle: the τ-sweep as the plain loop ``x ← c + P·x``, ``x[S] = 0``.

    Every node, every sweep, in ``p``'s dtype. ``leak_costs`` (a halo's
    escaped-mass charge) adds ``leak_costs · t`` on sweep ``t``, counted
    from 0. Row ``t`` is the value vector after ``t + 1`` sweeps;
    unreachable nodes keep their (finite, growing) iterate.
    """
    n = p.shape[0]
    costs = (np.ones(n) if local_costs is None
             else np.array(local_costs)).astype(p.dtype)
    costs[absorbing] = 0.0
    history = np.empty((n_iterations, n), dtype=p.dtype)
    x = np.zeros(n, dtype=p.dtype)
    for t in range(n_iterations):
        x = costs + p @ x
        if leak_costs is not None:
            x += leak_costs * t
        x[absorbing] = 0.0
        history[t] = x
    return history


class TestExactClosedForm:
    def test_path_hitting_times(self):
        """Closed form on a path: E[T_0 from k] = k(2n - 2 - k).

        Symmetric walk on nodes 0..n-1, absorbing at 0, reflecting at n-1.
        First-step analysis gives h_k = k(2n - 2 - k) (gambler's ruin with a
        reflecting barrier); verify against the solver for n = 5.
        """
        n = 5
        p = path_transition(n)
        values = WalkOperator(p).solve_exact(np.array([0]))
        for k in range(n):
            expected = k * (2 * n - 2 - k)
            assert values[k] == pytest.approx(expected, rel=1e-9), f"node {k}"

    def test_two_node_chain(self):
        p = path_transition(2)
        values = WalkOperator(p).solve_exact(np.array([0]))
        np.testing.assert_allclose(values, [0.0, 1.0])

    def test_absorbing_nodes_zero(self, fig2):
        graph = UserItemGraph(fig2)
        absorbing = np.array([0, 7])
        operator = WalkOperator(graph.transition_matrix())
        values = operator.solve_exact(absorbing)
        assert values[0] == 0.0 and values[7] == 0.0

    def test_unreachable_nodes_inf(self, disconnected):
        graph = UserItemGraph(disconnected)
        operator = WalkOperator(graph.transition_matrix())
        values = operator.solve_exact(np.array([0]))
        other_component = graph.component_of(3)
        assert np.all(np.isinf(values[other_component]))

    def test_local_costs_scale_solution(self):
        """Doubling all local costs doubles every absorbing value."""
        p = path_transition(6)
        operator = WalkOperator(p)
        base = operator.solve_exact(np.array([0]))
        doubled = operator.solve_exact(np.array([0]), 2.0 * np.ones(6))
        np.testing.assert_allclose(doubled[1:], 2.0 * base[1:])

    def test_empty_absorbing_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            WalkOperator(path_transition(3)).solve_exact(
                np.array([], dtype=int))

    def test_non_stochastic_rejected(self):
        bad = sp.csr_matrix(np.array([[0.5, 0.2], [0.5, 0.5]]))
        with pytest.raises(GraphError, match="stochastic"):
            WalkOperator(bad).solve_exact(np.array([0]))

    def test_non_square_rejected(self):
        bad = sp.csr_matrix(np.ones((2, 3)) / 3)
        with pytest.raises(GraphError, match="square"):
            WalkOperator(bad).solve_exact(np.array([0]))


class TestTruncated:
    def test_converges_to_exact(self, fig2):
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        absorbing = np.array([fig2.user_id("U5")])
        operator = WalkOperator(p)
        exact = operator.solve_exact(absorbing)
        approx = operator.solve(absorbing, n_iterations=3000)
        np.testing.assert_allclose(approx, exact, rtol=1e-6)

    def test_monotone_in_iterations(self, fig2):
        """Truncated values E[min(T, tau)] grow with tau."""
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        absorbing = np.array([0])
        operator = WalkOperator(p)
        previous = operator.solve(absorbing, n_iterations=1)
        for tau in (2, 4, 8, 16):
            current = operator.solve(absorbing, n_iterations=tau)
            assert np.all(current >= previous - 1e-12)
            previous = current

    def test_lower_bounds_exact(self, fig2):
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        absorbing = np.array([0])
        operator = WalkOperator(p)
        exact = operator.solve_exact(absorbing)
        approx = operator.solve(absorbing, n_iterations=10)
        finite = np.isfinite(exact)
        assert np.all(approx[finite] <= exact[finite] + 1e-12)

    def test_ranking_stabilises_by_tau_15(self, medium_synth):
        """The paper's §4.1 claim: tau = 15 already gives the exact top-k."""
        graph = UserItemGraph(medium_synth.dataset)
        p = graph.transition_matrix()
        items = medium_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(items)
        operator = WalkOperator(p)
        exact = operator.solve_exact(absorbing)
        approx = operator.solve(absorbing, n_iterations=15)
        candidates = np.setdiff1d(graph.item_nodes(), absorbing)
        finite = candidates[np.isfinite(exact[candidates])]
        top_exact = finite[np.argsort(exact[finite])][:10]
        top_approx = finite[np.argsort(approx[finite])][:10]
        overlap = len(set(top_exact) & set(top_approx)) / 10
        assert overlap >= 0.8

    def test_unreachable_nodes_inf(self, disconnected):
        graph = UserItemGraph(disconnected)
        operator = WalkOperator(graph.transition_matrix())
        values = operator.solve(np.array([0]), n_iterations=5)
        assert np.isinf(values[graph.component_of(3)]).all()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_every_sweep_matches_plain_loop(self, disconnected, weighted):
        """Each τ's values equal the plain loop's iterate on reachable
        nodes, bit for bit, and are ``+inf`` elsewhere."""
        graph = UserItemGraph(disconnected)
        p = graph.transition_matrix()
        absorbing = np.array([0, 2])
        costs = (np.linspace(0.5, 2.0, graph.n_nodes) if weighted else None)
        history = iteration_history(p, absorbing, 10, costs)
        reachable = reachability_mask(p, absorbing)
        operator = WalkOperator(p)
        for tau in range(1, 11):
            values = operator.solve(absorbing, n_iterations=tau,
                                    local_costs=costs)
            np.testing.assert_array_equal(values[reachable],
                                          history[tau - 1][reachable])
            assert np.isinf(values[~reachable]).all()


class TestReachability:
    def test_connected_all_reachable(self, fig2):
        graph = UserItemGraph(fig2)
        operator = WalkOperator(graph.transition_matrix())
        assert operator.reachable_columns([np.array([0])]).all()

    @pytest.mark.parametrize("labelled", [False, True])
    def test_disconnected_partition_matches_dijkstra(self, disconnected,
                                                     labelled):
        graph = UserItemGraph(disconnected)
        p = graph.transition_matrix()
        operator = WalkOperator(
            p, labels=graph.component_labels() if labelled else None)
        for absorbing in (np.array([0]), np.array([3]), np.array([0, 3])):
            column = operator.reachable_columns([absorbing])[:, 0]
            np.testing.assert_array_equal(column,
                                          reachability_mask(p, absorbing))
        column = operator.reachable_columns([np.array([0])])[:, 0]
        assert column.sum() == graph.component_of(0).size


class TestSetMonotonicity:
    @pytest.mark.parametrize("extra_node", range(1, 11))
    def test_bigger_absorbing_set_absorbs_faster(self, extra_node, fig2):
        """AT(S ∪ {j} | i) <= AT(S | i) for every i."""
        graph = UserItemGraph(fig2)
        p = graph.transition_matrix()
        small_set = WalkOperator(p).solve_exact(np.array([0]))
        big_set = WalkOperator(p).solve_exact(np.array([0, extra_node]))
        assert np.all(big_set <= small_set + 1e-9)

    @given(st.sets(st.integers(min_value=0, max_value=10), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_absorbing_values_non_negative_finite_on_connected(self, absorbing_set):
        from repro.data.toy import figure2_dataset

        graph = UserItemGraph(figure2_dataset())
        p = graph.transition_matrix()
        values = WalkOperator(p).solve_exact(np.array(sorted(absorbing_set)))
        assert np.all(values >= 0)
        assert np.all(np.isfinite(values))  # fig2 graph is connected
