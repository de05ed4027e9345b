"""Hypothesis property tests over randomly generated bipartite graphs.

These complement the closed-form unit tests: every invariant here must hold
for *any* rating matrix, not just the hand-built fixtures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.data.dataset import RatingDataset
from repro.graph.bipartite import UserItemGraph
from repro.graph.random_walk import reversibility_gap
from repro.solver import WalkOperator


@st.composite
def rating_matrices(draw, max_users=8, max_items=8):
    """Random small rating matrices with at least one rating."""
    n_users = draw(st.integers(min_value=2, max_value=max_users))
    n_items = draw(st.integers(min_value=2, max_value=max_items))
    density = draw(st.floats(min_value=0.15, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    if not mask.any():
        mask[0, 0] = True
    matrix = np.where(mask, rng.integers(1, 6, size=(n_users, n_items)), 0)
    return RatingDataset(matrix.astype(float))


class TestGraphInvariants:
    @given(rating_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transition_rows_stochastic_or_zero(self, dataset):
        graph = UserItemGraph(dataset)
        sums = np.asarray(graph.transition_matrix().sum(axis=1)).ravel()
        ok = np.isclose(sums, 1.0) | np.isclose(sums, 0.0)
        assert ok.all()

    @given(rating_matrices())
    @settings(max_examples=40, deadline=None)
    def test_stationary_is_fixed_point(self, dataset):
        graph = UserItemGraph(dataset)
        pi = graph.stationary_distribution()
        np.testing.assert_allclose(graph.transition_matrix().T @ pi, pi,
                                   atol=1e-10)

    @given(rating_matrices())
    @settings(max_examples=40, deadline=None)
    def test_time_reversibility(self, dataset):
        graph = UserItemGraph(dataset)
        assert reversibility_gap(graph.adjacency) < 1e-10


class TestAbsorbingInvariants:
    @given(rating_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_below_exact_and_both_non_negative(self, dataset, data):
        graph = UserItemGraph(dataset)
        p = graph.transition_matrix()
        node = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        absorbing = np.array([node])
        operator = WalkOperator(p)
        exact = operator.solve_exact(absorbing)
        approx = operator.solve(absorbing, n_iterations=12)
        finite = np.isfinite(exact)
        assert np.all(exact[finite] >= 0)
        assert np.all(approx[finite] <= exact[finite] + 1e-9)
        # Both solvers agree on which nodes are reachable at all.
        assert np.array_equal(np.isfinite(exact), np.isfinite(approx))

    @given(rating_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_absorbing_zero_on_set_and_reachability_consistent(self, dataset, data):
        graph = UserItemGraph(dataset)
        p = graph.transition_matrix()
        size = data.draw(st.integers(min_value=1, max_value=min(3, graph.n_nodes)))
        absorbing = np.array(sorted(data.draw(
            st.sets(st.integers(min_value=0, max_value=graph.n_nodes - 1),
                    min_size=size, max_size=size)
        )))
        values = WalkOperator(p).solve_exact(absorbing)
        assert np.all(values[absorbing] == 0.0)
        # Oracle: reachability by BFS along reversed edges.
        dist = dijkstra(p.T, indices=absorbing, unweighted=True,
                        min_only=True)
        assert np.array_equal(np.isfinite(values), np.isfinite(dist))

    @given(rating_matrices(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_absorbing_set(self, dataset, data):
        graph = UserItemGraph(dataset)
        p = graph.transition_matrix()
        a = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        b = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        operator = WalkOperator(p)
        small = operator.solve_exact(np.array([a]))
        big = operator.solve_exact(np.array(sorted({a, b})))
        finite = np.isfinite(small)
        assert np.all(big[finite] <= small[finite] + 1e-9)

    @given(rating_matrices(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_local_cost_linearity(self, dataset, data):
        """Absorbing cost is linear in the local-cost vector."""
        graph = UserItemGraph(dataset)
        p = graph.transition_matrix()
        node = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1))
        absorbing = np.array([node])
        factor = data.draw(st.floats(min_value=0.1, max_value=10.0))
        operator = WalkOperator(p)
        base = operator.solve_exact(absorbing)
        scaled = operator.solve_exact(absorbing, factor * np.ones(graph.n_nodes))
        finite = np.isfinite(base)
        np.testing.assert_allclose(scaled[finite], factor * base[finite],
                                   rtol=1e-8)
