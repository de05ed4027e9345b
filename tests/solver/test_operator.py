"""WalkOperator: validate once, solve identically, chunk transparently."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigError, GraphError
from repro.graph.bipartite import UserItemGraph
from repro.solver import WalkOperator
from repro.utils.sparse import row_normalize


def path_transition(n: int) -> sp.csr_matrix:
    a = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1], format="csr")
    return row_normalize(a)


@pytest.fixture()
def fig2_operator(fig2):
    graph = UserItemGraph(fig2)
    return WalkOperator(graph.transition_matrix(),
                        labels=graph.component_labels()), graph


class TestValidation:
    def test_validated_exactly_once_at_construction(self, fig2):
        graph = UserItemGraph(fig2)
        operator = WalkOperator(graph.transition_matrix())
        assert operator.validations == 1
        for _ in range(3):
            operator.solve(np.array([0]), n_iterations=5)
        assert operator.validations == 1

    def test_non_square_rejected(self):
        with pytest.raises(GraphError, match="square"):
            WalkOperator(sp.csr_matrix((2, 3)))

    def test_non_stochastic_rejected(self):
        with pytest.raises(GraphError, match="stochastic"):
            WalkOperator(sp.csr_matrix(np.array([[0.0, 0.7], [1.0, 0.0]])))

    def test_negative_entries_rejected(self):
        with pytest.raises(GraphError, match="negative"):
            WalkOperator(sp.csr_matrix(np.array([[0.0, -1.0], [1.0, 0.0]])))

    def test_csr_float64_not_copied(self):
        p = path_transition(5)
        operator = WalkOperator(p)
        assert operator.transition is p

    def test_validate_false_skips_the_scan(self):
        operator = WalkOperator(path_transition(4), validate=False)
        assert operator.validations == 0


class TestSolveEquivalence:
    # *_matches_label_less: label-indexed reachability (the fixture's
    # labelled operator) against the label-less operator's Dijkstra.
    def test_solve_matches_label_less(self, fig2_operator):
        operator, graph = fig2_operator
        absorbing = np.array([0])
        expected = WalkOperator(graph.transition_matrix()).solve(
            absorbing, n_iterations=15)
        np.testing.assert_array_equal(
            operator.solve(absorbing, n_iterations=15), expected
        )

    def test_solve_multi_matches_label_less(self, fig2_operator):
        operator, graph = fig2_operator
        sets = [np.array([0]), np.array([7, 8]), np.array([3, 0, 10])]
        expected = WalkOperator(graph.transition_matrix()).solve_multi(
            sets, n_iterations=15)
        np.testing.assert_array_equal(
            operator.solve_multi(sets, n_iterations=15), expected
        )

    def test_chunking_is_bit_identical(self, fig2_operator):
        operator, _ = fig2_operator
        sets = [np.array([i]) for i in range(8)]
        full = operator.solve_multi(sets, n_iterations=12)
        chunked = operator.solve_multi(sets, n_iterations=12, chunk_size=3)
        np.testing.assert_array_equal(full, chunked)

    def test_solve_exact_matches_label_less(self, fig2_operator):
        operator, graph = fig2_operator
        absorbing = np.array([2])
        expected = WalkOperator(graph.transition_matrix()).solve_exact(
            absorbing)
        np.testing.assert_allclose(operator.solve_exact(absorbing), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_local_costs_respected(self):
        p = path_transition(6)
        costs = np.linspace(0.5, 2.0, 6)
        labelled = WalkOperator(p, labels=np.zeros(6, dtype=np.int64))
        values = labelled.solve(np.array([0]), n_iterations=20,
                                local_costs=costs)
        np.testing.assert_array_equal(
            values,
            WalkOperator(p).solve(np.array([0]), n_iterations=20,
                                  local_costs=costs),
        )
        # The costs reach the values: unit costs give a different answer.
        assert not np.array_equal(
            values, labelled.solve(np.array([0]), n_iterations=20))

    def test_unreachable_inf_with_labels(self, disconnected):
        graph = UserItemGraph(disconnected)
        operator = WalkOperator(graph.transition_matrix(),
                                labels=graph.component_labels())
        values = operator.solve(np.array([0]), n_iterations=10)
        other = graph.component_of(3)
        assert np.isinf(values[other]).all()
        # And identical to the label-free (Dijkstra) reachability.
        plain = WalkOperator(graph.transition_matrix())
        np.testing.assert_array_equal(
            plain.solve(np.array([0]), n_iterations=10), values
        )


class TestDtypePolicy:
    def test_float32_close_and_rank_stable(self, fig2_operator):
        operator, _ = fig2_operator
        sets = [np.array([0]), np.array([7, 8])]
        ref = operator.solve_multi(sets, n_iterations=15, dtype="float64")
        fast = operator.solve_multi(sets, n_iterations=15, dtype="float32")
        finite = np.isfinite(ref)
        assert (finite == np.isfinite(fast)).all()
        np.testing.assert_allclose(fast[finite], ref[finite], rtol=1e-4)
        for column in range(ref.shape[1]):
            np.testing.assert_array_equal(np.argsort(ref[:, column]),
                                          np.argsort(fast[:, column]))

    def test_float32_matrix_shares_structure(self, fig2_operator):
        operator, _ = fig2_operator
        p32 = operator.matrix("float32")
        assert p32.dtype == np.float32
        np.testing.assert_array_equal(p32.indices, operator.transition.indices)
        np.testing.assert_array_equal(p32.indptr, operator.transition.indptr)
        assert p32 is operator.matrix("float32")  # materialized once

    def test_unknown_dtype_rejected(self, fig2_operator):
        operator, _ = fig2_operator
        with pytest.raises(ConfigError, match="dtype"):
            operator.solve(np.array([0]), dtype="float16")


class TestPlansAndCaches:
    def test_repeated_cohort_hits_the_plan_cache(self, fig2_operator):
        operator, _ = fig2_operator
        sets = [np.array([0]), np.array([7, 8])]
        operator.solve_multi(sets, n_iterations=5)
        assert (operator.plan_hits, operator.plan_misses) == (0, 1)
        operator.solve_multi(sets, n_iterations=5)
        assert (operator.plan_hits, operator.plan_misses) == (1, 1)

    def test_exact_factor_cached(self, fig2_operator):
        operator, _ = fig2_operator
        absorbing = np.array([2])
        first = operator.solve_exact(absorbing)
        assert operator.stats()["factors_cached"] == 1
        second = operator.solve_exact(absorbing)
        np.testing.assert_array_equal(first, second)
        assert operator.stats()["factors_cached"] == 1

    def test_solve_counters(self, fig2_operator):
        operator, _ = fig2_operator
        operator.solve_multi([np.array([0]), np.array([1])], n_iterations=3)
        operator.solve(np.array([0]), n_iterations=3)
        stats = operator.stats()
        assert stats["solves"] == 2
        assert stats["columns_solved"] == 3

    def test_empty_set_rejected(self, fig2_operator):
        operator, _ = fig2_operator
        with pytest.raises(GraphError, match="empty"):
            operator.solve_multi([np.empty(0, dtype=np.int64)])

    def test_empty_cohort(self, fig2_operator):
        operator, _ = fig2_operator
        assert operator.solve_multi([]).shape == (operator.n_nodes, 0)


class TestCostMemo:
    def test_costs_for_memoizes_per_model(self, fig2):
        from repro.core.costs import EntropyCostModel

        graph = UserItemGraph(fig2)
        user_mask = np.arange(graph.n_nodes) < graph.n_users
        entropy = np.where(user_mask, 1.5, 0.0)
        operator = WalkOperator(graph.transition_matrix(),
                                user_mask=user_mask, node_entropy=entropy)
        model = EntropyCostModel(jump_cost=2.0)
        first = operator.costs_for(model)
        assert operator.costs_for(model) is first
        assert operator.costs_for(None) is None

    def test_costs_for_requires_structure(self, fig2):
        from repro.core.costs import EntropyCostModel

        graph = UserItemGraph(fig2)
        operator = WalkOperator(graph.transition_matrix())
        with pytest.raises(GraphError, match="user_mask"):
            operator.costs_for(EntropyCostModel(jump_cost=2.0))
