"""WalkOperator: validate once, solve identically, chunk transparently."""

import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

import repro.solver.operator as operator_module
from repro import AbsorbingTimeRecommender
from repro.exceptions import ConfigError, GraphError
from repro.graph.bipartite import UserItemGraph
from repro.solver import SOLVE_DTYPES, WalkOperator
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


class TestBipartite:
    """A ``user_mask`` operator: users first, no same-kind edge, item rows."""

    @staticmethod
    def _parts(fig2):
        graph = UserItemGraph(fig2)
        return graph, graph.transition_matrix(), (
            np.arange(graph.n_nodes) < graph.n_users)

    def test_solves_return_the_item_rows_of_the_full_sweep(self, fig2):
        graph, p, user_mask = self._parts(fig2)
        bipartite = WalkOperator(p, user_mask=user_mask)
        full = WalkOperator(p)
        assert bipartite.n_users == graph.n_users and full.n_users == 0
        sets = [np.array([0]), np.array([7, 8]), np.array([3, 0, 10])]
        for tau in (1, 2, 9, 14):
            np.testing.assert_array_equal(
                bipartite.solve_multi(sets, tau, chunk_size=2),
                full.solve_multi(sets, tau)[graph.n_users:])
        np.testing.assert_array_equal(bipartite.solve(np.array([7]), 5),
                                      full.solve(np.array([7]), 5)[5:])
        np.testing.assert_array_equal(bipartite.solve_exact(np.array([7])),
                                      full.solve_exact(np.array([7]))[5:])
        assert bipartite.solve_multi([]).shape == (graph.n_items, 0)

    def test_same_kind_edge_rejected(self, fig2):
        graph, p, user_mask = self._parts(fig2)
        for a, b in ((0, 1), (graph.n_users, graph.n_users + 1)):
            adjacency = graph.adjacency.tolil()
            adjacency[a, b] = adjacency[b, a] = 1.0
            with pytest.raises(GraphError, match="two nodes of one kind"):
                WalkOperator(row_normalize(adjacency.tocsr()),
                             user_mask=user_mask)

    def test_users_must_come_first(self, fig2):
        _, p, user_mask = self._parts(fig2)
        with pytest.raises(GraphError, match="users first"):
            WalkOperator(p, user_mask=user_mask[::-1])

    def test_user_mask_length_checked(self, fig2):
        _, p, user_mask = self._parts(fig2)
        with pytest.raises(GraphError, match="user_mask length"):
            WalkOperator(p, user_mask=user_mask[:-1])


class TestKernelEntry:
    """``_csr_matvecs``: one column on ``csr_matvec``, wider on
    ``csr_matvecs``, the same bits either way."""

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 12),
           n_cols=st.integers(1, 12), density=st.floats(0.0, 3.0),
           dtype=st.sampled_from([np.float64, np.float32]),
           index_dtype=st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_one_column_matches_csr_matvecs_bit_for_bit(
            self, seed, n_rows, n_cols, density, dtype, index_dtype):
        rng = np.random.default_rng(seed)
        # Rows of 0 to ~2·density·n_cols entries: empty rows, repeated
        # column indices within a row, and explicit zeros.
        counts = rng.integers(0, int(2 * density * n_cols) + 1, n_rows)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(index_dtype)
        indices = rng.integers(0, n_cols, indptr[-1]).astype(index_dtype)
        data = rng.standard_normal(indptr[-1]).astype(dtype)
        data[rng.random(indptr[-1]) < 0.2] = 0
        x = rng.standard_normal(n_cols).astype(dtype)
        # A half-sweep passes an indptr slice over the full indices/data.
        lo = int(rng.integers(0, n_rows + 1))
        hi = int(rng.integers(lo, n_rows + 1))
        y0 = rng.standard_normal(hi - lo).astype(dtype)  # it accumulates
        got, expected = y0.copy(), y0.copy()
        operator_module._csr_matvecs(hi - lo, n_cols, 1, indptr[lo:hi + 1],
                                     indices, data, x, got)
        csr_matvecs(hi - lo, n_cols, 1, indptr[lo:hi + 1], indices, data,
                    x, expected)
        assert got.tobytes() == expected.tobytes()

    @pytest.fixture()
    def kernel_calls(self, monkeypatch):
        """``(routine, columns)`` of every scipy kernel call the sweeps make."""
        calls = []

        def matvec(*args):
            calls.append(("csr_matvec", 1))
            csr_matvec(*args)

        def matvecs(*args):
            calls.append(("csr_matvecs", args[2]))
            csr_matvecs(*args)

        monkeypatch.setattr(operator_module, "csr_matvec", matvec,
                            raising=False)
        monkeypatch.setattr(operator_module, "csr_matvecs", matvecs,
                            raising=False)
        return calls

    @pytest.mark.parametrize("dtype", SOLVE_DTYPES)
    @pytest.mark.parametrize("bipartite", [True, False])
    def test_one_column_sweeps_take_the_single_vector_kernel(
            self, fig2, kernel_calls, dtype, bipartite):
        graph = UserItemGraph(fig2)
        user_mask = np.arange(graph.n_nodes) < graph.n_users
        operator = WalkOperator(graph.transition_matrix(),
                                user_mask=user_mask if bipartite else None)
        sets = [np.array([0]), np.array([7, 8]), np.array([3, 0, 10]),
                np.array([2])]
        tau = 9
        sweep = tau - 1  # kernel calls per chunk: the first sweep is c
        whole = operator.solve_multi(sets, tau, dtype=dtype)
        assert kernel_calls == [("csr_matvecs", 4)] * sweep
        del kernel_calls[:]
        np.testing.assert_array_equal(
            operator.solve(sets[3], tau, dtype=dtype), whole[:, 3])
        np.testing.assert_array_equal(
            operator.solve_multi(sets[:1], tau, dtype=dtype), whole[:, :1])
        # A 4-set cohort at chunk_size=3 ends on a one-column chunk.
        np.testing.assert_array_equal(
            operator.solve_multi(sets, tau, dtype=dtype, chunk_size=3), whole)
        one = [("csr_matvec", 1)] * sweep
        assert kernel_calls == one + one + [("csr_matvecs", 3)] * sweep + one

    @pytest.mark.parametrize("dtype", SOLVE_DTYPES)
    def test_group_cohort_is_one_block_sweep(self, fig2, kernel_calls, dtype):
        """k users of one component group cost one ``solve_multi`` on the
        group operator and τ − 1 kernel calls of k columns each, where a
        one-column-chunk sweep or a solve per user would make k times as
        many calls."""
        recommender = AbsorbingTimeRecommender(n_iterations=9,
                                               dtype=dtype).fit(fig2)
        users = np.arange(fig2.n_users)
        groups, solo = recommender._partition_cohort(
            users, [recommender._absorbing_nodes(int(u)) for u in users])
        assert not solo and list(groups.values()) == [users.tolist()]
        operator = recommender._ensure_cache().group(*groups).operator
        before = operator.stats()
        recommender.score_users(users)
        after = operator.stats()
        assert after["solves"] - before["solves"] == 1
        assert after["columns_solved"] - before["columns_solved"] == users.size
        assert kernel_calls == [("csr_matvecs", users.size)] * (9 - 1)


class TestThreadSafety:
    def test_racing_threads_share_one_operator(self, fig2):
        """Threads solving on one operator (as cached operators are shared)
        never corrupt its memos or lose a count. A tiny switch interval
        lets a thread lose the GIL between a memo lookup and its LRU
        bump."""
        graph = UserItemGraph(fig2)
        operator = WalkOperator(graph.transition_matrix())
        errors, counts = [], []
        deadline = time.monotonic() + 1.5

        def solve_until_deadline(offset):
            count = 0
            try:
                while time.monotonic() < deadline and not errors:
                    operator.solve(np.array([(count + offset) % 6]),
                                   n_iterations=1)
                    count += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            counts.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve_until_deadline,
                                        args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        stats = operator.stats()
        assert stats["solves"] == stats["columns_solved"] == sum(counts)
