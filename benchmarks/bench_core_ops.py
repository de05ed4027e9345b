"""Micro-benchmarks of the core computational kernels.

These are classic pytest-benchmark timings (multiple rounds) of the
operations that dominate the experiment suite: the truncated absorbing
solver, the exact sparse solve, BFS subgraph extraction, personalized
PageRank, and one CVB0 LDA sweep-equivalent. Useful for catching
performance regressions in the substrate.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_scale
from repro.data.synthetic import generate_dataset, movielens_like
from repro.graph.bipartite import UserItemGraph
from repro.graph.proximity import personalized_pagerank
from repro.graph.subgraph import bfs_subgraph
from repro.solver import WalkOperator
from repro.topics.lda_cvb0 import fit_lda_cvb0


@pytest.fixture(scope="module")
def workload():
    data = generate_dataset(movielens_like(bench_scale()), seed=7)
    graph = UserItemGraph(data.dataset)
    transition = graph.transition_matrix()
    user = int(np.argmax(data.dataset.user_activity()))
    absorbing = graph.item_nodes(data.dataset.items_of_user(user))
    return data, graph, transition, user, absorbing


# Each round builds its operator, so the timings cover the one-off matrix
# validation plus the solve — a cold solve, not the warm serving path.
def test_truncated_absorbing_solver(benchmark, workload):
    _, _, transition, _, absorbing = workload
    values = benchmark(lambda: WalkOperator(transition).solve(absorbing, 15))
    assert np.isfinite(values).any()


def test_exact_absorbing_solver(benchmark, workload):
    _, _, transition, _, absorbing = workload
    values = benchmark(lambda: WalkOperator(transition).solve_exact(absorbing))
    assert np.isfinite(values).any()


def test_bfs_subgraph_extraction(benchmark, workload):
    data, graph, _, user, _ = workload
    seeds = data.dataset.items_of_user(user)
    sub = benchmark(bfs_subgraph, graph, seeds, 200)
    assert sub.n_nodes > 0


def test_personalized_pagerank(benchmark, workload):
    _, graph, transition, _, absorbing = workload
    pi = benchmark(personalized_pagerank, transition, absorbing, 0.5)
    assert pi.sum() == pytest.approx(1.0)


def test_lda_cvb0_fit(benchmark, workload):
    data = workload[0]
    model = benchmark.pedantic(
        fit_lda_cvb0, args=(data.dataset, 8),
        kwargs={"n_iterations": 20, "seed": 0}, rounds=1, iterations=1,
    )
    assert model.n_topics == 8
