"""Bipartite half-sweeps: item rows bit-identical to the full τ-sweep.

Every :class:`~repro.graph.cache.TransitionCache` operator is built with a
user mask over a users-first node order, so its sweep alternates item and
user half-sweeps and its solves return the item rows only. The oracle is
the plain loop ``x ← c + P·x`` over every node on every sweep
(:func:`iteration_history`), run in the solve's dtype and charged a halo's
escaped mass; the item rows of its last iterate must equal the operator's
output bit for bit.
"""

import numpy as np
import pytest

from repro import (
    AbsorbingCostRecommender,
    AbsorbingTimeRecommender,
    HittingTimeRecommender,
)
from repro.data.synthetic import federated_dataset, giant_component
from repro.service.sharding import ShardPlan
from test_absorbing import iteration_history, reachability_mask

RECOMMENDERS = {
    "AT": AbsorbingTimeRecommender,
    "AC1": AbsorbingCostRecommender.item_based,
    "AC2": AbsorbingCostRecommender.topic_based,
    "HT": HittingTimeRecommender,
}
MU = 15  # µ below every test component's item count: the BFS path
GROUP_MU = 6000  # µ above every component's item count: the group path


def _halo_dataset():
    giant = giant_component(0.05, seed=5)
    return ShardPlan.build_edge_cut(giant, 2, halo_hops=2).shard_dataset(
        giant, 0)


def _federated():
    return federated_dataset(3, scale=0.05, seed=3)  # three components


#: kind -> (dataset, µ); µ = None scores on the whole-graph operator.
DATASETS = {
    "global": (_federated, None),
    "group": (_federated, GROUP_MU),
    "bfs": (lambda: giant_component(0.05, seed=5), MU),
    "halo-group": (_halo_dataset, GROUP_MU),
    "halo-bfs": (_halo_dataset, MU),
}


def _cases(recommender):
    """``(operator, local absorbing sets)`` for the operators a cohort of
    every user touches (every seventh BFS one), each set list extended by a
    single-node set per five local nodes, users and items alike, so each
    operator solves a multi-column cohort."""
    cache = recommender._ensure_cache()
    users = np.arange(recommender.dataset.n_users)
    absorbing = [recommender._absorbing_nodes(int(u)) for u in users]
    groups, solo = recommender._partition_cohort(users, absorbing)
    cases = []
    for key, members in groups.items():
        entry = cache.group(key)
        cases.append((entry.operator, [np.searchsorted(entry.index.nodes, absorbing[i])
                                       for i in members]))
    for i in solo[::7]:
        user = int(users[i])
        seeds = recommender._subgraph_seed_items(user, absorbing[i])
        index, operator = cache.bfs(user, seeds, absorbing[i],
                                    recommender.subgraph_size)
        cases.append((operator, [index.locate(absorbing[i])]))
    for operator, sets in cases:
        sets += [np.array([k]) for k in range(0, operator.n_nodes, 5)]
    return cases


@pytest.fixture(scope="module", params=[(name, kind)
                                        for name in RECOMMENDERS
                                        for kind in DATASETS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def fitted(request):
    name, kind = request.param
    make, mu = DATASETS[kind]
    recommender = RECOMMENDERS[name](subgraph_size=mu).fit(make())
    cases = _cases(recommender)
    assert cases
    bipartite = [op for op, _ in cases if 0 < op.n_users < op.n_nodes]
    assert len(bipartite) == len(cases)
    if kind.startswith("halo"):
        assert any(op._leak is not None and op._leak.any() for op, _ in cases)
    if kind == "group":
        assert len(cases) > 1
    return recommender, cases


def _oracle(operator, sets, tau, costs, dtype):
    """Item rows of the full sweep, unreachable nodes at +inf."""
    p = operator.matrix(dtype)
    step_cost = 1.0 if costs is None else float(costs.max())
    shortfall = 1.0 - np.asarray(operator.transition.sum(axis=1)).ravel()
    leak = None
    if operator.substochastic and (shortfall > 1e-12).any():
        # A halo bills escaped mass at the per-step cost ceiling.
        leak = (np.where(shortfall > 1e-12, shortfall, 0.0)
                * step_cost).astype(p.dtype)
    columns = []
    for absorbing in sets:
        values = iteration_history(p, absorbing, tau, costs,
                                   leak)[-1].astype(np.float64)
        values[~reachability_mask(operator.transition, absorbing)] = np.inf
        columns.append(values[operator.n_users:])
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("tau", [1, 2, 7, 12])
def test_item_rows_match_the_full_sweep(fitted, tau, dtype):
    recommender, cases = fitted
    for operator, sets in cases:
        costs = operator.costs_for(recommender._cost_model())
        got = operator.solve_multi(sets, tau, local_costs=costs, dtype=dtype,
                                   chunk_size=3)
        assert len(sets) > 3  # the chunks split the cohort
        np.testing.assert_array_equal(
            got, _oracle(operator, sets, tau, costs, dtype))


@pytest.mark.parametrize("kind", ["group", "halo-group"])
@pytest.mark.parametrize("name", ["AT", "HT"])
def test_group_rows_match_a_whole_graph_sweep(name, kind):
    """With unit costs a component's transition rows are the whole graph's,
    so each served row is the whole graph's plain loop, scattered by item:
    the returned rows line up with the catalogue."""
    make, mu = DATASETS[kind]
    recommender = RECOMMENDERS[name](subgraph_size=mu).fit(make())
    graph = recommender.graph
    p = graph.transition_matrix()
    shortfall = 1.0 - np.asarray(p.sum(axis=1)).ravel()
    leak = (np.where(shortfall > 1e-12, shortfall, 0.0)
            if graph.substochastic else None)
    users = np.arange(0, graph.n_users, 4)
    rows = recommender._score_users_batch(users)
    assert set(recommender._group_keys.values()) != {"solo"}
    for user, row in zip(users, rows):
        absorbing = recommender._absorbing_nodes(int(user))
        values = iteration_history(p, absorbing, recommender.n_iterations,
                                   leak_costs=leak)[-1]
        items = values[graph.n_users:]
        reach = reachability_mask(p, absorbing)[graph.n_users:]
        expected = np.where(reach, -items, -np.inf)
        np.testing.assert_array_equal(row, expected)
