"""Same-run ratio floors: each serving mechanism beats the path it replaces.

Every test times a mechanism against its naive alternative in the same
process, on the same data, at scale 0.15, and asserts the ratio clears a
floor. Ratios, not seconds, so a slow host moves both sides. Each side is
the best of three runs. Measured on a 2-vCPU VM, the ratios sit well above
their floors: multi-RHS batch vs per-user loop 5.9–6.3 (floor 1.5),
batched vs unbatched server 1.9–3.0 (1.2), update vs refit 3.0–4.9 (1.2),
warm 4-shard fleet vs single engine 15–18 for both partitioners (1.0).
What these mechanisms cost at realistic load is measured end to end by
``benchmarks/e2e``.

This module stays out of the lock-order sanitizer run: sanitized lock
proxies would skew the timings.
"""

import asyncio

import numpy as np
import pytest

from repro import (
    AbsorbingTimeRecommender,
    ServingEngine,
    ShardedEngine,
    ShardPlan,
)
from repro.data.synthetic import federated_dataset, giant_component
from repro.experiments import ExperimentConfig, make_data
from repro.service import BatchingServer
from repro.utils.timer import Timer

SCALE = 0.15
K = 10


def _best_of(fn, repeats=3) -> float:
    """Best wall-clock seconds of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


@pytest.fixture(scope="module")
def movielens():
    return make_data("movielens", ExperimentConfig(scale=SCALE)).dataset


def test_multi_rhs_batch_beats_per_user_loop(movielens):
    recommender = AbsorbingTimeRecommender(
        dtype="float32", chunk_size=1024).fit(movielens)
    users = np.arange(min(128, movielens.n_users))

    def batched():
        for start in range(0, users.size, 32):
            recommender.score_users(users[start:start + 32])

    def per_user():
        for user in users:
            recommender.score_users(np.array([user]))

    batched()  # builds the prepared operators both sides then reuse
    ratio = _best_of(per_user) / _best_of(batched)
    assert ratio >= 1.5, f"warm batch only {ratio:.2f}x the per-user loop"


def test_batched_server_beats_unbatched(movielens, rng):
    engine = ServingEngine(AbsorbingTimeRecommender().fit(movielens))
    users = rng.permutation(movielens.n_users)
    reports = {}

    def closed_loop(max_batch):
        """Every user once, 64 requests in flight, from cold caches."""
        engine.clear_caches()

        async def scenario():
            pending = list(users)

            async def client(server):
                while pending:
                    await server.recommend(int(pending.pop()), k=K)

            async with BatchingServer(
                    engine, max_batch_size=max_batch,
                    max_delay_ms=2.0 if max_batch > 1 else 0.0) as server:
                await asyncio.gather(*[client(server) for _ in range(64)])
                reports[max_batch] = server.report()

        asyncio.run(scenario())

    ratio = _best_of(lambda: closed_loop(1)) / _best_of(lambda: closed_loop(32))
    assert reports[32].n_completed == users.size
    assert reports[32].n_rejected_overload == 0
    assert reports[32].mean_batch_size > 1.0
    assert ratio >= 1.2, f"batched server only {ratio:.2f}x unbatched"


def test_incremental_update_beats_refit(rng):
    train = federated_dataset(10, scale=SCALE, seed=100)
    # About 0.8% of the ratings, all in tenant 0: one new user, one new
    # item, and re-rates or new pairs between its existing users and items.
    tenant_users = [u for u in train.user_labels if u.startswith("t0:")]
    tenant_items = [i for i in train.item_labels if i.startswith("t0:")]
    events = [("t0:new-user", tenant_items[0], 4.0),
              (tenant_users[0], "t0:new-item", 3.0)]
    events += [(tenant_users[u], tenant_items[i], float(r)) for u, i, r in zip(
        rng.integers(len(tenant_users), size=21),
        rng.integers(len(tenant_items), size=21),
        rng.integers(1, 6, size=21))]
    merged = train.extend(events, duplicates="last").dataset
    merged_users = np.arange(merged.n_users)

    def update():
        """Seconds to absorb ``events`` into a warm engine and re-serve."""
        engine = ServingEngine(AbsorbingTimeRecommender().fit(train))
        engine.serve_cohort(np.arange(train.n_users), k=K)
        with Timer() as timer:
            engine.apply_updates(events)
            engine.serve_cohort(merged_users, k=K)
        return timer.elapsed

    update_s = min(update() for _ in range(3))

    def refit():
        refitted = ServingEngine(AbsorbingTimeRecommender().fit(merged))
        refitted.serve_cohort(merged_users, k=K)

    ratio = _best_of(refit) / update_s
    assert ratio >= 1.2, f"update only {ratio:.2f}x the refit"


@pytest.mark.parametrize("partitioner", ["component", "edge-cut"])
def test_warm_fleet_beats_single_engine(partitioner):
    if partitioner == "component":
        train = federated_dataset(8, scale=SCALE, seed=11)
        plan = ShardPlan.build(train, 4)
    else:
        train = giant_component(scale=SCALE, seed=11)
        plan = ShardPlan.build_edge_cut(train, 4, halo_hops=4)
    cohort = np.arange(train.n_users)
    single = ServingEngine(AbsorbingTimeRecommender().fit(train))
    fleet = ShardedEngine.fit(train, AbsorbingTimeRecommender, plan=plan)

    def warm_s(engine):
        engine.serve_cohort(cohort, k=K)
        return _best_of(lambda: engine.serve_cohort(cohort, k=K))

    ratio = warm_s(single) / warm_s(fleet)
    assert ratio >= 1.0, f"warm fleet only {ratio:.2f}x the single engine"
