"""Edge-cut sharding: partitioner invariants, halos, parity, persistence.

The edge-cut tier's contract is weaker than the component tier's — and
these tests pin down exactly where: owned partitions are exact and
deterministic, shard views carry degree-true cut deficits, halo scores
*dominate from below* (pessimistic completion: fleet score ≤ unsharded
score, so sharding can demote but never promote an item), saturating
halos recover bit-level parity, and update routing replicates co-located
events while surfacing staleness hints for the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AbsorbingTimeRecommender,
    ServingEngine,
    ShardedEngine,
    ShardPlan,
)
from repro.data.dataset import RatingDataset
from repro.data.synthetic import federated_dataset, giant_component
from repro.exceptions import ArtifactError, ConfigError, DataError
from repro.graph.bipartite import UserItemGraph, degree_vector
from repro.service.sharding import (
    EDGE_CUT_HINT,
    SHARD_PLAN_FORMAT_VERSION,
    _lpt_order,
)

SETTINGS = dict(max_examples=20, deadline=None, derandomize=True)

N_SHARDS = 4
HOPS = 3


@pytest.fixture(scope="module")
def giant():
    return giant_component(scale=0.12, seed=7)


@pytest.fixture(scope="module")
def plan(giant):
    return ShardPlan.build_edge_cut(giant, N_SHARDS, halo_hops=HOPS)


@pytest.fixture(scope="module")
def single_engine(giant):
    return ServingEngine(AbsorbingTimeRecommender().fit(giant))


@pytest.fixture(scope="module")
def fleet(giant, plan):
    return ShardedEngine.fit(giant, AbsorbingTimeRecommender, plan=plan)


def _topk_by_user(rows):
    out = {}
    for row in rows:
        out.setdefault(row["user"], {})[row["item"]] = row["score"]
    return out


class TestEdgeCutPlan:
    def test_owned_sets_partition_the_graph(self, giant, plan):
        users = np.concatenate([plan.users_of_shard(s)
                                for s in range(plan.n_shards)])
        items = np.concatenate([plan.items_of_shard(s)
                                for s in range(plan.n_shards)])
        assert np.array_equal(np.sort(users), np.arange(giant.n_users))
        assert np.array_equal(np.sort(items), np.arange(giant.n_items))

    def test_every_shard_bipartite(self, plan):
        for shard in range(plan.n_shards):
            assert plan.users_of_shard(shard).size >= 1
            assert plan.items_of_shard(shard).size >= 1

    def test_metadata(self, plan):
        assert plan.has_halos
        assert plan.partitioner == "edge-cut"
        assert plan.halo_hops == HOPS

    def test_ghosts_disjoint_from_owned_and_owned_elsewhere(self, plan):
        for shard in range(plan.n_shards):
            for ghosts, shard_of in (
                    (plan.ghost_users_of_shard(shard), plan.user_shard),
                    (plan.ghost_items_of_shard(shard), plan.item_shard)):
                assert np.all(shard_of[ghosts] != shard)
                assert np.array_equal(ghosts, np.unique(ghosts))

    def test_ghosts_are_exactly_k_hop_fringe(self, giant, plan):
        """Ghosts = nodes within HOPS bipartite hops of the owned set."""
        graph = UserItemGraph(giant)
        adjacency = graph.adjacency
        for shard in range(plan.n_shards):
            mask = np.zeros(graph.n_nodes, dtype=bool)
            mask[plan.users_of_shard(shard)] = True
            mask[giant.n_users + plan.items_of_shard(shard)] = True
            owned = mask.copy()
            for _ in range(HOPS):
                mask = mask | (adjacency @ mask.astype(np.float64) > 0)
            fringe = np.flatnonzero(mask & ~owned)
            expected_users = fringe[fringe < giant.n_users]
            expected_items = fringe[fringe >= giant.n_users] - giant.n_users
            assert np.array_equal(plan.ghost_users_of_shard(shard),
                                  expected_users)
            assert np.array_equal(plan.ghost_items_of_shard(shard),
                                  expected_items)

    def test_balance_cap(self, giant, plan):
        """No shard's owned rating mass exceeds ~2x the fair share."""
        ratings = [row["ratings"] for row in plan.summary(giant)]
        assert max(ratings) <= 2.0 * giant.n_ratings / plan.n_shards

    def test_build_is_deterministic(self, giant):
        a = ShardPlan.build_edge_cut(giant, N_SHARDS, halo_hops=HOPS)
        b = ShardPlan.build_edge_cut(giant, N_SHARDS, halo_hops=HOPS)
        assert np.array_equal(a.user_shard, b.user_shard)
        assert np.array_equal(a.item_shard, b.item_shard)
        for shard in range(N_SHARDS):
            assert np.array_equal(a.ghost_users_of_shard(shard),
                                  b.ghost_users_of_shard(shard))
            assert np.array_equal(a.ghost_items_of_shard(shard),
                                  b.ghost_items_of_shard(shard))

    def test_needs_multiple_nodes_per_kind(self, giant):
        with pytest.raises(ConfigError):
            ShardPlan.build_edge_cut(giant, 0)
        with pytest.raises(ConfigError):
            ShardPlan.build_edge_cut(giant, giant.n_items + 1)


class TestLptDeterminism:
    """Satellite: LPT bin-packing is stable under weight ties."""

    def test_ties_resolve_to_lower_label(self):
        order = _lpt_order(np.array([5, 9, 5, 9, 1]))
        assert order.tolist() == [1, 3, 0, 2, 4]

    def test_component_plan_reproducible_under_ties(self):
        # Four identical disjoint blocks: every component weight ties.
        blocks = []
        for b in range(4):
            matrix = np.zeros((3, 3))
            matrix[[0, 1, 2], [0, 1, 2]] = 4.0
            matrix[0, 1] = 3.0
            blocks.append(matrix)
        import scipy.sparse as sp
        dataset = RatingDataset(
            sp.block_diag(blocks, format="csr"),
            user_labels=[f"u{i}" for i in range(12)],
            item_labels=[f"i{i}" for i in range(12)],
        )
        plans = [ShardPlan.build(dataset, 2) for _ in range(3)]
        for other in plans[1:]:
            assert np.array_equal(plans[0].user_shard, other.user_shard)
            assert np.array_equal(plans[0].item_shard, other.item_shard)
        # Ties feed LPT in label order: components 0,1 land on shard 0's
        # heap before 2,3 balance onto shard 1.
        assert plans[0].user_shard.tolist() == [0] * 3 + [1] * 3 + [0] * 3 + [1] * 3


class TestShardDataset:
    def test_owned_users_keep_full_rows(self, giant, plan):
        for shard in range(plan.n_shards):
            sub = plan.shard_dataset(giant, shard)
            deficit = sub.user_degree_deficit
            owned = plan.users_of_shard(shard).size
            if deficit is not None:
                assert np.all(deficit[:owned] == 0.0)

    def test_degree_true_deficits(self, giant, plan):
        """Local degree + deficit == global degree, for every view node."""
        full = UserItemGraph(giant)
        global_deg = full.degrees
        for shard in range(plan.n_shards):
            sub = plan.shard_dataset(giant, shard)
            local = UserItemGraph(sub)
            nodes = np.concatenate([
                plan.shard_users(shard),
                giant.n_users + plan.shard_items(shard),
            ])
            assert local.substochastic
            np.testing.assert_allclose(local.degrees, global_deg[nodes],
                                       rtol=0, atol=1e-9)

    def test_substochastic_transition_rows(self, giant, plan):
        sub = plan.shard_dataset(giant, 0)
        transition = UserItemGraph(sub).transition_matrix()
        sums = np.asarray(transition.sum(axis=1)).ravel()
        assert np.all(sums <= 1.0 + 1e-9)
        assert np.any(sums < 1.0 - 1e-9)  # some boundary row leaks


class TestServingParity:
    def test_one_shard_bit_identical(self, giant, single_engine):
        fleet = ShardedEngine.fit(giant, AbsorbingTimeRecommender,
                                  plan=ShardPlan.build_edge_cut(
                                      giant, 1, halo_hops=HOPS))
        cohort = np.arange(giant.n_users)
        assert (fleet.serve_cohort(cohort, k=10).rows
                == single_engine.serve_cohort(cohort, k=10).rows)

    def test_halo_scores_dominate_from_below(self, giant, plan, fleet,
                                             single_engine):
        cohort = np.arange(giant.n_users)
        fleet_top = _topk_by_user(fleet.serve_cohort(cohort, k=10).rows)
        single_top = _topk_by_user(single_engine.serve_cohort(cohort, k=10).rows)
        overlaps = []
        for user, reference in single_top.items():
            served = fleet_top[user]
            shared = set(served) & set(reference)
            overlaps.append(len(shared) / len(reference))
            for item in shared:
                # Pessimistic completion: never above the true score.
                assert served[item] <= reference[item] + 1e-9
                assert abs(served[item] - reference[item]) <= 0.25
        assert np.mean(overlaps) >= 0.9

    def test_saturating_halo_recovers_exact_scores(self, giant, single_engine):
        """A halo deep enough to cover the component has nothing to cut.

        Scores match the unsharded engine to float summation order (the
        shard's owned-then-ghost node permutation reorders the CSR
        accumulations; only the 1-shard identity layout is bit-exact).
        """
        plan = ShardPlan.build_edge_cut(giant, 2, halo_hops=10 ** 6)
        for shard in range(2):
            assert plan.shard_dataset(giant, shard).has_degree_deficit is False
        fleet = ShardedEngine.fit(giant, AbsorbingTimeRecommender, plan=plan)
        cohort = np.arange(giant.n_users)
        fleet_top = _topk_by_user(fleet.serve_cohort(cohort, k=10).rows)
        single_top = _topk_by_user(single_engine.serve_cohort(cohort, k=10).rows)
        for user, reference in single_top.items():
            assert set(fleet_top[user]) == set(reference)
            for item, score in reference.items():
                assert abs(fleet_top[user][item] - score) <= 1e-9

    def test_recommend_excludes_ghost_items(self, giant, plan, fleet):
        user = 0
        shard = fleet.shard_of_user(user)
        view_items = plan.shard_items(shard)
        banned = [rec.item for rec in fleet.recommend(user, k=3)]
        assert set(banned) <= set(view_items.tolist())
        after = fleet.recommend(user, k=3, exclude=banned)
        assert not set(banned) & {rec.item for rec in after}


class TestHaloUpdates:
    def _fresh_fleet(self, giant, plan):
        return ShardedEngine.fit(giant, AbsorbingTimeRecommender, plan=plan)

    def test_co_located_event_applied_to_every_replica(self, giant, plan):
        fleet = self._fresh_fleet(giant, plan)
        user_label = giant.user_labels[0]
        item_label = giant.item_labels[giant.matrix[0].indices[0]]
        holders = fleet._shards_with_locked(user_label, "user", {})
        holders &= fleet._shards_with_locked(item_label, "item", {})
        report = fleet.apply_updates([(user_label, item_label, 5.0)],
                                     duplicates="last")
        assert report.n_shards_touched == len(holders)
        assert report.n_replaced == len(holders)
        assert report.stale_ghost_events == 0
        assert report.hint is None

    def test_new_item_lands_on_owner_and_hints_staleness(self, giant, plan):
        fleet = self._fresh_fleet(giant, plan)
        user_label = giant.user_labels[0]
        owner = fleet._user_shard_by_label[user_label]
        replicas = fleet._shards_with_locked(user_label, "user", {})
        report = fleet.apply_updates([(user_label, "fresh-item", 4.0)])
        assert report.n_new_items == 1
        assert [shard for shard, _ in report.per_shard] == [owner]
        if replicas - {owner}:
            assert report.stale_ghost_events == 1
            assert EDGE_CUT_HINT in report.hint
        # The fleet still serves, and the new item resolves globally.
        assert fleet.n_items == giant.n_items + 1
        fleet.recommend(0, k=3)

    def test_uncovered_edge_rejected_with_hint(self, giant):
        plan = ShardPlan.build_edge_cut(giant, N_SHARDS, halo_hops=1)
        fleet = self._fresh_fleet(giant, plan)
        pair = None
        for user in range(giant.n_users):
            user_label = giant.user_labels[user]
            holders = fleet._shards_with_locked(user_label, "user", {})
            for item in range(giant.n_items):
                item_label = giant.item_labels[item]
                if not holders & fleet._shards_with_locked(item_label, "item", {}):
                    pair = (user_label, item_label)
                    break
            if pair:
                break
        assert pair is not None, "1-hop halos should not cover the whole ring"
        with pytest.raises(ConfigError, match="no shard holds both"):
            fleet.apply_updates([(pair[0], pair[1], 3.0)])

    def test_batch_rejects_atomically(self, giant, plan):
        fleet = self._fresh_fleet(giant, plan)
        before = fleet.engines[0].dataset.n_ratings
        with pytest.raises(DataError):
            fleet.apply_updates([
                (giant.user_labels[0], "new-thing", 4.0),
                (giant.user_labels[1], giant.item_labels[0], 99.0),  # bad value
            ])
        assert fleet.engines[0].dataset.n_ratings == before
        assert fleet.n_items == giant.n_items


class TestComponentCrossShardError:
    """Satellite: the component tier names the offending edge + hints."""

    def test_error_names_edge_and_hints_edge_cut(self):
        federated = federated_dataset(4, scale=0.1, seed=5)
        fleet = ShardedEngine.fit(federated, AbsorbingTimeRecommender,
                                  n_shards=2)
        user_label = federated.user_labels[0]
        user_shard = fleet._user_shard_by_label[user_label]
        item_label = next(
            label for label in reversed(federated.item_labels)
            if fleet._item_shard_by_label[label] != user_shard
        )
        with pytest.raises(ConfigError) as excinfo:
            fleet.apply_updates([(user_label, item_label, 3.0)])
        message = str(excinfo.value)
        assert repr(user_label) in message
        assert repr(item_label) in message
        assert "edge-cut" in message


class TestPlanPersistence:
    def test_edge_cut_round_trip(self, plan, tmp_path):
        path = plan.save(str(tmp_path / "plan"))
        loaded = ShardPlan.load(path)
        assert loaded.partitioner == "edge-cut"
        assert loaded.halo_hops == HOPS
        assert np.array_equal(loaded.user_shard, plan.user_shard)
        assert np.array_equal(loaded.item_shard, plan.item_shard)
        for shard in range(plan.n_shards):
            assert np.array_equal(loaded.ghost_users_of_shard(shard),
                                  plan.ghost_users_of_shard(shard))
            assert np.array_equal(loaded.ghost_items_of_shard(shard),
                                  plan.ghost_items_of_shard(shard))

    def test_component_round_trip_keeps_no_halos(self, tmp_path):
        federated = federated_dataset(3, scale=0.1, seed=2)
        plan = ShardPlan.build(federated, 2)
        loaded = ShardPlan.load(plan.save(str(tmp_path / "plan")))
        assert not loaded.has_halos
        assert loaded.halo_hops is None
        assert loaded.partitioner == "component"

    def test_version_1_plan_rejected(self, plan, tmp_path):
        path = str(tmp_path / "old-plan.npz")
        np.savez_compressed(
            path,
            format_version=np.array(1, dtype=np.int64),
            n_shards=np.array(plan.n_shards, dtype=np.int64),
            user_shard=plan.user_shard,
            item_shard=plan.item_shard,
        )
        with pytest.raises(ArtifactError, match="format version 1"):
            ShardPlan.load(path)

    def test_unversioned_plan_rejected(self, plan, tmp_path):
        path = str(tmp_path / "ancient.npz")
        np.savez_compressed(path, user_shard=plan.user_shard,
                            item_shard=plan.item_shard)
        with pytest.raises(ArtifactError, match="format version"):
            ShardPlan.load(path)

    def test_current_version_is_2(self):
        assert SHARD_PLAN_FORMAT_VERSION == 2

    def test_fleet_directory_round_trip(self, giant, plan, fleet, tmp_path):
        path = fleet.save(str(tmp_path / "fleet"))
        reloaded = ShardedEngine.from_directory(path)
        cohort = np.arange(0, giant.n_users, 7)
        assert (reloaded.serve_cohort(cohort, k=5).rows
                == fleet.serve_cohort(cohort, k=5).rows)


class TestEdgeCutProperties:
    """Derandomized hypothesis sweeps over seeds/shapes (satellite)."""

    @given(seed=st.integers(0, 40), n_shards=st.sampled_from([2, 3, 4]))
    @settings(**SETTINGS)
    def test_partition_and_balance_invariants(self, seed, n_shards):
        dataset = giant_component(scale=0.05, seed=seed)
        plan = ShardPlan.build_edge_cut(dataset, n_shards, halo_hops=2)
        users = np.concatenate([plan.users_of_shard(s)
                                for s in range(n_shards)])
        assert np.array_equal(np.sort(users), np.arange(dataset.n_users))
        items = np.concatenate([plan.items_of_shard(s)
                                for s in range(n_shards)])
        assert np.array_equal(np.sort(items), np.arange(dataset.n_items))
        for shard in range(n_shards):
            assert plan.users_of_shard(shard).size >= 1
            assert plan.items_of_shard(shard).size >= 1
            ghosts = plan.ghost_users_of_shard(shard)
            assert np.all(plan.user_shard[ghosts] != shard)

    @given(seed=st.integers(0, 40))
    @settings(**SETTINGS)
    def test_shard_views_stay_degree_true(self, seed):
        dataset = giant_component(scale=0.05, seed=seed)
        plan = ShardPlan.build_edge_cut(dataset, 2, halo_hops=2)
        global_deg = degree_vector(UserItemGraph(dataset).adjacency)
        for shard in range(2):
            sub = plan.shard_dataset(dataset, shard)
            nodes = np.concatenate([
                plan.shard_users(shard),
                dataset.n_users + plan.shard_items(shard),
            ])
            np.testing.assert_allclose(UserItemGraph(sub).degrees,
                                       global_deg[nodes], rtol=0, atol=1e-9)
