"""Incremental-update parity for every registered recommender.

The contract of the update pipeline: after any sequence of rating events —
new users, new items, re-rates of existing pairs —
``partial_fit(delta)`` leaves the recommender scoring **bit-identically**
to a from-scratch refit on the merged dataset. Asserted here for every
class in the artifact registry, with warm scoring caches deliberately
filled *before* each update so the targeted invalidation (and the retained
entries' node remapping) is what's actually under test.
"""

import numpy as np
import pytest

from repro.core.artifacts import registered_recommenders
from repro.core.base import PartialFitReport
from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigError
from repro import AbsorbingCostRecommender, AbsorbingTimeRecommender

REGISTRY = sorted(registered_recommenders().items())


def _base_dataset() -> RatingDataset:
    rng = np.random.default_rng(42)
    triples = [(f"A{u}", f"ai{i}", float(rng.integers(1, 6)))
               for u in range(10) for i in range(8) if rng.random() < 0.45]
    triples += [(f"B{u}", f"bi{i}", float(rng.integers(1, 6)))
                for u in range(8) for i in range(6) if rng.random() < 0.5]
    return RatingDataset.from_triples(triples, duplicates="last")


def _event_rounds(dataset: RatingDataset, seed: int) -> list[list[tuple]]:
    """Three randomized batches covering every event species."""
    rng = np.random.default_rng(seed)

    def pick(labels):
        return labels[int(rng.integers(len(labels)))]

    users, items = dataset.user_labels, dataset.item_labels
    rate = lambda: float(rng.integers(1, 6))
    return [
        # re-rates and new pairs among existing nodes
        [(pick(users), pick(items), rate()) for _ in range(4)],
        # new users rating existing items, existing users rating new items
        [(f"nu{seed}a", pick(items), rate()),
         (f"nu{seed}b", pick(items), rate()),
         (pick(users), f"ni{seed}a", rate())],
        # a component bridge plus a brand-new isolated pair
        [("A0", "bi0", rate()), (f"nu{seed}c", f"ni{seed}c", rate()),
         (pick(users), pick(items), rate())],
    ]


def _assert_parity(updated, fresh, dataset):
    batch = updated.score_users()
    scratch = fresh.score_users()
    np.testing.assert_array_equal(batch, scratch)
    items_a, scores_a = updated.recommend_batch_arrays(k=8)
    items_b, scores_b = fresh.recommend_batch_arrays(k=8)
    np.testing.assert_array_equal(items_a, items_b)
    np.testing.assert_array_equal(scores_a, scores_b)


@pytest.mark.parametrize("name,cls", REGISTRY, ids=[n for n, _ in REGISTRY])
def test_partial_fit_matches_refit_bit_for_bit(name, cls):
    base = _base_dataset()
    recommender = cls().fit(base)
    recommender.score_users()  # fill warm caches before the first update
    current = base
    for round_number, events in enumerate(_event_rounds(base, seed=7)):
        delta = current.extend(events, duplicates="last")
        report = recommender.partial_fit(delta)
        assert isinstance(report, PartialFitReport)
        assert report.mode in ("incremental", "refit")
        current = delta.dataset
        _assert_parity(recommender, cls().fit(current), current)
    # New users/items are fully live: the last round added both.
    assert recommender.dataset.n_users > base.n_users
    assert recommender.dataset.n_items > base.n_items
    recommender.recommend(recommender.dataset.n_users - 1, k=3)


class TestAbsorbingCostVariants:
    """The registry covers AC2 (topic); the other entropy sources ride here."""

    def test_item_entropy_is_incremental_and_exact(self):
        base = _base_dataset()
        recommender = AbsorbingCostRecommender.item_based().fit(base)
        recommender.score_users()
        delta = base.extend([("A0", "ai0", 4.0), ("nu", "bi0", 2.0)],
                            duplicates="last")
        report = recommender.partial_fit(delta)
        assert report.mode == "incremental"
        fresh = AbsorbingCostRecommender.item_based().fit(delta.dataset)
        np.testing.assert_array_equal(recommender.user_entropies(),
                                      fresh.user_entropies())
        _assert_parity(recommender, fresh, delta.dataset)

    def test_topic_entropy_falls_back_to_refit(self):
        base = _base_dataset()
        recommender = AbsorbingCostRecommender.topic_based(n_topics=4).fit(base)
        delta = base.extend([("A0", "ai0", 4.0)], duplicates="last")
        report = recommender.partial_fit(delta)
        assert report.mode == "refit"
        assert report.affected_users is None
        fresh = AbsorbingCostRecommender.topic_based(n_topics=4).fit(delta.dataset)
        _assert_parity(recommender, fresh, delta.dataset)

    def test_precomputed_entropy_rejects_new_users(self):
        base = _base_dataset()
        entropies = np.linspace(0.1, 1.0, base.n_users)
        recommender = AbsorbingCostRecommender(entropy=entropies).fit(base)
        # No new users: the fixed array still covers everyone.
        delta = base.extend([("A0", "ai0", 4.0)], duplicates="last")
        assert recommender.partial_fit(delta).mode == "incremental"
        # A new user has no entropy: must refuse, like a refit would.
        delta2 = recommender.dataset.extend([("stranger", "ai0", 3.0)])
        with pytest.raises(ConfigError, match="new users"):
            recommender.partial_fit(delta2)


class TestPartialFitValidation:
    def test_delta_must_extend_the_fitted_dataset(self):
        base = _base_dataset()
        recommender = AbsorbingTimeRecommender().fit(base)
        other = RatingDataset.from_triples([("x", "y", 3.0)])
        with pytest.raises(ConfigError, match="does not match"):
            recommender.partial_fit(other.extend([("x", "z", 2.0)]))
        with pytest.raises(ConfigError, match="DatasetDelta"):
            recommender.partial_fit(base)

    def test_stale_delta_rejected_after_apply(self):
        base = _base_dataset()
        recommender = AbsorbingTimeRecommender().fit(base)
        delta = base.extend([("nu", "ai0", 3.0)])
        recommender.partial_fit(delta)
        with pytest.raises(ConfigError, match="does not match"):
            recommender.partial_fit(delta)  # base moved on

    def test_requires_fit_first(self):
        base = _base_dataset()
        delta = base.extend([("nu", "ai0", 3.0)])
        from repro.exceptions import NotFittedError
        with pytest.raises(NotFittedError):
            AbsorbingTimeRecommender().partial_fit(delta)

    def test_rejected_update_leaves_state_untouched(self):
        """A partial_fit that refuses must not half-mutate the recommender."""
        from repro import CommuteTimeRecommender, LDARecommender
        from repro.topics import fit_lda

        base = _base_dataset()
        n_nodes = base.n_users + base.n_items
        commute = CommuteTimeRecommender(max_nodes=n_nodes).fit(base)
        commute.score_users()  # warm the pinv memo
        before = commute.score_users()
        with pytest.raises(ConfigError, match="max_nodes"):
            commute.partial_fit(base.extend([("overflow", "ai0", 3.0)]))
        assert commute.dataset is base
        np.testing.assert_array_equal(commute.score_users(), before)

        model = fit_lda(base, 4, seed=0)
        lda = LDARecommender(n_topics=4, model=model).fit(base)
        with pytest.raises(ConfigError, match="does not match"):
            lda.partial_fit(base.extend([("nu", "ni", 3.0)]))
        assert lda.dataset is base
        assert lda.model is model
        # A same-shape delta keeps the supplied model, as fit() would.
        delta = base.extend([("A0", "ai0", 2.0)], duplicates="last")
        assert lda.partial_fit(delta).mode == "refit"
        assert lda.model is model


class TestWarmCacheRetentionParity:
    """Retained cache entries must serve the post-update graph exactly."""

    def test_untouched_group_entry_survives_and_scores_identically(self):
        base = _base_dataset()
        recommender = AbsorbingTimeRecommender(subgraph_size=12).fit(base)
        users = np.arange(base.n_users)
        recommender.score_users(users)
        cache = recommender.transition_cache
        entries_before = {key: entry for key, entry in cache._groups.items()}
        # Touch only block A (labels of block B stay stable).
        delta = base.extend([("A0", "ai1", 4.0), ("freshman", "ai0", 5.0)],
                            duplicates="last")
        recommender.partial_fit(delta)
        assert recommender.transition_cache is cache
        retained = [key for key in entries_before if key in cache._groups]
        assert retained, "expected untouched component groups to survive"
        for key in retained:
            # Same prepared operator object: no re-validation, warm solves.
            assert cache._groups[key].operator is entries_before[key].operator
        stats = cache.stats()
        assert stats["retained_groups"] > 0
        assert stats["invalidated_groups"] > 0
        _assert_parity(
            recommender,
            AbsorbingTimeRecommender(subgraph_size=12).fit(delta.dataset),
            delta.dataset,
        )
        # Serving again through the retained entries really hits them.
        hits_before = cache.hits
        recommender.score_users(np.arange(delta.dataset.n_users))
        assert cache.hits > hits_before

    def test_node_shift_remap_after_new_users(self):
        base = _base_dataset()
        recommender = AbsorbingTimeRecommender(subgraph_size=12).fit(base)
        recommender.score_users(np.arange(base.n_users))
        cache = recommender.transition_cache
        base_graph = recommender.graph
        item_indices = {
            key: entry.index.nodes[entry.operator.n_users:] - base_graph.n_users
            for key, entry in cache._groups.items()
        }
        delta = base.extend([("newcomer", "ai0", 3.0)], duplicates="last")
        recommender.partial_fit(delta)
        graph = recommender.graph
        assert graph.n_users == base_graph.n_users + 1
        assert cache._groups, "expected untouched component groups to survive"
        for key, entry in cache._groups.items():
            # Remapped parent nodes must address the same item indices again.
            items = entry.index.nodes[entry.operator.n_users:] - graph.n_users
            np.testing.assert_array_equal(items, item_indices[key])
            assert entry.index.nodes.max() < graph.n_nodes
