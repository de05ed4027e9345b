"""Unit tests for the Hitting Time recommender (beyond the golden numbers)."""

import numpy as np
import pytest

from repro.core.hitting_time import HittingTimeRecommender
from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigError
from repro.graph.bipartite import UserItemGraph
from repro.graph.random_walk import monte_carlo_absorbing_time


class TestHittingTimes:
    def test_matches_monte_carlo(self, chain):
        """Analytic hitting time agrees with simulation on the chain."""
        rec = HittingTimeRecommender(method="exact").fit(chain)
        times = rec.hitting_times(0)  # u0 is a chain endpoint
        graph = UserItemGraph(chain)
        item = chain.item_id("i2")
        estimate = monte_carlo_absorbing_time(
            graph.adjacency, graph.item_node(item), {graph.user_node(0)},
            n_walks=4000, rng=np.random.default_rng(3),
        )
        assert estimate == pytest.approx(times[item], rel=0.12)

    def test_unreachable_items_inf_and_excluded(self, disconnected):
        rec = HittingTimeRecommender(method="exact").fit(disconnected)
        user_a = 0
        times = rec.hitting_times(user_a)
        other_items = [disconnected.item_id(f"b_i{i}") for i in range(3)]
        assert np.isinf(times[other_items]).all()
        recs = rec.recommend_items(user_a, k=10)
        assert set(recs.tolist()).isdisjoint(other_items)

    def test_popularity_discount(self):
        """Two items equally relevant to q: the less popular one wins.

        Construct q who rated a 'hub' item; candidate items n (niche) and
        p (popular) connect to q's neighbourhood identically except p is
        additionally rated by many outside users.
        """
        triples = [("q", "hub", 5.0), ("v", "hub", 5.0),
                   ("v", "niche", 5.0), ("v", "popular", 5.0)]
        for extra in range(8):
            triples.append((f"crowd{extra}", "popular", 5.0))
            triples.append((f"crowd{extra}", "other", 3.0))
        ds = RatingDataset.from_triples(triples)
        rec = HittingTimeRecommender(method="exact").fit(ds)
        times = rec.hitting_times(ds.user_id("q"))
        assert times[ds.item_id("niche")] < times[ds.item_id("popular")]

    def test_cold_start_user_gets_nothing(self):
        matrix = np.array([[5.0, 3.0], [0.0, 0.0]])
        ds = RatingDataset(matrix)
        rec = HittingTimeRecommender().fit(ds)
        assert rec.recommend(1, k=5) == []

    def test_query_user_outside_the_subgraph_gets_nothing(self, fig2):
        """µ = 1, and every Fig. 2 user rated more items than that: the
        search stops at the seeds, so the query user, HT's absorbing set,
        is not in the subgraph and no item gets a score."""
        rec = HittingTimeRecommender(subgraph_size=1).fit(fig2)
        users = np.arange(fig2.n_users)
        assert all(fig2.items_of_user(int(u)).size > 1 for u in users)
        assert np.isneginf(rec.score_users(users)).all()
        for user in users:
            assert rec.recommend(int(user), k=5) == []

    def test_score_is_negated_time(self, fig2):
        rec = HittingTimeRecommender(n_iterations=20).fit(fig2)
        u5 = fig2.user_id("U5")
        scores = rec.score_items(u5)
        times = rec.hitting_times(u5)
        finite = np.isfinite(scores)
        np.testing.assert_allclose(scores[finite], -times[finite])

    def test_subgraph_mode_matches_global_on_small_graph(self, fig2):
        """With a budget covering everything, subgraph == global ranking."""
        u5 = fig2.user_id("U5")
        global_rec = HittingTimeRecommender(n_iterations=25).fit(fig2)
        local_rec = HittingTimeRecommender(n_iterations=25, subgraph_size=100).fit(fig2)
        np.testing.assert_allclose(
            global_rec.score_items(u5), local_rec.score_items(u5), atol=1e-9
        )

    def test_invalid_method_rejected(self):
        with pytest.raises(ConfigError):
            HittingTimeRecommender(method="magic")

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ConfigError):
            HittingTimeRecommender(n_iterations=0)
