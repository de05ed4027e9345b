"""TransitionCache: memoized walk structures must be correct, counted, bounded."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import AbsorbingTimeRecommender
from repro.graph.bipartite import UserItemGraph
from repro.exceptions import ConfigError
from repro.graph.cache import TransitionCache
from repro.utils.sparse import row_normalize


@pytest.fixture()
def graph(small_synth):
    return UserItemGraph(small_synth.dataset)


@pytest.fixture()
def multi_component():
    """Four disjoint user-item blocks -> four components to cache."""
    from repro.data.dataset import RatingDataset

    triples = [(f"u{b}{u}", f"i{b}{i}", float(1 + (u + i) % 5))
               for b in range(4) for u in range(3) for i in range(3)]
    dataset = RatingDataset.from_triples(triples, duplicates="last")
    return dataset, UserItemGraph(dataset)


class TestGroupEntries:
    def test_group_matches_direct_computation(self, graph):
        cache = TransitionCache(graph)
        labels = graph.component_labels()
        key = (int(labels[0]),)
        entry = cache.group(key)
        nodes = np.flatnonzero(np.isin(labels, np.array(key)))
        np.testing.assert_array_equal(entry.index.nodes, nodes)
        expected = row_normalize(
            graph.adjacency[nodes][:, nodes].tocsr(), allow_zero_rows=True
        )
        np.testing.assert_array_equal(entry.operator.transition.toarray(),
                                      expected.toarray())
        np.testing.assert_array_equal(entry.operator.user_mask,
                                      nodes < graph.n_users)
        np.testing.assert_array_equal(
            entry.index.nodes[entry.operator.n_users:],
            nodes[~entry.operator.user_mask]
        )

    def test_global_entry_reuses_graph_transition(self, graph):
        cache = TransitionCache(graph)
        entry = cache.group(None)
        assert entry.operator.transition is graph.transition_matrix()
        assert entry.index.nodes.size == graph.n_nodes

    def test_hits_and_misses_counted(self, graph):
        cache = TransitionCache(graph)
        key = (int(graph.component_labels()[0]),)
        first = cache.group(key)
        second = cache.group(key)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats()["hit_rate"] == 0.5

    def test_entropy_slice(self, graph):
        entropy = np.arange(graph.n_nodes, dtype=np.float64)
        cache = TransitionCache(graph, node_entropy=entropy)
        entry = cache.group(None)
        np.testing.assert_array_equal(entry.operator.node_entropy, entropy)

    def test_entropy_length_validated(self, graph):
        with pytest.raises(ConfigError, match="n_nodes"):
            TransitionCache(graph, node_entropy=np.ones(3))


class TestBfsEntries:
    def test_bfs_memoized_per_query(self, graph, small_synth):
        cache = TransitionCache(graph)
        seeds = small_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(seeds)
        sub1, trans1 = cache.bfs(0, seeds, absorbing, 5)
        sub2, trans2 = cache.bfs(0, seeds, absorbing, 5)
        assert sub1 is sub2 and trans1 is trans2
        assert cache.hits == 1
        # A different µ is a different expansion → separate entry.
        cache.bfs(0, seeds, absorbing, 7)
        assert cache.misses == 2


    def test_bfs_entry_holds_one_sparse_matrix_and_no_dict(self, graph,
                                                           small_synth):
        # The lean entry: the node order, its sorted inverse and the
        # prepared operator. The induced adjacency is dropped once the
        # transition is built, and parent -> local is array-backed.
        cache = TransitionCache(graph)
        seeds = small_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(seeds)
        index, operator = cache.bfs(0, seeds, absorbing, 5)
        operator.solve(index.to_local(absorbing), n_iterations=3)
        (entry,) = cache._bfs.values()
        assert entry[0] is index and entry[1] is operator and len(entry) == 2
        assert all(isinstance(value, np.ndarray)
                   for name, value in vars(index).items()
                   if name != "parent_users")
        assert isinstance(index.parent_users, int)
        held = [*vars(index).values(), *vars(operator).values()]
        sparse = [value for value in held if sp.issparse(value)]
        assert len(sparse) == 1 and sparse[0] is operator.transition
        # The operator's dicts are its bounded per-set memos, never a
        # per-node map.
        memos = {name for name, value in vars(operator).items()
                 if isinstance(value, dict)}
        assert memos == {"_factors", "_reachable_memo"}
        assert all(len(vars(operator)[name]) <= 1 for name in memos)


class TestEviction:
    def test_lru_bound_respected(self, graph):
        cache = TransitionCache(graph, max_entries=2)
        labels = graph.component_labels()
        components = np.unique(labels)[:3]
        assert components.size >= 1
        for c in components:
            cache.group((int(c),))
        assert len(cache) <= 2

    def test_lru_evicts_oldest_group_under_small_bound(self, multi_component):
        dataset, graph = multi_component
        labels = np.unique(graph.component_labels())
        assert labels.size >= 3
        cache = TransitionCache(graph, max_entries=2)
        a, b, c = (int(l) for l in labels[:3])
        entry_a = cache.group((a,))
        cache.group((b,))
        cache.group((a,))  # refresh A: B is now the least-recently-used
        cache.group((c,))  # bound 2 exceeded -> the oldest (B) is evicted
        assert ("group", a) in cache._groups
        assert ("group", c) in cache._groups
        assert ("group", b) not in cache._groups
        assert cache.group((a,)) is entry_a  # A survived, same object

    def test_counters_stay_monotone_under_eviction_churn(self, multi_component):
        dataset, graph = multi_component
        labels = np.unique(graph.component_labels())
        cache = TransitionCache(graph, max_entries=2)
        seen = (0, 0)
        for step in range(12):
            cache.group((int(labels[step % labels.size]),))
            now = (cache.hits, cache.misses)
            assert now[0] >= seen[0] and now[1] >= seen[1]
            assert sum(now) == sum(seen) + 1
            seen = now

    def test_readmission_revalidates_exactly_once_per_live_operator(
            self, multi_component):
        # An evicted group rebuilt later gets a fresh prepared operator that
        # validates once — the aggregate validation count always equals the
        # number of live operators, never more (no warm-path revalidation).
        dataset, graph = multi_component
        labels = np.unique(graph.component_labels())
        cache = TransitionCache(graph, max_entries=2)
        a, b, c = (int(l) for l in labels[:3])
        for key in (a, b, c, a):  # the last call re-admits the evicted A
            entry = cache.group((key,))
            entry.operator.solve(np.array([0]), n_iterations=2)
        stats = cache.operator_stats()
        assert stats["operators"] == 2
        assert stats["validations"] == stats["operators"]
        assert stats["solves"] >= 2

    def test_bfs_churn_cannot_evict_group_entries(self, graph, small_synth):
        # Per-query BFS entries live in their own LRU: flooding it must leave
        # the shared group transitions untouched.
        cache = TransitionCache(graph, max_bfs_entries=2)
        group_entry = cache.group(None)
        for user in range(8):
            seeds = small_synth.dataset.items_of_user(user)
            cache.bfs(user, seeds, graph.item_nodes(seeds), 3)
        assert cache.stats()["bfs_entries"] <= 2
        assert cache.group(None) is group_entry

    def test_clear_resets_everything(self, graph):
        cache = TransitionCache(graph)
        cache.group(None)
        cache.group(None)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


class TestRecommenderIntegration:
    def test_cache_built_lazily_and_reported(self, small_synth):
        recommender = AbsorbingTimeRecommender().fit(small_synth.dataset)
        assert recommender.scoring_cache_stats() is None
        users = np.arange(0, 40, 7)
        first = recommender.score_users(users)
        stats_after_first = recommender.scoring_cache_stats()
        assert stats_after_first is not None
        second = recommender.score_users(users)
        stats_after_second = recommender.scoring_cache_stats()
        np.testing.assert_array_equal(first, second)
        assert stats_after_second["hits"] > stats_after_first["hits"]

    def test_refit_invalidates_cache(self, small_synth, medium_synth):
        recommender = AbsorbingTimeRecommender().fit(small_synth.dataset)
        recommender.score_users(np.arange(4))
        assert recommender.transition_cache is not None
        recommender.fit(medium_synth.dataset)
        assert recommender.transition_cache is None
        # And scoring the new dataset works with fresh structures.
        scores = recommender.score_users(np.arange(4))
        assert scores.shape == (4, medium_synth.dataset.n_items)

    def test_solo_bfs_queries_hit_cache_on_repeat(self):
        from repro.data.dataset import RatingDataset

        triples = [(f"u{i}", f"i{j}", 3.0)
                   for i in range(6) for j in range(8) if (i + j) % 2]
        dataset = RatingDataset.from_triples(triples)
        recommender = AbsorbingTimeRecommender(subgraph_size=2).fit(dataset)
        users = np.arange(dataset.n_users)
        first = recommender.score_users(users)
        hits_before = recommender.transition_cache.hits
        second = recommender.score_users(users)
        np.testing.assert_array_equal(first, second)
        assert recommender.transition_cache.hits > hits_before


class TestTargetedInvalidation:
    """apply_update must evict touched components only, everything counted."""

    def _update(self, dataset, graph, events):
        delta = dataset.extend(events, duplicates="last")
        return delta, graph.apply_delta(delta)

    def test_untouched_groups_survive_touched_are_evicted(self, multi_component):
        dataset, graph = multi_component
        labels = graph.component_labels()
        cache = TransitionCache(graph)
        touched_key = (int(labels[dataset.user_id("u00")]),)
        safe_key = (int(labels[dataset.user_id("u10")]),)
        cache.group(touched_key)
        safe_entry = cache.group(safe_key)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        counts = cache.apply_update(update)
        assert counts == {"invalidated_groups": 1, "retained_groups": 1,
                          "invalidated_bfs": 0, "retained_bfs": 0}
        assert cache.group(safe_key) is safe_entry  # still warm, a hit
        stats = cache.stats()
        assert stats["invalidated_groups"] == 1
        assert stats["retained_groups"] == 1

    def test_global_entry_always_evicted(self, multi_component):
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        cache.group(None)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        assert cache.apply_update(update)["invalidated_groups"] == 1
        assert len(cache) == 0

    def test_user_shift_remaps_retained_nodes(self, multi_component):
        dataset, graph = multi_component
        labels = graph.component_labels()
        cache = TransitionCache(graph)
        safe_key = (int(labels[dataset.user_id("u10")]),)
        before = cache.group(safe_key)
        _, update = self._update(dataset, graph, [("brand-new", "i00", 2.0)])
        cache.apply_update(update)
        after = cache.group(safe_key)
        assert after.operator is before.operator  # warm structures reused
        expected = np.where(before.index.nodes < graph.n_users,
                            before.index.nodes, before.index.nodes + 1)
        np.testing.assert_array_equal(after.index.nodes, expected)
        np.testing.assert_array_equal(after.index.sorted_local,
                                      before.index.sorted_local)
        assert after.index.parent_users == update.graph.n_users
        # A group's index is its own inverse, and the shift keeps it one.
        assert after.index.sorted_nodes is after.index.nodes
        # And the remapped entry matches what a cold cache would build.
        cold = TransitionCache(update.graph).group(safe_key)
        np.testing.assert_array_equal(cold.index.nodes, after.index.nodes)
        np.testing.assert_array_equal(cold.operator.transition.toarray(),
                                      after.operator.transition.toarray())

    def test_shifted_index_locates_like_a_cold_entry(self, multi_component):
        # The shift moves the item nodes in both the local order and the
        # sorted inverse; locate searches the latter, so absorbing sets map
        # to the same local rows as on a freshly built entry.
        dataset, graph = multi_component
        labels = graph.component_labels()
        cache = TransitionCache(graph)
        safe_key = (int(labels[dataset.user_id("u10")]),)
        cache.group(safe_key)
        _, update = self._update(dataset, graph, [("new-a", "i00", 2.0),
                                                  ("new-b", "i01", 4.0)])
        assert update.n_new_users == 2
        assert cache.apply_update(update)["retained_groups"] == 1
        retained = cache.group(safe_key)
        cold = TransitionCache(update.graph).group(safe_key)
        probe = np.arange(update.graph.n_nodes)
        np.testing.assert_array_equal(retained.index.locate(probe),
                                      cold.index.locate(probe))
        assert (retained.index.locate(cold.index.nodes) >= 0).all()

    def test_build_racing_an_update_stays_out_of_the_new_lru(
            self, multi_component, monkeypatch):
        # An update landing while an entry is built rebinds the LRUs. The
        # entry came from the old graph: it serves its own caller, but a
        # later lookup must build afresh on the updated graph.
        dataset, graph = multi_component
        labels = graph.component_labels()
        cache = TransitionCache(graph)
        safe_key = (int(labels[dataset.user_id("u10")]),)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        build = cache._build_group

        def build_then_update(*args):
            entry = build(*args)
            cache.apply_update(update)
            return entry

        monkeypatch.setattr(cache, "_build_group", build_then_update)
        stale = cache.group(safe_key)
        assert len(cache) == 0
        monkeypatch.undo()
        assert cache.group(safe_key) is not stale

    def test_build_overtaken_by_new_users_scores_its_caller(
            self, multi_component, monkeypatch):
        # The update appends a user, so every item node moves up by one
        # while the entry is being built from the old graph. The row it
        # serves must still be the pre-update row, item for item: the
        # scatter maps item nodes by the entry's own user count, not the
        # live graph's.
        dataset, _ = multi_component
        user = dataset.user_id("u10")
        expected = AbsorbingTimeRecommender(subgraph_size=12).fit(
            dataset).score_users(np.array([user]))
        assert np.isfinite(expected).sum() > 1
        recommender = AbsorbingTimeRecommender(subgraph_size=12).fit(dataset)
        cache = recommender._ensure_cache()
        delta = dataset.extend([("brand-new", "i00", 2.0)], duplicates="last")
        build = cache._build_group

        def build_then_update(*args):
            entry = build(*args)
            recommender.partial_fit(delta)
            return entry

        monkeypatch.setattr(cache, "_build_group", build_then_update)
        served = recommender.score_users(np.array([user]))
        monkeypatch.undo()
        assert recommender.graph.n_users == dataset.n_users + 1
        np.testing.assert_array_equal(served, expected)

    def test_bfs_entries_evicted_on_user_shift_or_touch(self, multi_component):
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        seeds = dataset.items_of_user(dataset.user_id("u00"))
        safe_seeds = dataset.items_of_user(dataset.user_id("u10"))
        cache.bfs(0, seeds, graph.item_nodes(seeds), 2)
        cache.bfs(3, safe_seeds, graph.item_nodes(safe_seeds), 2)
        # Touch block 0 only: block 1's BFS entry survives.
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        counts = cache.apply_update(update)
        assert counts["invalidated_bfs"] == 1
        assert counts["retained_bfs"] == 1
        # A user shift invalidates all BFS entries (their keys embed node ids).
        dataset2, graph2 = update.graph.dataset, update.graph
        _, update2 = self._update(dataset2, graph2, [("someone", "i10", 2.0)])
        assert cache.apply_update(update2)["invalidated_bfs"] == 1
        assert cache.stats()["bfs_entries"] == 0

    def test_entropy_vector_swapped_and_validated(self, multi_component):
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        with pytest.raises(ConfigError, match="n_nodes"):
            cache.apply_update(update, node_entropy=np.ones(3))
        entropy = np.arange(update.graph.n_nodes, dtype=np.float64)
        cache.apply_update(update, node_entropy=entropy)
        assert cache.graph is update.graph
        np.testing.assert_array_equal(cache.node_entropy, entropy)
        with pytest.raises(ConfigError, match="GraphUpdate"):
            cache.apply_update("nope")


class TestPreparedOperators:
    def test_group_entry_carries_validated_operator(self, graph):
        cache = TransitionCache(graph)
        entry = cache.group(None)
        assert entry.operator.transition is graph.transition_matrix()
        assert entry.operator.validations == 1

    def test_group_served_twice_validates_once(self, graph):
        cache = TransitionCache(graph)
        entry = cache.group(None)
        entry.operator.solve(np.array([0]), n_iterations=3)
        entry.operator.solve(np.array([0]), n_iterations=3)
        again = cache.group(None)
        assert again.operator is entry.operator
        stats = cache.operator_stats()
        assert stats["operators"] == 1
        assert stats["validations"] == 1
        assert stats["solves"] == 2
        assert cache.stats()["operator_validations"] == 1

    def test_bfs_entry_carries_operator(self, graph, small_synth):
        from repro.solver import WalkOperator

        cache = TransitionCache(graph)
        seeds = small_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(seeds)
        sub, operator = cache.bfs(0, seeds, absorbing, 5)
        assert isinstance(operator, WalkOperator)
        assert operator.n_nodes == sub.n_nodes
        assert operator.validations == 1
        _, again = cache.bfs(0, seeds, absorbing, 5)
        assert again is operator
        assert cache.operator_stats()["validations"] == 1


class TestRacingColdMisses:
    """Threads that miss on one cold key at once get one entry between them.

    Each builds outside the lock; the insert re-checks the LRU under it, so
    the first build wins and every other caller gets that same object. A
    tiny switch interval lets a thread lose the GIL anywhere in the build.
    One round overlaps two builds only some of the time, so each test runs
    a fresh cold cache per round.
    """

    N_THREADS = 6
    ROUNDS = 20

    def _race(self, lookup):
        barrier = threading.Barrier(self.N_THREADS)
        entries = [None] * self.N_THREADS
        errors = []

        def run(slot):
            try:
                barrier.wait(timeout=30)
                entries[slot] = lookup()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        return entries

    def test_group_race_shares_one_entry(self, graph):
        key = (int(graph.component_labels()[0]),)
        for _ in range(self.ROUNDS):
            cache = TransitionCache(graph)
            entries = self._race(lambda: cache.group(key))
            assert all(entry is entries[0] for entry in entries)
            assert cache.hits + cache.misses == self.N_THREADS
            assert len(cache._groups) == 1 and len(cache._bfs) == 0
            assert cache.group(key) is entries[0]

    def test_bfs_race_shares_one_entry(self, graph, small_synth):
        seeds = small_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(seeds)
        for _ in range(self.ROUNDS):
            cache = TransitionCache(graph)
            entries = self._race(lambda: cache.bfs(0, seeds, absorbing, 5))
            assert all(entry is entries[0] for entry in entries)
            assert cache.hits + cache.misses == self.N_THREADS
            assert len(cache._bfs) == 1 and len(cache._groups) == 0
            assert cache.bfs(0, seeds, absorbing, 5) is entries[0]
