"""Solo users: a cohort's µ-truncated BFS queries on the helper pool.

A user whose BFS truncates at µ gets a subgraph of their own, so a
cohort's solo users are independent solves. ``_score_users_batch`` scores
two or more distinct ones on the calling thread plus the process-wide
helper pool (:func:`repro.core.graph_base._solo_helpers`). These tests pin
the contract: rows bit-identical to one-user calls, a repeated user built
once, a lone solo user inline, the first failing position's exception,
and no hang in a process forked after the pool started (a plain fork or a
process-fleet worker).
"""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.core.graph_base as graph_base
import repro.graph.cache as cache_module
from repro import (
    AbsorbingCostRecommender,
    AbsorbingTimeRecommender,
    HittingTimeRecommender,
    ShardedEngine,
    ShardPlan,
)
from repro.data.synthetic import giant_component
from repro.service import ProcessShardFleet

MU = 40  # below the giant component's 240 items: every user is solo

RECOMMENDERS = {
    "AT": AbsorbingTimeRecommender,
    "AC1": AbsorbingCostRecommender.item_based,
    "AC2": AbsorbingCostRecommender.topic_based,
    "HT": HittingTimeRecommender,
}


needs_two_cpus = pytest.mark.skipif(
    graph_base._usable_cpus() < 2,
    reason="the helper pool needs two usable CPUs")
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")


@pytest.fixture(scope="module")
def giant():
    return giant_component(0.15, seed=41)


@pytest.fixture()
def fresh_pool(monkeypatch):
    """A pool state of its own: unstarted on entry, shut down on exit."""
    monkeypatch.setattr(graph_base, "_solo_pool", None)
    yield
    pool = graph_base._solo_pool
    if pool is not None and pool[2] is not None:
        pool[2].shutdown(wait=True)


def _fit(name, giant, **kwargs):
    return RECOMMENDERS[name](subgraph_size=MU, **kwargs).fit(giant)


def _solo_positions(recommender, users):
    users = np.asarray(users, dtype=np.int64)
    groups, solo = recommender._partition_cohort(
        users, [recommender._absorbing_nodes(int(u)) for u in users])
    assert not groups
    return solo


class TestParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(RECOMMENDERS))
    def test_pooled_cohort_matches_one_user_calls(self, giant, fresh_pool,
                                                  name, dtype):
        cohort = np.array([3, 77, 150, 3, 211, 9, 77, 302], dtype=np.int64)
        pooled = _fit(name, giant, dtype=dtype)
        assert len(_solo_positions(pooled, cohort)) == cohort.size
        rows = pooled.score_users(cohort)
        alone = _fit(name, giant, dtype=dtype)
        expected = np.stack([alone.score_users(np.array([user]))[0]
                             for user in cohort])
        assert rows.tobytes() == expected.tobytes()


class TestPoolUse:
    @needs_two_cpus
    def test_distinct_solo_users_score_on_two_threads(self, giant,
                                                      fresh_pool):
        """Each user waits at a two-party barrier, so the call completes
        only if two threads score at once."""
        recommender = _fit("AT", giant)
        barrier = threading.Barrier(2, timeout=30)
        threads = []
        score_user_bfs = recommender._score_user_bfs

        def scored_at_the_barrier(user, absorbing):
            threads.append(threading.get_ident())
            barrier.wait()
            return score_user_bfs(user, absorbing)

        recommender._score_user_bfs = scored_at_the_barrier
        rows = recommender.score_users(np.array([5, 140]))
        assert len(set(threads)) == 2
        assert threading.get_ident() in threads
        del recommender._score_user_bfs
        assert rows.tobytes() == recommender.score_users(
            np.array([5, 140])).tobytes()

    def test_one_solo_user_starts_no_pool(self, giant, fresh_pool):
        recommender = _fit("AT", giant)
        before = {t.ident for t in threading.enumerate()}
        rows = recommender.score_users(np.array([12, 12, 12]))
        assert graph_base._solo_pool is None
        assert {t.ident for t in threading.enumerate()} <= before
        assert (rows == rows[0]).all()

    def test_repeated_user_is_built_once(self, giant, fresh_pool,
                                         monkeypatch):
        built = []
        bfs_subgraph = cache_module.bfs_subgraph

        def counted(graph, seed_items, max_items):
            built.append(seed_items.tobytes())
            return bfs_subgraph(graph, seed_items, max_items)

        monkeypatch.setattr(cache_module, "bfs_subgraph", counted)
        recommender = _fit("AT", giant)
        scored = []
        score_user_bfs = recommender._score_user_bfs

        def counted_score(user, absorbing):
            scored.append(user)
            return score_user_bfs(user, absorbing)

        recommender._score_user_bfs = counted_score
        cohort = np.array([40, 41, 40, 42, 41, 40])
        rows = recommender.score_users(cohort)
        assert sorted(scored) == [40, 41, 42]
        assert len(built) == len(set(built)) == 3
        assert recommender.scoring_cache_stats()["misses"] == 3
        for position, user in enumerate(cohort):
            first = int(np.flatnonzero(cohort == user)[0])
            assert rows[position].tobytes() == rows[first].tobytes()

    def test_racing_callers_share_the_pool(self, giant, fresh_pool):
        """Four callers score solo cohorts on one recommender at once, with
        a tiny switch interval: every user is claimed exactly once per
        call and every row matches its one-user reference."""
        recommender = _fit("AT", giant)
        cohorts = [np.array([20 + 3 * k, 21 + 3 * k, 22 + 3 * k, 20 + 3 * k])
                   for k in range(4)]
        reference = _fit("AT", giant)
        expected = [np.stack([reference.score_users(np.array([user]))[0]
                              for user in cohort]) for cohort in cohorts]
        lock = threading.Lock()
        claimed, errors, calls = [0], [], [0]
        score_user_bfs = recommender._score_user_bfs

        def counted(user, absorbing):
            with lock:
                claimed[0] += 1
            return score_user_bfs(user, absorbing)

        recommender._score_user_bfs = counted
        deadline = time.monotonic() + 1.0

        def caller(k):
            try:
                while time.monotonic() < deadline and not errors:
                    rows = recommender.score_users(cohorts[k])
                    assert rows.tobytes() == expected[k].tobytes()
                    with lock:
                        calls[0] += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(len(cohorts))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert calls[0] >= len(cohorts)
        assert claimed[0] == 3 * calls[0]  # three distinct users a cohort

    def test_first_failing_position_raises_after_every_task(self, giant,
                                                            fresh_pool):
        """Position 1 fails late and position 2 early; position 1's error
        is raised, as inline scoring raises it, once no user is being
        scored."""
        recommender = _fit("AT", giant)
        cohort = np.array([60, 61, 62, 63])
        active, entered = [0], []
        lock = threading.Lock()
        score_user_bfs = recommender._score_user_bfs

        def failing(user, absorbing):
            with lock:
                active[0] += 1
                entered.append(user)
            try:
                if user == 61:
                    time.sleep(0.2)
                    raise ValueError("position 1")
                if user == 62:
                    raise ValueError("position 2")
                return score_user_bfs(user, absorbing)
            finally:
                with lock:
                    active[0] -= 1

        recommender._score_user_bfs = failing
        with pytest.raises(ValueError, match="position 1"):
            recommender.score_users(cohort)
        assert active[0] == 0
        assert 61 in entered
        assert len(entered) == len(set(entered))

    @needs_two_cpus
    def test_shut_down_pool_leaves_users_to_the_caller(self, giant,
                                                       fresh_pool):
        """At interpreter exit the pool takes no more jobs; a thread still
        scoring (a server draining after the main thread returned) scores
        its cohort alone instead of raising RuntimeError."""
        recommender = _fit("AT", giant)
        recommender.score_users(np.array([1, 2]))  # starts the pool
        graph_base._solo_pool[2].shutdown(wait=True)
        cohort = np.array([30, 31, 32])
        rows = recommender.score_users(cohort)
        assert rows.tobytes() == _fit("AT", giant).score_users(
            cohort).tobytes()


def _scores_in_child(recommender, cohort, expected):
    """Score ``cohort`` (two distinct users) at a two-party barrier, so the
    child completes only on a pool of its own."""
    barrier = threading.Barrier(2, timeout=10)
    threads = set()
    score_user_bfs = recommender._score_user_bfs

    def scored_at_the_barrier(user, absorbing):
        threads.add(threading.get_ident())
        barrier.wait()
        return score_user_bfs(user, absorbing)

    recommender._score_user_bfs = scored_at_the_barrier
    rows = recommender.score_users(cohort)
    assert len(threads) == 2
    assert rows.tobytes() == expected.tobytes()


class TestForkSafety:
    TIMEOUT_S = 30

    @needs_fork
    @needs_two_cpus
    def test_child_forked_after_pool_start_scores_on_its_own_pool(
            self, giant, fresh_pool):
        recommender = _fit("AT", giant)
        recommender.score_users(np.array([1, 2, 3]))  # starts the pool
        assert graph_base._solo_pool[2] is not None
        cohort = np.array([100, 101, 100])
        expected = _fit("AT", giant).score_users(cohort)
        child = multiprocessing.get_context("fork").Process(
            target=_scores_in_child, args=(recommender, cohort, expected))
        child.start()
        child.join(self.TIMEOUT_S)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung, "forked child hung scoring a solo cohort"
        assert child.exitcode == 0

    @needs_fork
    def test_fleet_worker_scores_solo_cohort_inline(self, giant, fresh_pool,
                                                    tmp_path, monkeypatch):
        plan = ShardPlan.build(giant, 1)
        sharded = ShardedEngine.fit(
            giant, lambda: AbsorbingTimeRecommender(subgraph_size=MU),
            plan=plan)
        sharded.save(str(tmp_path / "shards"))
        users = [7, 8, 9, 7]
        expected = sharded.recommend_many(users, k=5)  # starts the pool
        # Forked workers inherit this spy, which records that the worker
        # turned its pool off at boot.
        marker = tmp_path / "inline-pid"
        inline = graph_base._score_solo_users_inline

        def spy():
            marker.write_text(str(os.getpid()))
            inline()

        monkeypatch.setattr(graph_base, "_score_solo_users_inline", spy)
        with ProcessShardFleet.from_directory(
                str(tmp_path / "shards"), wal_dir=str(tmp_path / "wal"),
                request_timeout_s=self.TIMEOUT_S,
                start_method="fork") as fleet:
            rows = fleet.recommend_many(users, k=5)
            health = fleet.health()
        assert health["restarts"] == 0
        assert marker.read_text() == str(health["shards"][0]["pid"])
        assert [[(r.item, r.score) for r in row] for row in rows] \
            == [[(r.item, r.score) for r in row] for row in expected]
