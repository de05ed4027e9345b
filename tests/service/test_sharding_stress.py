"""Concurrency stress: the fleet row cache must never serve pre-update rows.

The race under test: :meth:`ShardedEngine.apply_updates` bumps a shard's
model version and evicts that shard's users from the fleet row cache,
while reader threads hammer :meth:`ShardedEngine.serve_cohort` on the same
users. A solve that started *before* the update may finish *after* it —
the version-stamped insert must refuse to cache those stale rows, and any
read that starts after the update completes must see post-update rows.

Both fleets run every scenario — the in-process :class:`ShardedEngine` and
the :class:`ProcessShardFleet` booted from its saved artifacts — since
they share one router. The oracle is a single :class:`ServingEngine`
over the same data receiving the same events: its post-update cohort
rows are the only acceptable answer for post-update reads. Each round
rates the target user's current top-ranked item, which guarantees the
user's row changes (the item becomes rated, so ``exclude_rated=True``
must drop it).
"""

import threading
import time

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender, ServingEngine, ShardedEngine
from repro.data.synthetic import federated_dataset
from repro.service import ProcessShardFleet

N_SHARDS = 3
K = 5
N_READERS = 4
N_ROUNDS = 3


@pytest.fixture()
def federated():
    return federated_dataset(4, scale=0.12, seed=21)


@pytest.fixture(params=["in-process", "process"])
def pair(request, federated, tmp_path):
    """A fleet and its single-engine oracle, fitted on the same data."""
    fleet = ShardedEngine.fit(federated, AbsorbingTimeRecommender,
                              n_shards=N_SHARDS)
    single = ServingEngine(AbsorbingTimeRecommender().fit(federated))
    if request.param == "process":
        path = fleet.save(str(tmp_path / "fleet"))
        fleet = ProcessShardFleet.from_directory(
            path, wal_dir=str(tmp_path / "wal"))
        request.addfinalizer(fleet.close)
    return fleet, single


def _top_item_label(single, user):
    """The label of the user's current #1 item (the next thing they rate)."""
    return str(single.recommend(user, k=1)[0].label)


class TestRowCacheUnderConcurrentUpdates:
    def test_readers_never_observe_pre_update_rows(self, pair, federated):
        fleet, single = pair
        cohort = np.arange(0, federated.n_users, 2)
        target = int(cohort[0])
        user_label = str(federated.user_labels[target])

        # Warm the fleet row cache: the stale-entry hazard only exists
        # when cached rows are in play before the update lands.
        fleet.serve_cohort(np.arange(federated.n_users), k=K)

        errors = []
        stop = threading.Event()
        updated = threading.Event()   # set once apply_updates has returned
        expected = {}                 # filled with post-update oracle rows

        def reader():
            while not stop.is_set():
                flag = updated.is_set()  # snapshot BEFORE the read starts
                try:
                    rows = fleet.serve_cohort(cohort, k=K).rows
                except Exception as exc:  # noqa: BLE001 - collected for report
                    errors.append(f"serve_cohort raised: {exc!r}")
                    return
                if flag and rows != expected["rows"]:
                    errors.append(
                        "post-update read returned pre-update rows "
                        f"(round {expected['round']})")
                    return
                time.sleep(0.001)  # unfair RLock: let the updater in

        for round_no in range(N_ROUNDS):
            events = [(user_label, _top_item_label(single, target), 5.0)]
            # Oracle first: expected post-update rows exist before the
            # fleet update can possibly complete.
            single.apply_updates(events)
            expected.update(rows=single.serve_cohort(cohort, k=K).rows,
                            round=round_no)

            stop.clear()
            updated.clear()
            threads = [threading.Thread(target=reader)
                       for _ in range(N_READERS)]
            for thread in threads:
                thread.start()

            fleet.apply_updates(events)
            updated.set()
            # Let the readers take several guaranteed post-update reads.
            for _ in range(3):
                if fleet.serve_cohort(cohort, k=K).rows != expected["rows"]:
                    errors.append(f"main-thread post-update read stale "
                                  f"(round {round_no})")
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "reader thread hung"

            assert not errors, errors[0]

        # After all rounds the cache must have fully converged on the
        # oracle — a persistent stale row-cache entry would surface here.
        assert fleet.serve_cohort(cohort, k=K).rows == \
            single.serve_cohort(cohort, k=K).rows

    # Patches a shard engine object, which only the in-process fleet has.
    @pytest.mark.parametrize("pair", ["in-process"], indirect=True)
    def test_update_mid_flight_refuses_stale_cache_insert(self, pair,
                                                          federated):
        # Deterministic version of the race: the target shard's version
        # bumps while its cohort slice is being solved; the fleet must
        # serve the rows but keep them out of the row cache.
        fleet, _ = pair
        target = 0
        shard = fleet.shard_of_user(target)
        engine = fleet.engines[shard]
        original = engine._serve_cohort_arrays
        fired = threading.Event()

        def bump_mid_solve(*args, **kwargs):
            if not fired.is_set():
                fired.set()
                engine.model_version += 1
            return original(*args, **kwargs)

        engine._serve_cohort_arrays = bump_mid_solve
        try:
            report = fleet.serve_cohort(np.array([target]), k=K)
        finally:
            engine._serve_cohort_arrays = original
        assert fired.is_set() and report.rows
        assert all(key[0] != target for key in fleet._rows)

    def test_parallel_cohorts_against_rolling_updates(self, pair, federated):
        # Broad-spectrum hammering: rolling updates across MANY users while
        # reader threads serve disjoint cohorts. Nothing may raise, and the
        # end state must match the oracle exactly.
        fleet, single = pair
        n_users = federated.n_users
        cohorts = [np.arange(start, n_users, 3) for start in range(3)]
        errors = []
        stop = threading.Event()

        def reader(cohort):
            while not stop.is_set():
                try:
                    report = fleet.serve_cohort(cohort, k=K)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
                    return
                if len(report.rows) != len(cohort) * K and report.rows:
                    # Partial cohorts are fine (cold users rank < K items);
                    # raggedness beyond that would be a torn read.
                    sizes = {row["user"] for row in report.rows}
                    if len(sizes) != len(cohort):
                        errors.append("torn cohort: missing users")
                        return
                time.sleep(0.001)  # unfair RLock: let the updater in

        threads = [threading.Thread(target=reader, args=(cohort,))
                   for cohort in cohorts for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for user in range(0, n_users, max(7, n_users // 6)):
                label = str(federated.user_labels[user])
                events = [(label, _top_item_label(single, user), 4.0)]
                fleet.apply_updates(events)
                single.apply_updates(events)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "reader thread hung"
        assert not errors, errors[0]

        everyone = np.arange(n_users)
        assert fleet.serve_cohort(everyone, k=K).rows == \
            single.serve_cohort(everyone, k=K).rows

    # Pauses a shard engine's recommender, which only the in-process
    # fleet has in this process.
    @pytest.mark.parametrize("pair", ["in-process"], indirect=True)
    def test_update_waits_for_reader_mid_solve(self, pair, federated,
                                               monkeypatch):
        # Deterministic version of the in-process race: a reader paused
        # inside the owning shard's solve must keep apply_updates off that
        # shard until it finishes (ServingEngine.apply_updates is not safe
        # against concurrent serving on the same engine).
        fleet, single = pair
        user = 0
        recommender = fleet.engines[fleet.shard_of_user(user)].recommender
        original = recommender._partition_cohort
        entered, release = threading.Event(), threading.Event()

        def paused(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(recommender, "_partition_cohort", paused)
        events = [(str(federated.user_labels[user]),
                   _top_item_label(single, user), 4.0)]
        applied = threading.Event()

        def update():
            fleet.apply_updates(events)
            applied.set()

        reader = threading.Thread(target=fleet.serve_cohort,
                                  args=(np.array([user]),), kwargs={"k": K})
        writer = threading.Thread(target=update)
        reader.start()
        try:
            assert entered.wait(timeout=30), "reader never reached the solve"
            writer.start()
            overlapped = applied.wait(timeout=0.5)
        finally:
            release.set()
            reader.join(timeout=30)
            if writer.ident is not None:  # started
                writer.join(timeout=30)
        assert not reader.is_alive() and not writer.is_alive()
        assert not overlapped, \
            "apply_updates ran on the shard while a reader was mid-solve"
        assert applied.is_set()
        single.apply_updates(events)
        assert fleet.serve_cohort(np.array([user]), k=K).rows == \
            single.serve_cohort(np.array([user]), k=K).rows
