"""Failure injection against the process fleet: crash, hang, degrade, heal.

The recovery contract under test: a worker SIGKILLed at *any* point — even
after mutating its engine but before acknowledging (``"after-apply"``, the
double-apply hazard) — is restarted once from its boot artifact and
replays its fsync'd write-ahead log exactly once, leaving the fleet
bit-identical to one that never crashed. When restarts are exhausted the fleet *degrades* instead of
failing: healthy shards keep answering, the dead shard's requests raise
:class:`ShardUnavailableError`, and ``restart_shard`` heals it (replaying
any update batches stranded in its WAL).

Faults are scripted with :class:`FaultSpec` (deterministic — no racing
``kill`` against a live pipe), except one test that SIGKILLs a real worker
pid externally to prove detection does not depend on the script.
"""

import asyncio
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender, ShardedEngine, ShardPlan
from repro.data.synthetic import federated_dataset
from repro.exceptions import ConfigError, ShardUnavailableError
from repro.service import FaultSpec, ProcessShardFleet

N_SHARDS = 3


@pytest.fixture(scope="module")
def federated():
    return federated_dataset(5, scale=0.12, seed=3)


@pytest.fixture(scope="module")
def artifacts_dir(federated, tmp_path_factory):
    plan = ShardPlan.build(federated, N_SHARDS)
    sharded = ShardedEngine.fit(federated, AbsorbingTimeRecommender,
                                plan=plan)
    path = str(tmp_path_factory.mktemp("fault-artifacts"))
    sharded.save(path)
    return path


@pytest.fixture(scope="module")
def two_shards(federated, tmp_path_factory):
    """A 2-shard artifact directory, its in-process fleet, and users that
    span both shards."""
    plan = ShardPlan.build(federated, 2)
    sharded = ShardedEngine.fit(federated, AbsorbingTimeRecommender,
                                plan=plan)
    path = str(tmp_path_factory.mktemp("two-shard-artifacts"))
    sharded.save(path)
    reference = ShardedEngine.from_directory(path)
    users = list(range(0, federated.n_users, 3))
    assert {reference.shard_of_user(user) for user in users} == {0, 1}
    return path, reference, users


def _boot(artifacts_dir, wal_dir, **kwargs):
    return ProcessShardFleet.from_directory(artifacts_dir,
                                            wal_dir=str(wal_dir), **kwargs)


def _topk(fleet, users, k=10):
    return {user: [(r.item, r.label, r.score)
                   for r in fleet.recommend(user, k=k)]
            for user in users}


def _triples(ranked_lists):
    return [[(r.item, r.label, r.score) for r in ranked]
            for ranked in ranked_lists]


class TestFaultSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            FaultSpec(kill_at_request=0)
        with pytest.raises(ConfigError):
            FaultSpec(hang_seconds=-1)
        with pytest.raises(ConfigError):
            FaultSpec(crash_mid_update="sideways")
        assert FaultSpec().is_noop
        assert not FaultSpec(kill_at_request=3).is_noop


class TestCrashMidUpdate:
    @pytest.mark.parametrize("point", ["before-apply", "after-apply"])
    def test_sigkill_mid_update_recovers_bit_identical(
            self, federated, artifacts_dir, tmp_path, point):
        events = [
            (federated.user_labels[0], federated.item_labels[0], 5.0),
            ("crash-user", federated.item_labels[0], 4.0),
        ]
        shard = None
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            shard = reference.shard_of_user(0)
            clean_report = reference.apply_updates(events, duplicates="last")
            probe = list(range(0, federated.n_users, 7)) \
                + [reference.n_users - 1]
            clean_top = _topk(reference, probe)

        faults = {shard: FaultSpec(crash_mid_update=point)}
        with _boot(artifacts_dir, tmp_path / "wal-crash",
                   faults=faults) as fleet:
            report = fleet.apply_updates(events, duplicates="last")
            # The crash happened, was recovered, and is visible.
            assert fleet.restarts == 1
            assert report.replayed_batches == 1
            assert fleet.health()["status"] == "ok"
            # ... and changed nothing about the outcome: the merged
            # report and every ranked list match the never-crashed fleet.
            assert report.n_new_users == clean_report.n_new_users
            assert report.n_replaced == clean_report.n_replaced
            assert report.n_shards_touched == clean_report.n_shards_touched
            assert _topk(fleet, probe) == clean_top

    def test_checkpoint_limits_replay_to_unflushed_wal(
            self, federated, artifacts_dir, tmp_path):
        # Two batches, checkpoint between them, crash on the second: only
        # the post-checkpoint batch is in the WAL and replayed.
        shard0_user = federated.user_labels[0]
        item = federated.item_labels[0]
        with _boot(artifacts_dir, tmp_path / "wal") as fleet:
            shard = fleet.shard_of_user(0)
            fleet.apply_updates([(shard0_user, item, 1.0)],
                                duplicates="last")
            fleet.save(str(tmp_path / "ckpt"))
            assert fleet._wal_read(shard) == []
            fleet.apply_updates([(shard0_user, item, 2.0)],
                                duplicates="last")
            assert len(fleet._wal_read(shard)) == 1
            expected = _topk(fleet, [0])
            os.kill(fleet.worker_pid(shard), signal.SIGKILL)
            assert _topk(fleet, [0]) == expected  # detected + replayed
            assert fleet.restarts == 1
            assert fleet.replayed_batches == 1


class TestCrashAndHangOnServe:
    def test_kill_at_nth_request_restarts_transparently(
            self, federated, artifacts_dir, tmp_path):
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            shard = reference.shard_of_user(0)
            expected = _topk(reference, [0])
        faults = {shard: FaultSpec(kill_at_request=1)}
        with _boot(artifacts_dir, tmp_path / "wal",
                   faults=faults) as fleet:
            assert _topk(fleet, [0]) == expected  # dies, restarts, answers
            assert fleet.restarts == 1
            health = fleet.health()
            assert health["status"] == "ok"
            assert health["shards"][shard]["restarts"] == 1

    def test_external_sigkill_detected_without_script(
            self, federated, artifacts_dir, tmp_path):
        with _boot(artifacts_dir, tmp_path / "wal") as fleet:
            shard = fleet.shard_of_user(0)
            before = _topk(fleet, [0])
            old_pid = fleet.worker_pid(shard)
            os.kill(old_pid, signal.SIGKILL)
            assert _topk(fleet, [0]) == before
            assert fleet.restarts == 1
            assert fleet.worker_pid(shard) != old_pid

    def test_hung_worker_times_out_and_restarts(
            self, federated, artifacts_dir, tmp_path):
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            shard = reference.shard_of_user(0)
            expected = _topk(reference, [0])
        faults = {shard: FaultSpec(hang_at_request=1, hang_seconds=10.0)}
        with _boot(artifacts_dir, tmp_path / "wal", faults=faults,
                   request_timeout_s=0.5) as fleet:
            assert _topk(fleet, [0]) == expected
            assert fleet.restarts == 1
            assert fleet.health()["shards"][shard]["state"] == "up"


class TestDegradedServing:
    def _degraded_fleet(self, artifacts_dir, tmp_path, shard):
        faults = {shard: FaultSpec(kill_at_request=1, persistent=True)}
        return _boot(artifacts_dir, tmp_path / "wal", faults=faults,
                     max_request_retries=1, max_restart_attempts=2)

    def test_dead_shard_raises_healthy_shards_answer(
            self, federated, artifacts_dir, tmp_path):
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            down_shard = reference.shard_of_user(0)
            healthy_user = next(
                u for u in range(federated.n_users)
                if reference.shard_of_user(u) != down_shard
            )
            expected = _topk(reference, [healthy_user])
        with self._degraded_fleet(artifacts_dir, tmp_path,
                                  down_shard) as fleet:
            with pytest.raises(ShardUnavailableError) as excinfo:
                fleet.recommend(0, k=5)
            assert excinfo.value.shard == down_shard
            # Degraded, not dead: other shards still serve, from workers.
            assert _topk(fleet, [healthy_user]) == expected
            health = fleet.health()
            assert health["status"] == "degraded"
            assert health["shards"][down_shard]["state"] == "down"
            assert fleet.worker_pid(down_shard) is None
            # Cohorts touching the dead shard fail loud and typed.
            with pytest.raises(ShardUnavailableError):
                fleet.serve_cohort(np.array([0, healthy_user]), k=5)

    def test_recommend_many_isolates_failures_per_position(
            self, federated, artifacts_dir, tmp_path):
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            down_shard = reference.shard_of_user(0)
            healthy_user = next(
                u for u in range(federated.n_users)
                if reference.shard_of_user(u) != down_shard
            )
        with self._degraded_fleet(artifacts_dir, tmp_path,
                                  down_shard) as fleet:
            results = fleet.recommend_many([0, healthy_user, 0], k=5)
            assert isinstance(results[0], ShardUnavailableError)
            assert isinstance(results[2], ShardUnavailableError)
            assert not isinstance(results[1], Exception)
            assert len(results[1]) == 5

    def test_restart_shard_heals_and_replays_stranded_wal(
            self, federated, artifacts_dir, tmp_path):
        events = [(federated.user_labels[0], federated.item_labels[0], 5.0)]
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            shard = reference.shard_of_user(0)
            reference.apply_updates(events, duplicates="last")
            expected = _topk(reference, [0])
        # Persistent crash-on-apply: the dispatch dies, every restart's
        # WAL replay dies again, the retry budget exhausts -> down, with
        # the batch stranded (durably) in the WAL.
        faults = {shard: FaultSpec(crash_mid_update="after-apply",
                                   persistent=True)}
        with _boot(artifacts_dir, tmp_path / "wal", faults=faults,
                   max_restart_attempts=2) as fleet:
            with pytest.raises(ShardUnavailableError):
                fleet.apply_updates(events, duplicates="last")
            assert fleet.health()["shards"][shard]["state"] == "down"
            assert len(fleet._wal_read(shard)) == 1
            # Healing clears the fault, reboots, and replays the WAL: the
            # update that never acknowledged is applied exactly once.
            started = time.perf_counter()
            row = fleet.restart_shard(shard)
            assert time.perf_counter() - started < 30.0  # restart to healthy
            assert row["state"] == "up"
            assert fleet.health()["status"] == "ok"
            assert _topk(fleet, [0]) == expected

    def test_http_health_degrades_to_503_with_shard_detail(
            self, federated, artifacts_dir, tmp_path):
        # S2 end-to-end: the front end's /health mirrors fleet health
        # (503 + per-shard rows while degraded) and a dead shard's
        # /recommend answers 503 naming the shard — while a healthy
        # shard's user is still served 200 on the same socket.
        from repro.service import BatchingServer, HttpFrontend

        async def _get(port, path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                             "Connection: close\r\n\r\n".encode())
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status = int(head.split()[1])
                length = int([line.split(b":", 1)[1]
                              for line in head.split(b"\r\n")
                              if line.lower().startswith(
                                  b"content-length:")][0])
                body = await reader.readexactly(length)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            return status, json.loads(body)

        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            down_shard = reference.shard_of_user(0)
            healthy_user = next(
                u for u in range(federated.n_users)
                if reference.shard_of_user(u) != down_shard
            )

        async def scenario(fleet):
            async with BatchingServer(fleet) as server:
                async with HttpFrontend(server, port=0) as front:
                    ok_health = await _get(front.port, "/health")
                    dead = await _get(front.port, "/recommend?user=0&k=3")
                    alive = await _get(
                        front.port, f"/recommend?user={healthy_user}&k=3")
                    degraded = await _get(front.port, "/health")
                    return ok_health, dead, alive, degraded

        with self._degraded_fleet(artifacts_dir, tmp_path,
                                  down_shard) as fleet:
            ok_health, dead, alive, degraded = asyncio.run(scenario(fleet))
        assert ok_health[0] == 200 and ok_health[1]["status"] == "ok"
        assert dead[0] == 503
        assert dead[1]["shard"] == down_shard
        assert alive[0] == 200 and len(alive[1]["items"]) == 3
        assert degraded[0] == 503
        assert degraded[1]["status"] == "degraded"
        states = {row["shard"]: row["state"]
                  for row in degraded[1]["shards"]}
        assert states[down_shard] == "down"
        assert sum(state == "up" for state in states.values()) \
            == N_SHARDS - 1

    def test_updates_refuse_to_start_on_a_down_shard(
            self, federated, artifacts_dir, tmp_path):
        events = [(federated.user_labels[0], federated.item_labels[0], 3.0)]
        with _boot(artifacts_dir, tmp_path / "wal-clean") as reference:
            down_shard = reference.shard_of_user(0)
        with self._degraded_fleet(artifacts_dir, tmp_path,
                                  down_shard) as fleet:
            with pytest.raises(ShardUnavailableError):
                fleet.recommend(0, k=3)  # drive the faulty shard down
            assert fleet.health()["shards"][down_shard]["state"] == "down"
            with pytest.raises(ShardUnavailableError):
                fleet.apply_updates(events, duplicates="last")
            # Nothing was WAL-logged for a batch that never started.
            assert fleet._wal_read(down_shard) == []


class TestConcurrentFanOut:
    """A read spanning shards goes to all of them at once: on a 2-shard
    fleet the calling thread runs shard 0's RPC and the one pool thread
    shard 1's, each with its own crash and hang recovery."""

    def test_spanning_read_waits_for_slowest_shard_not_the_sum(
            self, two_shards, tmp_path):
        path, reference, users = two_shards
        hang = FaultSpec(hang_at_request=1, hang_seconds=0.4)
        with _boot(path, tmp_path / "wal", faults={0: hang, 1: hang},
                   request_timeout_s=5) as fleet:
            began = time.perf_counter()
            served = fleet.recommend_many(users, k=5)
            elapsed = time.perf_counter() - began
        assert _triples(served) == _triples(reference.recommend_many(users,
                                                                     k=5))
        # Both workers sleep 0.4 s; one shard after the other takes >= 0.8 s.
        assert elapsed < 0.7

    @pytest.mark.parametrize("shard", [0, 1])
    def test_crash_on_one_shard_is_retried_and_serves_every_position(
            self, two_shards, tmp_path, shard):
        path, reference, users = two_shards
        faults = {shard: FaultSpec(kill_at_request=1)}
        with _boot(path, tmp_path / "wal", faults=faults) as fleet:
            served = fleet.recommend_many(users, k=5)
            health = fleet.health()
        assert _triples(served) == _triples(reference.recommend_many(users,
                                                                     k=5))
        assert health["status"] == "ok"
        assert [row["restarts"] for row in health["shards"]] \
            == [int(s == shard) for s in range(2)]

    @pytest.mark.parametrize("shard", [0, 1])
    def test_hang_on_one_shard_is_retried_other_shard_unaffected(
            self, two_shards, tmp_path, shard):
        path, reference, users = two_shards
        other = 1 - shard
        faults = {shard: FaultSpec(hang_at_request=1, hang_seconds=10.0)}
        with _boot(path, tmp_path / "wal", faults=faults,
                   request_timeout_s=0.5) as fleet:
            other_pid = fleet.worker_pid(other)
            served = fleet.recommend_many(users, k=5)
            health = fleet.health()
            assert fleet.worker_pid(other) == other_pid
        assert _triples(served) == _triples(reference.recommend_many(users,
                                                                     k=5))
        assert health["shards"][shard]["restarts"] == 1
        assert health["shards"][other]["restarts"] == 0

    def test_close_stops_the_pool_threads(self, two_shards, tmp_path):
        path, _, users = two_shards
        before = set(threading.enumerate())

        def pool_threads():
            return [thread for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith("repro-fanout")]

        fleet = _boot(path, tmp_path / "wal")
        try:
            assert pool_threads() == []  # started on first use, not boot
            fleet.recommend_many(users, k=5)
            started = pool_threads()
            assert len(started) == 1  # n_shards - 1
        finally:
            fleet.close()
        assert not any(thread.is_alive() for thread in started)
        # A read after close() finds the pool shut down and every shard
        # down: typed per-position errors, no new thread.
        assert all(isinstance(result, ShardUnavailableError)
                   for result in fleet.recommend_many(users, k=5))
        assert not any(thread.is_alive() for thread in pool_threads())
