"""The four serving workloads: what each builds in set-up and how it is fed.

Each workload builds a *system*: the stack under test, booted from a saved
artifact exactly as ``repro.cli serve-http`` boots it, with the CLI's
serving defaults (``max_batch 32``, ``max_delay_ms 2``, ``max_queue 1024``,
default result caches). A system exposes

* ``open_users`` / ``closed_users`` — the seeded request streams (Zipf,
  or one shared first-touch pool);
* ``send(user)`` — one request through the stack, for the load generator;
* ``run_phase(reads, seconds)`` — runs a read phase (the fleet adds its
  concurrent update stream);
* ``check(first_rows)`` — the parity gate, run after the timed phases;
* ``close()`` — stops every server, socket, thread and worker process.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e.loadgen import HttpClient, arrival_offsets
from repro import AbsorbingTimeRecommender, ServingEngine, ShardedEngine
from repro.core.artifacts import save_artifact
from repro.data.longtail import long_tail_split
from repro.data.synthetic import federated_dataset, giant_component
from repro.service import BatchingServer, HttpFrontend, ProcessShardFleet

K = 10
#: ``serve-http`` CLI defaults.
SERVER_SETTINGS = {"max_batch_size": 32, "max_delay_ms": 2.0, "max_queue": 1024}
#: The paper's µ (AT's default subgraph budget) at scale 1.
MU = 6000


@dataclass(frozen=True)
class Workload:
    """Fixed load shape of one workload (rates are never recalibrated).

    ``open_share`` of each round is the open-loop phase, the rest the
    closed-loop phase. ``closed_rate`` sizes a count-bound closed loop at
    that many requests per closed-phase second; ``0`` makes the closed loop
    duration-bound.
    """

    name: str
    build: object
    open_rate: float
    concurrency: int
    closed_rate: float
    panel: int
    arrivals: str = "poisson"
    update_rate: float = 0.0
    open_share: float = 0.5


class BadResponse(Exception):
    """An answer that is not a valid ranked list."""


def _triples(response) -> list[tuple]:
    """``(item, label, score)`` per ranked slot of an engine or HTTP answer."""
    if isinstance(response, dict):
        return list(zip(response["items"], response["labels"],
                        response["scores"]))
    return [(int(r.item), str(r.label), float(r.score)) for r in response]


def _valid_rows(response) -> list[tuple] | None:
    """The ranked rows when well-formed: HTTP 200, at most ``K`` items, no
    duplicates, scores non-increasing; else ``None``."""
    if isinstance(response, dict) and response.get("status") != 200:
        return None
    rows = _triples(response)
    items = [item for item, _, _ in rows]
    scores = [score for _, _, score in rows]
    if (len(items) <= K and len(set(items)) == len(items)
            and all(a >= b for a, b in zip(scores, scores[1:]))):
        return rows
    return None


def settle(samples, first_rows: dict | None = None) -> None:
    """Check every answer's shape (outside timing) and drop the payload.

    A malformed answer becomes a :class:`BadResponse` error. With
    ``first_rows``, each user's first valid rows are kept for the parity
    panel. Dropping payloads keeps the stored samples from inflating the
    peak memory the run reports.
    """
    for sample in samples:
        if sample.error is None:
            rows = _valid_rows(sample.response)
            if rows is None:
                sample.error = BadResponse(f"user {sample.user}")
            elif first_rows is not None:
                first_rows.setdefault(sample.user, rows)
        sample.response = None


def _zipf_streams(seed: int, n: int, s: float) -> tuple:
    """Open- and closed-loop user streams, each drawn Zipf(``s``) over one
    seeded popularity order. Separate streams keep the open-loop users, and
    so the parity panel, the same in every run of a seed however many
    requests a duration-bound closed loop sends."""
    order = np.random.default_rng([seed, 1]).permutation(n)
    weights = 1.0 / np.arange(1, n + 1) ** s
    probabilities = weights / weights.sum()

    def draws(rng: np.random.Generator):
        while True:
            yield from order[rng.choice(n, size=4096, p=probabilities)].tolist()

    return (draws(np.random.default_rng([seed, 6])),
            draws(np.random.default_rng([seed, 7])))


def _first_touch_stream(pool: np.ndarray, name: str):
    """Each pool user once; a workload that outruns its pool is misconfigured."""
    yield from pool.tolist()
    raise RuntimeError(f"{name} ran out of first-touch users; "
                       "shorten --seconds")


def _vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _recommender(scale: float) -> AbsorbingTimeRecommender:
    # Smaller test scales shrink µ with the graph, so each workload keeps
    # its side of the µ boundary (shared group path vs per-user BFS).
    if scale == 1.0:
        return AbsorbingTimeRecommender()
    return AbsorbingTimeRecommender(subgraph_size=max(int(MU * scale), 20))


class EngineSystem:
    """One :class:`ServingEngine` behind a :class:`BatchingServer`, and for
    the HTTP workload also behind an :class:`HttpFrontend`."""

    def __init__(self, workload: Workload, seed: int, train, artifact: str,
                 engine: ServingEngine, users):
        self.workload = workload
        self.seed = seed
        self.train = train
        self.tail_mask = long_tail_split(train).is_tail()
        self.artifact = artifact
        self.engine = engine
        self.open_users, self.closed_users = users
        self.server = BatchingServer(engine, **SERVER_SETTINGS)
        self.front = None
        self.client = None

    async def start(self, http_connections: int = 0) -> "EngineSystem":
        await self.server.start()
        if http_connections:
            self.front = await HttpFrontend(self.server).start()
            self.client = await HttpClient(
                self.front.host, self.front.port, http_connections).open()
        return self

    async def send(self, user: int):
        if self.client is not None:
            return await self.client.recommend(user, K)
        sent = time.perf_counter()
        return await self.server.recommend(user, k=K), sent

    async def run_phase(self, reads, seconds: float):
        return await reads

    async def check(self, first_rows: dict) -> dict:
        """Served rows of a seeded panel of open-loop users vs a fresh
        cache-less engine booted from the same artifact."""
        rng = np.random.default_rng([self.seed, 3])
        served_users = sorted(first_rows)
        size = min(self.workload.panel, len(served_users))
        panel = sorted(rng.choice(served_users, size=size,
                                  replace=False).tolist())
        reference = ServingEngine.from_artifact(self.artifact,
                                                result_cache_size=0)
        expected = reference.recommend_many(panel, k=K)
        served = [first_rows[user] for user in panel]
        mismatches = sum(rows != _triples(want)
                         for rows, want in zip(served, expected))
        return {"panel": len(panel), "parity_mismatches": int(mismatches),
                "panel_rows": served}

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb()

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()
        if self.front is not None:
            await self.front.stop()
        await self.server.stop()


async def _engine_system(workload: Workload, seed: int, scale: float,
                         workdir: str, train, *, warm, users,
                         http_connections: int = 0) -> EngineSystem:
    recommender = _recommender(scale).fit(train)
    artifact = os.path.join(workdir, "model.npz")
    save_artifact(recommender, artifact)
    engine = ServingEngine.from_artifact(artifact)
    if warm is None:
        engine.warm(k=K)
    else:
        engine.recommend_many(warm, k=K)
    system = EngineSystem(workload, seed, train, artifact, engine, users)
    return await system.start(http_connections)


async def build_read_hot_http(workload, seed, scale, workdir):
    train = giant_component(1 * scale, seed=seed)
    return await _engine_system(workload, seed, scale, workdir, train,
                                warm=None,
                                users=_zipf_streams(seed, train.n_users, 1.1),
                                http_connections=workload.concurrency)


async def _first_touch(workload, seed, scale, workdir, giant_scale, n_warm):
    train = giant_component(giant_scale * scale, seed=seed)
    order = np.random.default_rng([seed, 1]).permutation(train.n_users)
    pool = _first_touch_stream(order[n_warm:], workload.name)
    return await _engine_system(workload, seed, scale, workdir, train,
                                warm=order[:n_warm].tolist(),
                                users=(pool, pool))


async def build_read_cold(workload, seed, scale, workdir):
    # The 32 warm users build the shared group operator; the pool never
    # includes them, so every timed request still solves.
    return await _first_touch(workload, seed, scale, workdir, 3, 32)


async def build_read_bfs(workload, seed, scale, workdir):
    return await _first_touch(workload, seed, scale, workdir, 4, 1)


class FleetSystem(EngineSystem):
    """A 2-shard component-plan :class:`ProcessShardFleet` behind a
    :class:`BatchingServer`, with ``apply_updates`` batches arriving on
    their own schedule from one executor thread."""

    N_SHARDS = 2
    BATCH_EVENTS = 10

    def __init__(self, workload, seed, train, artifacts: str,
                 fleet: ProcessShardFleet, users):
        super().__init__(workload, seed, train, artifacts, fleet, users)
        self.engine = None
        self.fleet = fleet
        self.n_train_users = train.n_users
        self._batches = self._batch_stream(np.random.default_rng([seed, 5]))
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="e2e-updates")
        self.applied: list[list] = []
        self.update_seconds: list[float] = []
        self.update_reports: list = []
        self.update_errors: list[Exception] = []

    def _batch_stream(self, rng: np.random.Generator):
        """Seeded 10-event batches, each inside one tenant: re-rates, new
        pairs, new users and new items."""
        train = self.train
        tenant_of_user = np.array([label.split(":")[0]
                                   for label in train.user_labels])
        tenant_of_item = np.array([label.split(":")[0]
                                   for label in train.item_labels])
        tenants = sorted(set(tenant_of_user.tolist()))
        users_of = {t: np.flatnonzero(tenant_of_user == t) for t in tenants}
        items_of = {t: np.flatnonzero(tenant_of_item == t) for t in tenants}
        user_labels, item_labels = train.user_labels, train.item_labels
        batch = 0
        while True:
            tenant = tenants[int(rng.integers(len(tenants)))]
            users, items = users_of[tenant], items_of[tenant]
            events = []
            for slot in range(self.BATCH_EVENTS):
                user = int(rng.choice(users))
                rated = train.items_of_user(user)
                rating = float(rng.integers(1, 6))
                kind = slot % 4
                if kind == 0:    # re-rate an existing pair
                    item = item_labels[int(rng.choice(rated))]
                elif kind == 1:  # a new pair between existing nodes
                    unrated = np.setdiff1d(items, rated)
                    item = item_labels[int(rng.choice(unrated if unrated.size
                                                      else items))]
                elif kind == 2:  # a new user
                    events.append((f"{tenant}:e2e-user{batch}.{slot}",
                                   item_labels[int(rng.choice(items))],
                                   rating))
                    continue
                else:            # a new item
                    item = f"{tenant}:e2e-item{batch}.{slot}"
                events.append((user_labels[user], item, rating))
            batch += 1
            yield events

    def _apply(self, batch):
        began = time.perf_counter()
        report = self.fleet.apply_updates(batch)
        return report, time.perf_counter() - began

    async def _update_loop(self, seconds: float) -> None:
        loop = asyncio.get_running_loop()
        # Evenly spaced: update timing would otherwise add its own
        # seed-to-seed variance to the read tail.
        offsets = arrival_offsets(None, self.workload.update_rate, seconds,
                                  "uniform")
        start = time.perf_counter()
        for offset in offsets:
            delay = start + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            batch = next(self._batches)
            try:
                report, seconds_taken = await loop.run_in_executor(
                    self._executor, self._apply, batch)
            except Exception as exc:  # counted as a failed operation
                self.update_errors.append(exc)
                continue
            self.applied.append(batch)
            self.update_reports.append(report)
            self.update_seconds.append(seconds_taken)

    async def run_phase(self, reads, seconds: float):
        result, _ = await asyncio.gather(reads, self._update_loop(seconds))
        return result

    async def check(self, first_rows: dict) -> dict:
        """Replay the applied batches into an in-process fleet, then compare
        a seeded panel of 256 users, 16 of them created by the updates."""
        reference = ShardedEngine.from_directory(self.artifact)
        for batch in self.applied:
            reference.apply_updates(batch)
        rng = np.random.default_rng([self.seed, 3])
        new_users = np.arange(self.n_train_users, self.fleet.n_users)
        n_new = min(16, new_users.size)
        panel = (sorted(rng.choice(self.n_train_users, replace=False,
                                   size=self.workload.panel - n_new).tolist())
                 + sorted(rng.choice(new_users, size=n_new,
                                     replace=False).tolist()))
        served = [_triples(rows)
                  for rows in self.fleet.recommend_many(panel, k=K)]
        expected = reference.recommend_many(panel, k=K)
        mismatches = sum(rows != _triples(want)
                         for rows, want in zip(served, expected))
        mismatches += int(reference.n_users != self.fleet.n_users)
        return {"panel": len(panel), "parity_mismatches": int(mismatches),
                "panel_rows": served}

    def peak_rss_mb(self) -> float:
        workers = [self.fleet.worker_pid(shard)
                   for shard in range(self.fleet.n_shards)]
        return _vm_hwm_mb() + sum(_vm_hwm_mb(pid) for pid in workers
                                  if pid is not None)

    async def close(self) -> None:
        await super().close()
        self._executor.shutdown(wait=True)
        self.fleet.close()


async def build_fleet_mixed(workload, seed, scale, workdir):
    train = federated_dataset(16, scale=scale, seed=seed)
    artifacts = os.path.join(workdir, "fleet")
    fitted = ShardedEngine.fit(train, lambda: _recommender(scale),
                               n_shards=FleetSystem.N_SHARDS)
    fitted.save(artifacts)
    del fitted  # the workers fork from this process: keep it small
    fleet = ProcessShardFleet.from_directory(
        artifacts, wal_dir=os.path.join(artifacts, "wal"))
    try:
        fleet.warm(k=K)
        users = _zipf_streams(seed, train.n_users, 0.8)
        system = FleetSystem(workload, seed, train, artifacts, fleet, users)
    except BaseException:
        fleet.close()
        raise
    return await system.start()


WORKLOADS = {workload.name: workload for workload in (
    Workload("read-hot-http", build_read_hot_http, open_rate=300.0,
             concurrency=2, closed_rate=0.0, panel=256),
    Workload("read-cold", build_read_cold, open_rate=50.0, concurrency=64,
             closed_rate=400.0, panel=256),
    # About 100 open-loop requests a run, so p90 has ten above it, at half
    # load, so a request slowed up to 2x by host contention delays none
    # behind it. The whole run (~160 first-touch users) stays inside the
    # 256-entry BFS LRU.
    Workload("read-bfs", build_read_bfs, open_rate=5.5, concurrency=64,
             closed_rate=20.0, panel=16, arrivals="uniform", open_share=0.9),
    Workload("fleet-mixed", build_fleet_mixed, open_rate=200.0,
             concurrency=64, closed_rate=0.0, panel=256, update_rate=5.0),
)}
