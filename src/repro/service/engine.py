"""Stateful online serving: load an artifact once, answer requests warm.

:class:`ServingEngine` is the process-level object a serving deployment
keeps alive between requests. It owns:

* a fitted recommender — either passed in or loaded from a model artifact
  (:func:`repro.core.artifacts.load_artifact`), never refitted;
* the recommender's scoring-layer warm structures (the walk recommenders'
  :class:`~repro.graph.cache.TransitionCache` of prepared
  :class:`~repro.solver.WalkOperator`\\ s), which fill on first use and make
  repeated cohorts skip the sparse setup *and* the matrix validation;
* a bounded LRU **result cache** of ranked ``(items, scores)`` rows keyed by
  ``(user, k, exclude_rated)``, so a user served twice is answered from
  int64 arrays without touching the model at all — duplicates inside one
  cohort are deduplicated before solving and fanned back out;
* optionally an attached :class:`~repro.service.store.TopKStore` for
  microsecond single-user lookups with exclusion re-filtering.

Every cohort run returns an :class:`EngineReport` whose summary carries the
cache-hit statistics of both layers (entry counts included) plus per-stage
wall-clock timings (lookup / solve / assemble) — the observability needed
to size caches and verify the fit-once/serve-many split actually pays.
:meth:`ServingEngine.serve_cohort` is the one cohort serving path: it
streams the cohort through the model's batch path in bounded chunks and
bulk-builds the ``(user, rank, item, label, score)`` rows.

The engine is also the front of the **incremental update pipeline**:
:meth:`ServingEngine.apply_updates` absorbs a batch of
``(user, item, rating)`` events through
:meth:`RatingDataset.extend` → :meth:`Recommender.partial_fit` — new
users/items register live, walk graphs merge components via union-find,
scoring-cache entries over untouched components stay warm — then evicts
exactly the affected users' ranked lists, bumps the model version, and
reports everything in an :class:`UpdateReport`. A ``max_pending_events``
staleness bound triggers :meth:`consolidate` (full refit, compacting the
incrementally grown state). ``python -m repro.cli update`` replays an event
log against a saved artifact through this path.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.artifacts import load_artifact
from repro.core.base import Recommendation, Recommender
from repro.exceptions import ConfigError, NotFittedError
from repro.service.store import TopKStore
from repro.utils.timer import Timer, per_second
from repro.utils.validation import (
    as_exclude_array,
    as_index_array,
    check_in_options,
    check_non_negative_int,
    check_positive_int,
)

__all__ = ["EngineReport", "UpdateReport", "ServingEngine",
           "rows_from_ranked_arrays"]


def rows_from_ranked_arrays(users: np.ndarray, items: np.ndarray,
                            scores: np.ndarray,
                            item_labels: np.ndarray) -> list[dict]:
    """Bulk-build (user, rank, item, label, score) row dicts.

    ``items``/``scores`` are the padded ``(len(users), k)`` matrices of
    :meth:`~repro.core.base.Recommender.recommend_batch_arrays`;
    ``item_labels`` is an object array over the catalogue. The flattening,
    padding filter and label gather are all vectorised — only the final dict
    materialisation touches Python objects, once per emitted row.
    """
    n, k = items.shape
    keep = (items >= 0).ravel()
    user_column = np.repeat(np.asarray(users, dtype=np.int64), k)[keep]
    rank_column = np.tile(np.arange(1, k + 1, dtype=np.int64), n)[keep]
    item_column = items.ravel()[keep]
    score_column = scores.ravel()[keep]
    label_column = item_labels[item_column]
    return [
        {"user": int(u), "rank": int(r), "item": int(i), "label": l,
         "score": float(s)}
        for u, r, i, l, s in zip(user_column, rank_column, item_column,
                                 label_column, score_column)
    ]


def _label_array(item_labels) -> np.ndarray:
    arr = np.empty(len(item_labels), dtype=object)
    arr[:] = list(item_labels)
    return arr


@contextmanager
def _stage(timings: dict, name: str):
    """Add the block's wall-clock seconds to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


@dataclass
class EngineReport:
    """Outcome of one engine cohort run, with cache observability.

    Attributes
    ----------
    rows:
        One dict per (user, rank): ``user``, ``rank`` (1-based), ``item``,
        ``label``, ``score``.
    n_users, k, seconds:
        Cohort size, requested list length, wall-clock of the serving phase.
    n_solves:
        Users actually scored by the model this run (cohort size minus
        result-cache hits and in-cohort duplicates).
    result_cache_hits / result_cache_misses:
        Users answered from / inserted into the engine's result cache during
        this run (duplicates within a cohort count as hits).
    result_cache_entries / scoring_cache_entries:
        Sizes of the engine's result cache and of the recommender's
        scoring-layer cache at the end of the run — the live footprint the
        eviction bounds and the update pipeline's targeted invalidation act
        on.
    model_version:
        The engine's model version the run was served from (bumped by every
        applied update batch and by consolidation).
    scoring_cache:
        Hit/miss and operator counters of the recommender's scoring-layer
        cache at the end of the run (``{}`` when the algorithm has none).
    timings:
        Per-stage wall-clock seconds of this run alone: ``lookup``
        (result-cache resolution), ``solve`` (model scoring), ``assemble``
        (row materialisation).
    """

    rows: list = field(default_factory=list)
    n_users: int = 0
    k: int = 10
    seconds: float = 0.0
    n_solves: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    result_cache_entries: int = 0
    scoring_cache_entries: int = 0
    model_version: int = 1
    scoring_cache: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def users_per_second(self) -> float:
        """Throughput of the run; 0.0 when the clock resolved no time.

        A fully warm cohort on a fast machine can complete within one timer
        tick, leaving ``seconds == 0``. Reporting ``inf`` there would leak
        ``Infinity`` through :meth:`summary` into ``json.dump`` (which
        happily writes invalid JSON), so :func:`~repro.utils.timer.per_second`
        clamps the degenerate case to 0.0 — "not measurable", never
        "infinitely fast".
        """
        return per_second(self.n_users, self.seconds)

    @property
    def result_cache_hit_rate(self) -> float:
        total = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / total if total else 0.0

    def summary(self) -> dict:
        """One summary row for reporting."""
        return {
            "users": self.n_users,
            "k": self.k,
            "seconds": round(self.seconds, 4),
            "users_per_sec": round(self.users_per_second, 1),
            "solves": self.n_solves,
            "solve_s": round(self.timings.get("solve", 0.0), 4),
            "result_hits": self.result_cache_hits,
            "result_misses": self.result_cache_misses,
            "result_hit_rate": round(self.result_cache_hit_rate, 3),
            "result_entries": self.result_cache_entries,
            "scoring_hits": self.scoring_cache.get("hits", 0),
            "scoring_misses": self.scoring_cache.get("misses", 0),
            "scoring_entries": self.scoring_cache_entries,
            "version": self.model_version,
        }


@dataclass
class UpdateReport:
    """Outcome of one :meth:`ServingEngine.apply_updates` batch.

    Attributes
    ----------
    n_events, n_new_users, n_new_items, n_replaced:
        Shape of the applied :class:`~repro.data.dataset.DatasetDelta`
        (``n_replaced`` counts in-place re-rates of existing pairs).
    mode:
        The model's update mode: ``"incremental"`` (touched state refreshed
        in place), ``"refit"`` (the algorithm's fallback), or ``"none"``
        (empty batch — nothing changed).
    model_version:
        Engine model version *after* the update.
    n_affected_users:
        Users whose rankings may have changed (``None`` = all) — exactly the
        set evicted from the result cache.
    result_rows_evicted:
        Ranked lists dropped from the result cache by this update.
    store_detached:
        True when an attached :class:`TopKStore` was dropped because its
        precomputed lists predate the update (rebuild via ``build_store``).
    consolidated:
        True when this batch pushed ``pending_events`` over
        ``max_pending_events`` and the engine ran a full consolidation
        refit afterwards.
    pending_events:
        Events absorbed since the last full (re)fit, after this batch.
    seconds:
        Wall-clock of the whole update (delta build + partial_fit +
        eviction + consolidation when triggered).
    scoring_cache:
        The scoring-layer cache stats after the update — includes the
        targeted-invalidation counters (``invalidated_*`` / ``retained_*``).
    """

    n_events: int = 0
    n_new_users: int = 0
    n_new_items: int = 0
    n_replaced: int = 0
    mode: str = "none"
    model_version: int = 1
    n_affected_users: int | None = 0
    result_rows_evicted: int = 0
    store_detached: bool = False
    consolidated: bool = False
    pending_events: int = 0
    seconds: float = 0.0
    scoring_cache: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """One summary row for reporting."""
        return {
            "events": self.n_events,
            "new_users": self.n_new_users,
            "new_items": self.n_new_items,
            "replaced": self.n_replaced,
            "mode": self.mode,
            "version": self.model_version,
            "affected_users": ("all" if self.n_affected_users is None
                               else self.n_affected_users),
            "results_evicted": self.result_rows_evicted,
            "retained_groups": self.scoring_cache.get("retained_groups", 0),
            "consolidated": self.consolidated,
            "pending": self.pending_events,
            "seconds": round(self.seconds, 4),
        }


class ServingEngine:
    """Fit-once / serve-many front over a fitted recommender.

    Parameters
    ----------
    recommender:
        A fitted :class:`~repro.core.base.Recommender` (load one from disk
        with :meth:`from_artifact`).
    store:
        Optional precomputed :class:`TopKStore`; single-user queries go to it
        first when it is deep enough for the requested ``k``.
    store_exclude_rated:
        The ``exclude_rated`` setting the attached store was *built* with
        (default True, matching ``TopKStore.from_recommender``); the store
        only answers requests whose ``exclude_rated`` matches, so a store
        precomputed without exclusion can never leak rated items into an
        excluding request. :meth:`build_store` records this automatically.
    result_cache_size:
        Bound on cached ranked lists (LRU-evicted beyond it); ``0`` disables
        the result cache entirely (every request recomputes — useful for
        benchmarking the scoring layer in isolation).
    max_pending_events:
        Staleness policy for the incremental update pipeline: once the
        events absorbed since the last full (re)fit reach this bound,
        :meth:`apply_updates` triggers :meth:`consolidate` — a full refit on
        the merged dataset that compacts the incrementally maintained
        state (component-label space, appended rows) and rebuilds the
        caches from scratch. ``None`` (default) never auto-consolidates.
    update_duplicates:
        Duplicate-pair policy handed to :meth:`RatingDataset.extend` by
        :meth:`apply_updates`: ``"last"`` (default — a re-rate overwrites,
        the natural live-traffic semantics) or ``"error"``.
    """

    def __init__(self, recommender: Recommender, store: TopKStore | None = None,
                 store_exclude_rated: bool = True,
                 result_cache_size: int = 65536,
                 max_pending_events: int | None = None,
                 update_duplicates: str = "last"):
        if not isinstance(recommender, Recommender):
            raise ConfigError(
                f"ServingEngine requires a Recommender; got {type(recommender).__name__}"
            )
        if not recommender.is_fitted:
            raise NotFittedError(
                f"{type(recommender).__name__} must be fitted (or loaded from "
                "an artifact) before serving"
            )
        if store is not None and store.n_users != recommender.dataset.n_users:
            raise ConfigError(
                f"store has {store.n_users} users; model dataset has "
                f"{recommender.dataset.n_users}"
            )
        self.recommender = recommender
        self.store = store
        self.store_exclude_rated = bool(store_exclude_rated)
        self.result_cache_size = check_non_negative_int(
            result_cache_size, "result_cache_size"
        )
        if max_pending_events is not None:
            max_pending_events = check_positive_int(
                max_pending_events, "max_pending_events"
            )
        self.max_pending_events = max_pending_events
        self.update_duplicates = check_in_options(
            update_duplicates, "update_duplicates", ("last", "error")
        )
        self.model_version = 1
        self.pending_events = 0
        self.last_update: UpdateReport | None = None
        self._results: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()  # guarded-by: engine._lock
        self._labels = _label_array(recommender.dataset.item_labels)
        self.result_cache_hits = 0  # guarded-by: engine._lock
        self.result_cache_misses = 0  # guarded-by: engine._lock
        self._solves = 0  # guarded-by: engine._lock
        # Guards the result cache and its counters so concurrent recommend /
        # invalidate_user callers never corrupt the OrderedDict or lose
        # hit/miss increments; solves run outside the lock.
        self._lock = threading.RLock()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_artifact(cls, path: str, store_path: str | None = None,
                      mmap: bool = False, **kwargs) -> "ServingEngine":
        """Boot an engine from a saved model artifact (+ optional store).

        This is the online half of the offline-fit / online-serve split:
        ``repro.cli fit`` writes the artifact, ``repro.cli serve`` calls
        this. No training happens here. ``mmap=True`` memory-maps the
        artifact's arrays (and the store's, when given) copy-on-write
        instead of materialising them — boot cost drops to O(open) and
        engines in separate processes share the physical pages; rankings
        are bit-identical to an eager load (see
        :func:`~repro.core.artifacts.load_artifact`).
        """
        recommender = load_artifact(path, mmap=mmap)
        store = (TopKStore.load(store_path, mmap=mmap)
                 if store_path is not None else None)
        return cls(recommender, store=store, **kwargs)

    @property
    def dataset(self):
        return self.recommender.dataset

    def _score_users(self, users: np.ndarray, k: int, exclude_rated: bool,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked arrays for uncached users: one batch call on the model."""
        with self._lock:
            self._solves += int(users.size)
        return self.recommender.recommend_batch_arrays(
            users, k=k, exclude_rated=exclude_rated
        )

    # -- result cache --------------------------------------------------------

    def _cached_arrays(self, users: np.ndarray, k: int, exclude_rated: bool,
                       timings: dict) -> tuple[np.ndarray, np.ndarray]:
        """Ranked ``(items, scores)`` for ``users``, through the result cache.

        Uncached users are deduplicated and answered in one
        :meth:`_score_users` call; rows are then assembled in cohort order
        (duplicates fanned back out) from the cache. Stage seconds are
        added to the caller's ``timings``, never to engine state, so
        concurrent callers cannot leak time into each other's reports.
        """
        if self.result_cache_size == 0:
            # No cache, but in-cohort duplicates are still solved once.
            unique, inverse = np.unique(users, return_inverse=True)
            with self._lock:
                self.result_cache_misses += int(unique.size)
                self.result_cache_hits += int(users.size - unique.size)
            with _stage(timings, "solve"):
                items, scores = self._score_users(unique, k, exclude_rated)
            return items[inverse], scores[inverse]
        with _stage(timings, "lookup"), self._lock:
            keys = [(int(u), k, exclude_rated) for u in users]
            missing: list[int] = []
            seen: set[tuple] = set()
            for user, key in zip(users, keys):
                if key in self._results:
                    self.result_cache_hits += 1
                elif key not in seen:
                    seen.add(key)
                    missing.append(int(user))
                    self.result_cache_misses += 1
                else:
                    self.result_cache_hits += 1  # duplicate within this cohort
        fresh: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        if missing:
            version = self.model_version
            cohort = np.asarray(missing, dtype=np.int64)
            with _stage(timings, "solve"):
                new_items, new_scores = self._score_users(cohort, k, exclude_rated)
            for row, user in enumerate(missing):
                fresh[(user, k, exclude_rated)] = (new_items[row], new_scores[row])
            with self._lock:
                # Solves run outside the lock; if an update landed in the
                # meantime (version bumped, our users possibly evicted),
                # inserting would re-cache pre-update rows — `fresh` still
                # serves them this once, but they stay out of the cache.
                if self.model_version == version:
                    self._results.update(fresh)
                    while len(self._results) > self.result_cache_size:
                        self._results.popitem(last=False)
        with _stage(timings, "lookup"), self._lock:
            items = np.full((users.size, k), -1, dtype=np.int64)
            scores = np.full((users.size, k), -np.inf)
            fallback: list[int] = []
            for row, key in enumerate(keys):
                entry = self._results.get(key)
                if entry is not None:
                    self._results.move_to_end(key)
                else:
                    entry = fresh.get(key)  # solved this call, not (re)cached
                    if entry is None:  # evicted (tiny cache) mid-call
                        fallback.append(row)
                        continue
                items[row], scores[row] = entry
        if fallback:
            rows = np.asarray(fallback, dtype=np.int64)
            with _stage(timings, "solve"):
                fb_items, fb_scores = self._score_users(
                    users[rows], k, exclude_rated
                )
            items[rows] = fb_items
            scores[rows] = fb_scores
        return items, scores

    # -- serving -------------------------------------------------------------

    def recommend(self, user: int, k: int = 10, exclude_rated: bool = True,
                  exclude=None) -> list[Recommendation]:
        """Top-``k`` for one user, served as warm as possible.

        Resolution order: attached :class:`TopKStore` (when deep enough for
        ``k`` plus the exclusions and built with the same ``exclude_rated``
        semantics — see ``store_exclude_rated``), then the engine's result
        cache, then the model. ``exclude`` re-filters the ranked list the way
        the store does: banned items are dropped and next-ranked ones take
        their place.
        """
        dataset = self.dataset
        dataset._check_user(user)
        k = check_positive_int(k, "k")
        banned = as_exclude_array(exclude)
        if (self.store is not None
                and exclude_rated == self.store_exclude_rated
                and self.store.depth >= k + banned.size):
            return self.store.recommend(user, k, exclude=banned)
        items, scores = self._cached_arrays(
            np.array([user], dtype=np.int64), k + banned.size, exclude_rated,
            timings={},
        )
        row_items, row_scores = items[0], scores[0]
        keep = row_items >= 0
        if banned.size:
            keep &= ~np.isin(row_items, banned)
        row_items, row_scores = row_items[keep][:k], row_scores[keep][:k]
        return [
            Recommendation(int(i), self._labels[int(i)], float(s))
            for i, s in zip(row_items, row_scores)
        ]

    def recommend_many(self, users, k: int = 10, exclude_rated: bool = True,
                       excludes=None) -> list[list[Recommendation]]:
        """A batch of independent single-user requests, coalesced per solve.

        The hook the micro-batching front end
        (:class:`~repro.service.server.BatchingServer`) fans a drained
        admission queue into: ``users`` is a sequence of user indices (one
        per request — duplicates legal) and ``excludes`` an optional
        parallel sequence of per-request exclusion sets. Responses are
        **bit-identical** to calling :meth:`recommend` once per request
        (asserted in the test suite): store-eligible requests go to the
        attached :class:`TopKStore` exactly as :meth:`recommend` routes
        them, and the rest are grouped by effective list depth
        (``k + len(exclude)``) so each group is one
        :meth:`_cached_arrays` call — the same call, with the same
        arguments, that :meth:`recommend` would make per user, but with
        the uncached users of the whole group answered in a single
        multi-RHS solve (in-group duplicates deduplicated by the result
        cache's lookup pass).
        """
        users = list(users)
        if excludes is None:
            excludes = [None] * len(users)
        else:
            excludes = list(excludes)
            if len(excludes) != len(users):
                raise ConfigError(
                    f"excludes has {len(excludes)} entries for "
                    f"{len(users)} users"
                )
        dataset = self.dataset
        k = check_positive_int(k, "k")
        banned = [as_exclude_array(exclude) for exclude in excludes]
        for user in users:
            dataset._check_user(user)
        out: list = [None] * len(users)
        by_depth: dict[int, list[int]] = {}
        for position, (user, bans) in enumerate(zip(users, banned)):
            if (self.store is not None
                    and exclude_rated == self.store_exclude_rated
                    and self.store.depth >= k + bans.size):
                out[position] = self.store.recommend(user, k, exclude=bans)
            else:
                by_depth.setdefault(k + int(bans.size), []).append(position)
        for depth, positions in by_depth.items():
            cohort = np.asarray([int(users[p]) for p in positions],
                                dtype=np.int64)
            items, scores = self._cached_arrays(cohort, depth, exclude_rated,
                                                timings={})
            for row, position in enumerate(positions):
                row_items, row_scores = items[row], scores[row]
                keep = row_items >= 0
                bans = banned[position]
                if bans.size:
                    keep &= ~np.isin(row_items, bans)
                row_items = row_items[keep][:k]
                row_scores = row_scores[keep][:k]
                out[position] = [
                    Recommendation(int(i), self._labels[int(i)], float(s))
                    for i, s in zip(row_items, row_scores)
                ]
        return out

    def _serve_cohort_arrays(self, users, k: int = 10, batch_size: int = 256,
                             exclude_rated: bool = True,
                             ) -> tuple[EngineReport, np.ndarray, np.ndarray,
                                        np.ndarray]:
        """Arrays-shaped core of :meth:`serve_cohort` (no row dicts).

        Returns ``(report, users, items, scores)``: an :class:`EngineReport`
        with empty ``rows`` covering the lookup/solve stages, the validated
        cohort, and the padded ranked arrays in cohort order. The sharded
        tier (:class:`~repro.service.sharding.ShardedEngine`) consumes this
        directly so it can remap shard-local item indices to the global
        catalogue and assemble the merged rows exactly once.
        """
        dataset = self.dataset
        k = check_positive_int(k, "k")
        batch_size = check_positive_int(batch_size, "batch_size")
        users = as_index_array(users, dataset.n_users, "users")
        report = EngineReport(n_users=int(users.size), k=k)
        with self._lock:
            # One consistent snapshot: a concurrent cohort bumping the
            # counters mid-read must not skew this report's deltas.
            hits_before = self.result_cache_hits
            misses_before = self.result_cache_misses
            solves_before = self._solves
        items = np.full((users.size, k), -1, dtype=np.int64)
        scores = np.full((users.size, k), -np.inf)
        with Timer() as timer:
            for start in range(0, users.size, batch_size):
                chunk = users[start:start + batch_size]
                items[start:start + batch_size], scores[start:start + batch_size] = (
                    self._cached_arrays(chunk, k, exclude_rated,
                                        timings=report.timings)
                )
        report.seconds = timer.elapsed
        with self._lock:
            report.n_solves = self._solves - solves_before
            report.result_cache_hits = self.result_cache_hits - hits_before
            report.result_cache_misses = (
                self.result_cache_misses - misses_before)
            report.result_cache_entries = len(self._results)
        report.scoring_cache = self.recommender.scoring_cache_stats() or {}
        report.scoring_cache_entries = report.scoring_cache.get("entries", 0)
        report.model_version = self.model_version
        return report, users, items, scores

    def serve_cohort(self, users, k: int = 10, batch_size: int = 256,
                     exclude_rated: bool = True) -> EngineReport:
        """Serve a user cohort in bounded chunks through the warm caches.

        An empty cohort is legal (a report with zero users); cold-start
        users contribute no rows, matching ``recommend_batch``.
        """
        report, users, items, scores = self._serve_cohort_arrays(
            users, k=k, batch_size=batch_size, exclude_rated=exclude_rated
        )
        with Timer() as assemble_timer:
            report.rows = rows_from_ranked_arrays(
                users, items, scores, self._labels
            )
        report.timings["assemble"] = assemble_timer.elapsed
        report.seconds += assemble_timer.elapsed
        return report

    def warm(self, users=None, k: int = 10, batch_size: int = 256) -> EngineReport:
        """Pre-fill the caches (default: every user) before taking traffic."""
        if users is None:
            users = np.arange(self.dataset.n_users, dtype=np.int64)
        return self.serve_cohort(users, k=k, batch_size=batch_size)

    # -- incremental updates --------------------------------------------------

    def apply_updates(self, events, duplicates: str | None = None) -> UpdateReport:
        """Absorb ``(user_label, item_label, rating)`` events without a refit.

        The end-to-end incremental pipeline in one call: the fitted dataset
        is extended (new users/items register rows/columns;
        ``update_duplicates`` governs re-rates), the model's
        :meth:`~repro.core.base.Recommender.partial_fit` refreshes derived
        state for the touched nodes with targeted scoring-cache
        invalidation, and the engine evicts **only the affected users'**
        ranked lists from its result cache — everything else keeps serving
        warm, bit-identical to a from-scratch refit on the merged data (the
        parity contract asserted in the test suite). An attached
        :class:`TopKStore` predates the update and is detached (rebuild via
        :meth:`build_store` when wanted). When ``max_pending_events`` is set
        and the absorbed-event count reaches it, the engine runs
        :meth:`consolidate` before returning.

        Not thread-safe against concurrent serving: updates are a
        single-writer operation, matching the one-writer/many-readers
        deployment shape.
        """
        events = list(events)
        report = UpdateReport(mode="none", model_version=self.model_version,
                              pending_events=self.pending_events)
        if not events:
            self.last_update = report
            return report
        with Timer() as timer:
            delta = self.dataset.extend(
                events, duplicates=duplicates or self.update_duplicates
            )
            fit_report = self.recommender.partial_fit(delta)
            self._labels = _label_array(self.dataset.item_labels)
            # Bump the version BEFORE evicting: a concurrent solve that
            # finished against the old model gates its cache insert on the
            # version it captured, so bump-then-evict leaves no window in
            # which stale rows can slip in after the eviction sweep.
            self.model_version += 1
            report.result_rows_evicted = self._evict_results(
                fit_report.affected_users
            )
            if self.store is not None:
                self.store = None
                report.store_detached = True
            if fit_report.mode == "refit":
                # The fallback already refit on the merged dataset — that IS
                # a consolidation; restarting the staleness clock avoids an
                # immediate redundant second fit at the threshold.
                self.pending_events = 0
            else:
                self.pending_events += delta.n_events
                if (self.max_pending_events is not None
                        and self.pending_events >= self.max_pending_events):
                    self.consolidate()
                    report.consolidated = True
        report.n_events = delta.n_events
        report.n_new_users = delta.n_new_users
        report.n_new_items = delta.n_new_items
        report.n_replaced = delta.n_replaced
        report.mode = fit_report.mode
        report.model_version = self.model_version
        report.n_affected_users = fit_report.n_affected_users
        report.pending_events = self.pending_events
        report.seconds = timer.elapsed
        report.scoring_cache = self.recommender.scoring_cache_stats() or {}
        self.last_update = report
        return report

    def consolidate(self) -> None:
        """Full refit on the merged dataset — the staleness-policy backstop.

        Incremental updates keep serving bit-identically, but they
        accumulate debris a refit compacts: non-contiguous component
        labels, appended derived-state rows, invalidation-scarred caches.
        Consolidation re-runs ``fit`` on the (already merged) dataset and
        drops both cache layers, leaving the engine exactly as if freshly
        booted from a refit artifact. Runs inline; schedule it off-peak or
        bound it with ``max_pending_events``.
        """
        self.recommender.fit(self.recommender.dataset)
        self.model_version += 1  # before the sweep; see apply_updates
        self._evict_results(None)
        self.pending_events = 0

    def _evict_results(self, affected_users: np.ndarray | None) -> int:
        """Drop affected users' ranked lists; ``None`` clears everything."""
        with self._lock:
            if affected_users is None:
                evicted = len(self._results)
                self._results.clear()
                return evicted
            affected = set(int(u) for u in affected_users)
            stale = [key for key in self._results if key[0] in affected]
            for key in stale:
                del self._results[key]
            return len(stale)

    # -- store management ----------------------------------------------------

    def build_store(self, depth: int = 50, batch_size: int = 256,
                    exclude_rated: bool = True) -> TopKStore:
        """Precompute and attach a :class:`TopKStore` for single-user traffic.

        Records ``exclude_rated`` so :meth:`recommend` only routes to the
        store requests with matching exclusion semantics.
        """
        self.store = TopKStore.from_recommender(
            self.recommender, depth=depth, batch_size=batch_size,
            exclude_rated=exclude_rated,
        )
        self.store_exclude_rated = bool(exclude_rated)
        return self.store

    # -- introspection -------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop both cache layers: the result cache *and* the model's
        scoring-layer cache (transition matrices, prepared operators) — a
        running engine can now shed all warm state without being discarded.
        """
        with self._lock:
            self._results.clear()
            self.result_cache_hits = 0
            self.result_cache_misses = 0
        self.recommender.clear_scoring_cache()

    def invalidate_user(self, user: int) -> int:
        """Evict one user's ranked lists from the result cache.

        Removes every cached ``(user, k, exclude_rated)`` variant; returns
        the number of entries dropped. The next request for the user is
        re-scored through the (still warm) scoring layer — the hook for
        out-of-band signals ("this user just consumed an item") that don't
        warrant a model update.
        """
        self.dataset._check_user(user)
        with self._lock:
            stale = [key for key in self._results if key[0] == int(user)]
            for key in stale:
                del self._results[key]
            return len(stale)

    def health(self) -> dict:
        """Liveness in the shape the HTTP ``/health`` probe serves.

        A single in-process engine is healthy whenever it can run at all;
        the hook exists so every engine flavour (single, in-process fleet,
        process fleet) answers the same probe — the process fleet's
        version reports real per-shard up/down state and degrades the
        HTTP status to 503.
        """
        return {"status": "ok", "shards": []}

    def stats(self) -> dict:
        """Lifetime cache counters of both layers plus store presence."""
        with self._lock:
            return {
                "result_entries": len(self._results),
                "result_hits": self.result_cache_hits,
                "result_misses": self.result_cache_misses,
                "solves": self._solves,
                "scoring_cache": self.recommender.scoring_cache_stats() or {},
                "store_attached": self.store is not None,
                "model_version": self.model_version,
                "pending_events": self.pending_events,
            }

    def __repr__(self) -> str:
        with self._lock:
            cached = len(self._results)
        return (
            f"ServingEngine(algorithm={self.recommender.name!r}, "
            f"cached_results={cached}, "
            f"store={'yes' if self.store is not None else 'no'})"
        )
