"""ServingEngine: warm caches must never change results, edge cases included."""

import json
import threading
import time

import numpy as np
import pytest

from repro import (
    AbsorbingTimeRecommender,
    MostPopularRecommender,
    PureSVDRecommender,
    ServingEngine,
)
from repro.exceptions import ConfigError, NotFittedError, UnknownUserError
from repro.service import EngineReport, TopKStore, rows_from_ranked_arrays


@pytest.fixture(scope="module")
def fitted_at(small_synth):
    return AbsorbingTimeRecommender().fit(small_synth.dataset)


@pytest.fixture()
def engine(fitted_at):
    return ServingEngine(fitted_at)


def model_rows(recommender, users, k):
    """Cohort rows straight from the model's batch path: no engine caches."""
    users = np.asarray(users, dtype=np.int64)
    items, scores = recommender.recommend_batch_arrays(users, k=k)
    labels = np.empty(recommender.dataset.n_items, dtype=object)
    labels[:] = list(recommender.dataset.item_labels)
    return rows_from_ranked_arrays(users, items, scores, labels)


class TestConstruction:
    def test_requires_fitted(self):
        with pytest.raises(NotFittedError):
            ServingEngine(AbsorbingTimeRecommender())

    def test_requires_recommender(self):
        with pytest.raises(ConfigError):
            ServingEngine("not a model")

    def test_store_shape_validated(self, fitted_at):
        bad = TopKStore(np.array([[0]]), np.zeros((1, 1)), ("a", "b"))
        with pytest.raises(ConfigError, match="users"):
            ServingEngine(fitted_at, store=bad)

    def test_from_artifact(self, fitted_at, tmp_path):
        path = fitted_at.save(str(tmp_path / "model"))
        engine = ServingEngine.from_artifact(path)
        assert engine.recommender.name == "AT"
        original = [r.item for r in fitted_at.recommend(3, k=5)]
        served = [r.item for r in engine.recommend(3, k=5)]
        assert original == served

    def test_from_artifact_with_store(self, fitted_at, tmp_path):
        model_path = fitted_at.save(str(tmp_path / "model"))
        store_path = str(tmp_path / "store.npz")
        TopKStore.from_recommender(fitted_at, depth=20).save(store_path)
        engine = ServingEngine.from_artifact(model_path, store_path=store_path)
        assert engine.store is not None
        assert [r.item for r in engine.recommend(3, k=5)] == \
            [r.item for r in fitted_at.recommend(3, k=5)]


class TestCohortServing:
    @pytest.mark.parametrize("batch_size", [256, 5])
    def test_matches_model_batch_path(self, fitted_at, engine, batch_size):
        users = np.arange(0, 100, 9)
        report = engine.serve_cohort(users, k=6, batch_size=batch_size)
        assert report.rows == model_rows(fitted_at, users, k=6)
        assert report.n_users == users.size

    def test_rows_cover_cohort(self, tiny_dataset):
        fitted = MostPopularRecommender().fit(tiny_dataset)
        report = ServingEngine(fitted).serve_cohort(np.array([0, 1, 2]), k=2)
        assert report.n_users == 3 and report.k == 2
        assert {row["user"] for row in report.rows} == {0, 1, 2}
        assert all(1 <= row["rank"] <= 2 for row in report.rows)

    def test_rows_match_recommend_batch(self, tiny_dataset):
        """Rows against the model's Recommendation lists, an oracle that
        does not go through the engine's own row assembly. k exceeds what
        both users have left unrated, so padding is dropped too."""
        fitted = MostPopularRecommender().fit(tiny_dataset)
        users = np.array([0, 2])
        report = ServingEngine(fitted).serve_cohort(users, k=3, batch_size=1)
        expected = [
            {"user": int(user), "rank": rank, "item": rec.item,
             "label": rec.label, "score": rec.score}
            for user, ranked in zip(users, fitted.recommend_batch(users, k=3))
            for rank, rec in enumerate(ranked, start=1)
        ]
        assert report.rows == expected

    def test_throughput_fields(self, engine):
        report = engine.serve_cohort(np.array([0]), k=1)
        summary = report.summary()
        assert summary["users"] == 1 and summary["k"] == 1
        assert report.seconds > 0
        assert report.users_per_second > 0

    def test_warm_pass_identical_and_counted(self, engine):
        users = np.arange(0, 60, 5)
        cold = engine.serve_cohort(users, k=5)
        warm = engine.serve_cohort(users, k=5)
        assert cold.rows == warm.rows
        assert cold.result_cache_misses == users.size
        assert warm.result_cache_hits == users.size
        assert warm.result_cache_hit_rate == 1.0

    def test_empty_cohort(self, engine):
        report = engine.serve_cohort(np.empty(0, dtype=np.int64), k=5)
        assert report.n_users == 0
        assert report.rows == []
        assert report.users_per_second == 0.0

    def test_duplicate_users_count_as_hits(self, engine):
        report = engine.serve_cohort(np.array([2, 2, 2]), k=4)
        assert report.result_cache_misses == 1
        assert report.result_cache_hits == 2
        assert [r for r in report.rows if r["rank"] == 1][0] == \
            [r for r in report.rows if r["rank"] == 1][1]

    def test_summary_carries_scoring_stats(self, engine):
        report = engine.serve_cohort(np.arange(8), k=4)
        summary = report.summary()
        assert {"users", "seconds", "result_hits", "scoring_hits"} <= set(summary)

    def test_out_of_range_users_rejected(self, engine):
        with pytest.raises(ConfigError, match="out-of-range"):
            engine.serve_cohort(np.array([0, 99_999]))

    def test_result_cache_disabled(self, fitted_at):
        engine = ServingEngine(fitted_at, result_cache_size=0)
        users = np.arange(6)
        cold = engine.serve_cohort(users, k=4)
        warm = engine.serve_cohort(users, k=4)
        assert cold.rows == warm.rows
        assert warm.result_cache_hits == 0

    def test_result_cache_eviction_bounded(self, fitted_at):
        engine = ServingEngine(fitted_at, result_cache_size=4)
        report = engine.serve_cohort(np.arange(12), k=3)
        assert report.n_users == 12
        assert engine.stats()["result_entries"] <= 4


class TestColdStartUsers:
    def test_cold_start_user_yields_no_rows(self, small_synth):
        # A user whose every rating is removed has an empty absorbing set.
        dataset = small_synth.dataset
        user = 7
        pairs = [(user, int(i)) for i in dataset.items_of_user(user)]
        depleted = dataset.without_ratings(pairs)
        engine = ServingEngine(AbsorbingTimeRecommender().fit(depleted))
        report = engine.serve_cohort(np.array([user, 0]), k=5)
        assert all(row["user"] != user for row in report.rows)
        assert any(row["user"] == 0 for row in report.rows)
        assert engine.recommend(user, k=5) == []


class TestSingleQuery:
    def test_matches_model_recommend(self, fitted_at, engine):
        for user in (0, 11, 57):
            assert [r.item for r in engine.recommend(user, k=7)] == \
                [r.item for r in fitted_at.recommend(user, k=7)]

    def test_exclusion_refilter(self, fitted_at, engine):
        full = [r.item for r in engine.recommend(4, k=8)]
        refiltered = [r.item for r in engine.recommend(4, k=8,
                                                       exclude=full[:2])]
        assert refiltered[:6] == full[2:8]
        assert set(full[:2]).isdisjoint(refiltered)

    def test_unknown_user_rejected(self, engine):
        with pytest.raises(UnknownUserError):
            engine.recommend(99_999)

    def test_exclude_iterator_respected_with_store(self, fitted_at):
        # A one-shot iterable must not be exhausted before the store sees it.
        engine = ServingEngine(fitted_at)
        engine.build_store(depth=20)
        full = [r.item for r in engine.recommend(4, k=8)]
        refiltered = [r.item for r in engine.recommend(4, k=8,
                                                       exclude=iter(full[:2]))]
        assert set(full[:2]).isdisjoint(refiltered)
        assert refiltered[:6] == full[2:8]

    def test_store_with_other_exclusion_semantics_bypassed(self, fitted_at,
                                                           small_synth):
        engine = ServingEngine(fitted_at)
        engine.build_store(depth=20, exclude_rated=False)
        rated = set(small_synth.dataset.items_of_user(9).tolist())
        # Request asks for exclusion; the non-excluding store must not answer.
        served = [r.item for r in engine.recommend(9, k=8)]
        assert rated.isdisjoint(served)
        assert served == [r.item for r in fitted_at.recommend(9, k=8)]
        # A matching (non-excluding) request may use the store.
        unfiltered = [r.item for r in engine.recommend(9, k=8,
                                                       exclude_rated=False)]
        assert unfiltered == [
            r.item for r in fitted_at.recommend(9, k=8, exclude_rated=False)
        ]

    def test_store_answers_when_deep_enough(self, fitted_at):
        engine = ServingEngine(fitted_at)
        engine.build_store(depth=20)
        assert engine.stats()["store_attached"]
        assert [r.item for r in engine.recommend(9, k=5)] == \
            [r.item for r in fitted_at.recommend(9, k=5)]
        # No result-cache traffic: the store answered.
        assert engine.result_cache_misses == 0

    def test_shallow_store_falls_back_to_model(self, fitted_at):
        engine = ServingEngine(fitted_at, store=TopKStore.from_recommender(
            fitted_at, depth=3))
        assert [r.item for r in engine.recommend(9, k=8)] == \
            [r.item for r in fitted_at.recommend(9, k=8)]
        assert engine.result_cache_misses == 1


class TestWarmAndStats:
    def test_warm_prefills_every_user(self, fitted_at, small_synth):
        engine = ServingEngine(fitted_at)
        engine.warm(k=4)
        report = engine.serve_cohort(np.arange(small_synth.dataset.n_users),
                                     k=4)
        assert report.result_cache_misses == 0

    def test_clear_caches(self, fitted_at):
        engine = ServingEngine(fitted_at)
        engine.serve_cohort(np.arange(5), k=3)
        engine.clear_caches()
        stats = engine.stats()
        assert stats["result_entries"] == 0
        assert stats["result_hits"] == 0

    def test_works_for_non_walk_algorithms(self, small_synth):
        for cls in (MostPopularRecommender, PureSVDRecommender):
            fitted = cls().fit(small_synth.dataset)
            engine = ServingEngine(fitted)
            report = engine.serve_cohort(np.arange(10), k=5)
            assert report.scoring_cache == {}
            assert report.rows == model_rows(fitted, np.arange(10), k=5)


class TestStageTimings:
    def test_stage_timings_reported(self, fitted_at):
        engine = ServingEngine(fitted_at)
        report = engine.serve_cohort(np.arange(0, 30, 2), k=4)
        assert {"lookup", "solve", "assemble"} <= set(report.timings)
        assert all(v >= 0 for v in report.timings.values())
        assert "solve_s" in report.summary()

    def test_concurrent_reader_time_stays_out_of_cohort_report(
            self, fitted_at, monkeypatch):
        """Regression: stage timings are per call. A reader on another
        thread (the BatchingServer path) that is still inside its solve
        when a cohort starts must not add its solve time to the cohort's
        ``timings`` — the cohort's solve stage cannot outlast the cohort."""
        engine = ServingEngine(fitted_at)
        solve = fitted_at.recommend_batch_arrays
        reader_solving = threading.Event()
        release_reader = threading.Event()

        def held_solve(users, *args, **kwargs):
            if threading.current_thread() is reader:
                reader_solving.set()
                assert release_reader.wait(timeout=10)
            else:
                # The cohort, inside its own solve stage, lets the reader
                # finish its solve before going on.
                release_reader.set()
                reader.join(timeout=10)
            return solve(users, *args, **kwargs)

        monkeypatch.setattr(fitted_at, "recommend_batch_arrays", held_solve)
        reader = threading.Thread(target=engine.recommend_many, args=([1],),
                                  kwargs={"k": 4})
        reader.start()
        assert reader_solving.wait(timeout=10)
        time.sleep(0.1)  # the reader's solve stage now outlasts the cohort
        report = engine.serve_cohort(np.array([2, 3]), k=4)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert report.n_solves == 2
        assert 0 < report.timings["solve"] <= report.seconds


class TestDedupeAndSolveCounts:
    @pytest.mark.parametrize("result_cache_size", [65536, 0])
    def test_duplicates_solved_once_and_fanned_out(self, fitted_at,
                                                   result_cache_size):
        engine = ServingEngine(fitted_at, result_cache_size=result_cache_size)
        cohort = np.array([3, 5, 3, 5, 3])
        report = engine.serve_cohort(cohort, k=4)
        assert report.n_users == 5
        assert report.n_solves == 2  # one per distinct user
        # Rows come back in cohort order, duplicates fanned out verbatim.
        per_user = {u: model_rows(fitted_at, [u], k=4) for u in (3, 5)}
        assert report.rows == [row for u in cohort for row in per_user[int(u)]]

    def test_warm_pass_reports_zero_solves(self, fitted_at):
        engine = ServingEngine(fitted_at)
        users = np.arange(0, 20, 3)
        cold = engine.serve_cohort(users, k=4)
        warm = engine.serve_cohort(users, k=4)
        assert cold.n_solves == users.size
        assert warm.n_solves == 0


class TestZeroRevalidation:
    def test_cached_group_served_twice_validates_once(self, small_synth):
        """The prepared-operator contract: no O(nnz) validation scan on the
        warm path — a group's matrix is validated exactly once, at cache
        build time, however many times it is served afterwards."""
        fitted = AbsorbingTimeRecommender().fit(small_synth.dataset)
        engine = ServingEngine(fitted, result_cache_size=0)
        users = np.arange(0, 60, 5)
        cold = engine.serve_cohort(users, k=5)
        validations_cold = cold.scoring_cache["operator_validations"]
        solves_cold = cold.scoring_cache["operator_solves"]
        assert validations_cold >= 1
        warm = engine.serve_cohort(users, k=5)
        assert warm.rows == cold.rows
        # More solves ran, yet not a single extra validation.
        assert warm.scoring_cache["operator_solves"] > solves_cold
        assert warm.scoring_cache["operator_validations"] == validations_cold


class TestRowsFromRankedArrays:
    def test_padding_dropped_ranks_and_labels_kept(self):
        users = np.array([7, 4])
        items = np.array([[2, 0, -1], [-1, -1, -1]])
        scores = np.array([[0.5, 0.25, -np.inf], [-np.inf] * 3])
        labels = np.array(["a", "b", "c"], dtype=object)
        assert rows_from_ranked_arrays(users, items, scores, labels) == [
            {"user": 7, "rank": 1, "item": 2, "label": "c", "score": 0.5},
            {"user": 7, "rank": 2, "item": 0, "label": "a", "score": 0.25},
        ]


class TestReportJsonSafety:
    """Regression: a zero-second run must stay JSON-serializable."""

    def test_zero_seconds_clamps_users_per_second(self):
        report = EngineReport(n_users=5, seconds=0.0)
        assert report.users_per_second == 0.0

    def test_summary_round_trips_through_json(self):
        # A fully warm cohort on a fast machine can land seconds == 0;
        # float("inf") here used to serialize as bare `Infinity`, which is
        # not valid JSON.
        report = EngineReport(n_users=5, seconds=0.0)
        payload = json.dumps(report.summary())
        assert json.loads(payload)["users_per_sec"] == 0.0

    def test_live_summary_always_json_safe(self, engine):
        report = engine.serve_cohort(np.arange(4), k=3)
        report.seconds = 0.0  # simulate an unmeasurably fast run
        json.loads(json.dumps(report.summary()))


class TestInputHygiene:
    """Regression: bool user ids and awkward exclude shapes."""

    def test_bool_user_rejected(self, engine):
        # isinstance(True, int) holds; recommend(False) must not silently
        # serve user 0.
        with pytest.raises(UnknownUserError):
            engine.recommend(True)
        with pytest.raises(UnknownUserError):
            engine.recommend(False)

    def test_bool_user_rejected_with_store(self, fitted_at):
        engine = ServingEngine(fitted_at,
                               store=TopKStore.from_recommender(fitted_at,
                                                                depth=15))
        with pytest.raises(UnknownUserError):
            engine.recommend(True)

    def test_empty_exclude_variants(self, engine):
        base = [r.item for r in engine.recommend(3, k=5)]
        for empty in ([], set(), (), np.array([], dtype=np.float64)):
            assert [r.item
                    for r in engine.recommend(3, k=5, exclude=empty)] == base

    def test_float_exclude_matches_int_exclude(self, engine):
        base = [r.item for r in engine.recommend(3, k=6)]
        as_float = np.asarray(base[:2], dtype=np.float64)
        assert [r.item for r in engine.recommend(3, k=4, exclude=as_float)] \
            == [r.item for r in engine.recommend(3, k=4, exclude=base[:2])]

    def test_fractional_exclude_rejected(self, engine):
        with pytest.raises(ConfigError, match="non-integral"):
            engine.recommend(3, exclude=np.array([1.5]))

    def test_bool_exclude_rejected(self, engine):
        with pytest.raises(ConfigError, match="boolean"):
            engine.recommend(3, exclude=[True, False])

    def test_mixed_bool_cohort_rejected(self, engine):
        # np.asarray promotes [3, True] to int64 before any dtype check
        # can fire; serve_cohort must hand raw input to the element scan.
        with pytest.raises(ConfigError, match="boolean"):
            engine.serve_cohort([3, True], k=3)
        with pytest.raises(ConfigError, match="boolean"):
            engine.recommender.recommend_batch([3, True], k=3)
