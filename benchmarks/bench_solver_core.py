"""Prepared-operator solver core — warm cohort throughput and its receipts.

The prepared-operator refactor moved the O(nnz) transition validation, the
per-set ``np.isin`` reachability sorts and the per-sweep dense allocations
off the warm serving path (see DESIGN.md §8). This bench quantifies what
that buys on a repeated Absorbing Time cohort, in four configurations:

* **cold prepared** — first serve ever: cache build + validation + solve;
* **warm prepared** — the same cohort again through the prepared operators
  (float32 serving mode): zero validation, memoized plans, chunked sweeps;
* **warm legacy** — the PR-2-era warm path, faithfully replayed: cached
  transition matrices, but every chunk re-enters the free-function solver
  (re-validating the matrix) and re-derives reachability with per-set
  ``np.isin``, in float64 with per-sweep allocations;
* **per-user loop** — the warm prepared path one user at a time, isolating
  what multi-RHS amortisation alone contributes.

Assertions: the warm prepared batch must beat the per-user loop by ≥1.5×
at every scale (the CI perf-smoke gate), and at (near-)default scale it
must beat the warm legacy path by ≥2×. Both paths must produce identical
top-10 rankings — a solver core that changes results is a bug, not a
speedup.

The measured numbers are written to ``BENCH_solver.json`` at the repo root
(cold/warm timings, dtype and chunk configuration) so later PRs have a
machine-readable perf trajectory to regress against.
"""

import json
import os

import numpy as np
import scipy.sparse as sp

from benchmarks.conftest import bench_scale, strict_assertions
from repro import AbsorbingTimeRecommender
from repro.experiments import make_data
from repro.utils.timer import Timer
from repro.utils.topk import top_k_indices

COHORT = 128
BATCH = 32
K = 10
SERVING_DTYPE = "float32"
CHUNK_SIZE = 1024

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(_REPO_ROOT, "BENCH_solver.json")


def _legacy_truncated_multi(transition, absorbing_sets, n_iterations,
                            reachable):
    """Verbatim replay of the PR-2 multi-RHS solver (the pre-operator code).

    Re-validates the matrix per call (the O(nnz) ``_check_transition``
    scan), materializes the full pinned cost matrix, and allocates a fresh
    float64 ``(n, n_sets)`` dense matrix per sweep via ``c + P @ x``.
    """
    p = sp.csr_matrix(transition, dtype=np.float64)
    assert p.shape[0] == p.shape[1]
    assert not (p.nnz and p.data.min() < 0)
    sums = np.asarray(p.sum(axis=1)).ravel()
    assert not np.flatnonzero((sums > 1e-9) & (np.abs(sums - 1.0) > 1e-6)).size
    n = p.shape[0]
    n_sets = len(absorbing_sets)
    costs = np.ones(n)
    pin_rows = np.concatenate(absorbing_sets)
    pin_cols = np.repeat(np.arange(n_sets), [a.size for a in absorbing_sets])
    c = np.repeat(costs[:, None], n_sets, axis=1)
    c[pin_rows, pin_cols] = 0.0
    x = np.zeros((n, n_sets))
    for _ in range(n_iterations):
        x = c + p @ x
        x[pin_rows, pin_cols] = 0.0
    values = np.where(reachable, x, np.inf)
    values[pin_rows, pin_cols] = 0.0
    return values


def _legacy_partition(recommender, users, absorbing_sets):
    """PR-2's per-request grouping: component keys re-derived every call
    (``np.unique`` + ``np.isin`` per user — nothing was memoized)."""
    graph = recommender.graph
    labels = graph.component_labels()
    item_component_sizes = graph.item_component_sizes()
    groups, solo = {}, []
    for i, user in enumerate(users):
        absorbing = absorbing_sets[i]
        if absorbing.size == 0:
            continue
        seed_items = recommender._subgraph_seed_items(int(user), absorbing)
        if seed_items.size == 0:
            solo.append(i)
            continue
        components = np.unique(labels[graph.item_nodes(seed_items)])
        if (int(item_component_sizes[components].sum()) > recommender.subgraph_size
                or not np.all(np.isin(labels[absorbing], components))):
            solo.append(i)
            continue
        groups.setdefault(tuple(int(c) for c in components), []).append(i)
    return groups, solo


def _legacy_score_users(recommender, users):
    """The pre-prepared-operator warm batch path, replayed faithfully.

    Uses the same cached transition matrices as the modern path, but
    re-derives the cohort grouping per request and solves through
    :func:`_legacy_truncated_multi` — which re-runs the O(nnz)
    stochasticity scan per chunk — rebuilding reachability with per-set
    ``np.isin`` plus fresh float64 cost/pin structures per call, exactly
    as the PR-2 code did.
    """
    dataset = recommender.dataset
    scores = np.full((users.size, dataset.n_items), -np.inf)
    cache = recommender._ensure_cache()
    absorbing_sets = [recommender._absorbing_nodes(int(u)) for u in users]
    groups, solo = _legacy_partition(recommender, users, absorbing_sets)
    assert not solo, "bench cohort unexpectedly truncates at µ"
    for components, members in groups.items():
        entry = cache.group(components)
        if components is None:
            absorbing_local = [absorbing_sets[i] for i in members]
        else:
            absorbing_local = [np.searchsorted(entry.nodes, absorbing_sets[i])
                               for i in members]
        reachable = np.column_stack([
            np.isin(entry.labels, entry.labels[absorbing])
            for absorbing in absorbing_local
        ])
        values = _legacy_truncated_multi(
            entry.transition, absorbing_local, recommender.n_iterations,
            reachable,
        )
        item_values = values[entry.operator.n_users:, :]
        finite = np.isfinite(item_values)
        for column, i in enumerate(members):
            keep = finite[:, column]
            scores[i, entry.item_indices[keep]] = -item_values[keep, column]
    return scores


def _chunked(fn, users):
    parts = [fn(users[start:start + BATCH])
             for start in range(0, users.size, BATCH)]
    return np.vstack(parts)


def _top10(scores):
    return np.stack([top_k_indices(row, K) for row in scores])


def _best_of(fn, repeats=3):
    """Best wall-clock of ``repeats`` runs (standard microbench hygiene)."""
    elapsed = []
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        elapsed.append(timer.elapsed)
    return min(elapsed)


def test_solver_core_throughput(config, report):
    train = make_data("movielens", config).dataset
    users = np.arange(min(COHORT, train.n_users), dtype=np.int64)

    recommender = AbsorbingTimeRecommender(
        dtype=SERVING_DTYPE, chunk_size=CHUNK_SIZE
    ).fit(train)

    with Timer() as cold_timer:
        prepared_cold = _chunked(recommender.score_users, users)
    prepared_warm = _chunked(recommender.score_users, users)
    legacy_warm = _chunked(lambda u: _legacy_score_users(recommender, u),
                           users)

    warm_s = _best_of(lambda: _chunked(recommender.score_users, users))
    legacy_s = _best_of(
        lambda: _chunked(lambda u: _legacy_score_users(recommender, u), users)
    )
    per_user_s = _best_of(lambda: [
        recommender.score_users(np.array([user], dtype=np.int64))
        for user in users
    ])

    # Correctness before speed: identical top-10 rankings on every path.
    np.testing.assert_array_equal(_top10(prepared_warm), _top10(legacy_warm))
    np.testing.assert_array_equal(_top10(prepared_warm), _top10(prepared_cold))
    stats = recommender.scoring_cache_stats()
    assert stats["operator_validations"] <= stats["misses"], (
        "prepared path re-validated a cached matrix"
    )

    cohort = int(users.size)
    speedup_vs_legacy = legacy_s / max(warm_s, 1e-9)
    batch_vs_per_user = per_user_s / max(warm_s, 1e-9)
    rows = [
        {"configuration": "cold prepared", "seconds": round(cold_timer.elapsed, 4),
         "users_per_sec": round(cohort / max(cold_timer.elapsed, 1e-9), 1)},
        {"configuration": "warm prepared", "seconds": round(warm_s, 4),
         "users_per_sec": round(cohort / max(warm_s, 1e-9), 1)},
        {"configuration": "warm legacy (pre-operator path)",
         "seconds": round(legacy_s, 4),
         "users_per_sec": round(cohort / max(legacy_s, 1e-9), 1)},
        {"configuration": "per-user loop (warm)",
         "seconds": round(per_user_s, 4),
         "users_per_sec": round(cohort / max(per_user_s, 1e-9), 1)},
    ]
    report("solver core: prepared operators vs legacy path (AT)", rows=rows,
           filename="solver_core.csv")

    payload = {
        "bench": "solver_core",
        "algorithm": "AT",
        "scale": bench_scale(),
        "cohort": cohort,
        "batch_size": BATCH,
        "tau": recommender.n_iterations,
        "dtype": SERVING_DTYPE,
        "chunk_size": CHUNK_SIZE,
        "cold_s": round(cold_timer.elapsed, 4),
        "warm_s": round(warm_s, 4),
        "legacy_warm_s": round(legacy_s, 4),
        "per_user_s": round(per_user_s, 4),
        "warm_users_per_sec": round(cohort / max(warm_s, 1e-9), 1),
        "speedup_vs_legacy": round(speedup_vs_legacy, 2),
        "batch_vs_per_user": round(batch_vs_per_user, 2),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[saved] {BENCH_JSON}")

    # CI perf-smoke gate: the multi-RHS warm batch must clearly beat the
    # per-user loop on the same run, at any scale.
    assert batch_vs_per_user >= 1.5, (
        f"warm batch only {batch_vs_per_user:.2f}x the per-user loop"
    )
    if strict_assertions():
        assert speedup_vs_legacy >= 2.0, (
            f"prepared path only {speedup_vs_legacy:.2f}x the legacy warm path"
        )
