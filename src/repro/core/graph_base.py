"""Shared machinery for the random-walk recommenders (HT / AT / AC).

All three of the paper's graph algorithms follow the same template:

1. build the bipartite user-item graph from the training ratings;
2. per query, choose an *absorbing set* (the query user node for Hitting
   Time, the user's rated items ``S_q`` for Absorbing Time/Cost);
3. optionally restrict to a BFS subgraph of at most µ item nodes around the
   absorbing set (Algorithm 1, step 2);
4. solve for expected steps (or entropy-weighted cost) until absorption,
   exactly or by τ truncated sweeps;
5. rank candidate items by *ascending* value.

:class:`RandomWalkRecommender` implements 1–5 once; subclasses choose the
absorbing set and, for Absorbing Cost, the cost model and per-user entropy.

Batch serving
-------------
Scoring a cohort one user at a time repeats the same sparse setup — the
µ-subgraph extraction, the row normalisation, the per-sweep sparse matvec —
once per user. :meth:`RandomWalkRecommender._score_users_batch` instead
groups query users that share a µ-subgraph (equivalently: whose BFS would
cover the same connected components without exhausting the µ budget),
builds each shared transition matrix once, and advances *all* of a group's
walk vectors together through the truncated iteration as one sparse-matrix ×
dense-matrix product per sweep (a multi-RHS solve). Only users whose BFS
genuinely truncates at µ — where the subgraph is query-specific by
construction — fall back to the per-user path.

Those per-user ("solo") queries are independent, and each is milliseconds
of numpy/scipy work that mostly runs without the GIL (BFS gathers, sparse
slices, the τ-sweep). A cohort with two or more distinct solo users scores
them on the calling thread plus one process-wide pool of helper threads,
one per usable CPU beyond the first; a lone solo user runs inline. Every
user goes through the same per-user path either way, so each row is
bit-identical to scoring it alone. Process-fleet workers score inline
(:func:`_score_solo_users_inline`): each already has a core.

Warm serving
------------
All request-independent structures are memoized in a
:class:`~repro.graph.cache.TransitionCache` owned by the fitted recommender.
A shared group and a per-query BFS subgraph come back in one shape, a
:class:`~repro.graph.cache.WalkEntry` ``(index, operator)``, and are scored
by one routine (:meth:`RandomWalkRecommender._score_entry`): locate each
absorbing set through the index, solve the sets that lie inside the
subgraph in one multi-RHS call, scatter the item rows. The operator's
transition matrix is validated exactly once when the entry is built, the
per-group cost vectors and label-indexed reachability are memoized inside
it, and the τ-sweeps run chunked in the configured ``dtype`` policy
(``float32`` halves SpMM bandwidth; top-k parity with float64 is asserted
in the test suite). A serving process hitting the same component groups
request after request pays the sparse slice, normalization and validation
once; repeat requests go straight to the solve. Every cached operator is
bipartite (users first, then items), so a sweep computes only the side the
next step reads and a solve returns just the item rows that ranking reads.
The cache is (re)built lazily after ``fit`` or ``load_state_dict`` and its
hit/miss and operator counters surface through
:meth:`Recommender.scoring_cache_stats` into the serving-engine reports.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.base import PartialFitReport, Recommender
from repro.core.costs import CostModel
from repro.data.dataset import DatasetDelta, RatingDataset
from repro.exceptions import ConfigError
from repro.graph.bipartite import GraphUpdate, UserItemGraph
from repro.graph.cache import TransitionCache, WalkEntry
from repro.solver import WalkOperator
from repro.utils.validation import check_in_options, check_positive_int

__all__ = ["RandomWalkRecommender"]

_solo_lock = threading.Lock()
# (pid, helper count, pool) of the process that started the pool. A child
# forked after that inherits the pool object but none of its threads, so a
# pid mismatch starts a fresh pool; a pool of None scores solo users inline.
_solo_pool: tuple[int, int, ThreadPoolExecutor | None] | None = None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solo_helpers() -> tuple[int, ThreadPoolExecutor | None]:
    """This process's ``(helper count, pool)``, started on first use."""
    global _solo_pool
    pid = os.getpid()
    pool = _solo_pool
    if pool is None or pool[0] != pid:
        with _solo_lock:
            pool = _solo_pool
            if pool is None or pool[0] != pid:
                helpers = _usable_cpus() - 1
                executor = (ThreadPoolExecutor(
                    helpers, thread_name_prefix="repro-solo")
                    if helpers > 0 else None)
                pool = _solo_pool = (pid, helpers, executor)
    return pool[1], pool[2]


def _score_solo_users_inline() -> None:
    """Score this process's µ-truncated BFS users on the calling thread.

    A process-fleet worker calls this at boot: each worker already has a
    core of its own, so helper threads would only compete with its
    siblings.
    """
    global _solo_pool
    with _solo_lock:
        _solo_pool = (os.getpid(), 0, None)


class RandomWalkRecommender(Recommender):
    """Base class for Hitting Time, Absorbing Time and Absorbing Cost.

    Parameters
    ----------
    method:
        ``"truncated"`` — Algorithm 1's fixed-sweep dynamic programming
        (the paper's choice; rankings stabilise within ~15 sweeps) — or
        ``"exact"`` — direct sparse linear solve.
    n_iterations:
        τ, the sweep count for the truncated method (ignored for exact).
    subgraph_size:
        µ, the BFS item budget; ``None`` runs on the global graph.
    dtype:
        Serving precision policy for the truncated sweeps: ``"float64"``
        (reference, default) or ``"float32"`` (halved SpMM bandwidth,
        identical top-k — see the dtype-parity tests).
    chunk_size:
        Column budget per multi-RHS chunk; bounds the dense sweep memory at
        ``n_subgraph_nodes × chunk_size`` floats however large the cohort
        is (the operators are bipartite, so their half-sweeps work in place
        in one buffer).
    """

    def __init__(self, method: str = "truncated", n_iterations: int = 15,
                 subgraph_size: int | None = 6000, dtype: str = "float64",
                 chunk_size: int = 1024):
        super().__init__()
        self.method = check_in_options(method, "method", ("truncated", "exact"))
        self.n_iterations = check_positive_int(n_iterations, "n_iterations")
        if subgraph_size is not None:
            subgraph_size = check_positive_int(subgraph_size, "subgraph_size")
        self.subgraph_size = subgraph_size
        self.set_serving_dtype(dtype)
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.graph: UserItemGraph | None = None
        # guarded-by: _cache_build_lock
        self._transition_cache: TransitionCache | None = None
        self._cache_build_lock = threading.Lock()
        # user -> component-group key ("solo" = µ-truncated BFS path). The
        # key depends only on the frozen graph and the user's rated items,
        # so it is memoized across requests.
        self._group_keys: dict[int, tuple[int, ...] | str] = {}

    # -- subclass hooks -----------------------------------------------------

    def _absorbing_nodes(self, user: int) -> np.ndarray:
        """Parent-graph node indices of the absorbing set for ``user``."""
        raise NotImplementedError

    def _cost_model(self) -> CostModel | None:
        """Cost model, or ``None`` for unit costs (absorbing *time*)."""
        return None

    def _user_entropies(self) -> np.ndarray | None:
        """Per-user entropies for the cost model (``None`` if not needed)."""
        return None

    def _post_fit(self, dataset: RatingDataset) -> None:
        """Optional extra fitting after the graph is built."""

    # -- template ------------------------------------------------------------

    def _fit(self, dataset: RatingDataset) -> None:
        self.graph = UserItemGraph(dataset)
        self._transition_cache = None
        self._group_keys = {}
        self._post_fit(dataset)

    # -- incremental updates --------------------------------------------------

    def _post_partial_fit(self, delta: DatasetDelta,
                          update: GraphUpdate) -> None:
        """Refresh non-graph derived state after a delta (AC: entropies)."""

    def _partial_fit(self, delta: DatasetDelta) -> PartialFitReport:
        """Incremental update: union-find graph merge + targeted invalidation.

        The graph swaps to the delta-applied instance (component labels
        maintained, never recomputed), per-user derived state is refreshed
        through :meth:`_post_partial_fit`, and then only the structures the
        touched components invalidate are dropped: group-key memo entries
        whose key intersects the touched set, and — through
        :meth:`TransitionCache.apply_update` — exactly the cache entries
        covering a touched component. Entries over untouched components
        stay warm, prepared operators included, which is what makes a small
        update batch cheaper than a refit-plus-rewarm cycle.
        """
        update = self.graph.apply_delta(delta)
        self.dataset = delta.dataset
        self.graph = update.graph
        self._post_partial_fit(delta, update)
        touched = set(int(c) for c in update.touched_components)
        labels = update.graph.component_labels()
        if self._group_keys:
            # A user's group key depends only on their rated items'
            # components; both are stable unless the user's own component
            # was touched ("solo" keys record no components, so test the
            # user's node label directly).
            self._group_keys = {
                user: key for user, key in self._group_keys.items()
                if (int(labels[user]) not in touched if key == "solo"
                    else not touched.intersection(key))
            }
        if self._transition_cache is not None:
            self._transition_cache.apply_update(
                update, node_entropy=self._node_entropy_vector()
            )
        return PartialFitReport(
            mode="incremental", n_events=delta.n_events,
            n_new_users=update.n_new_users, n_new_items=update.n_new_items,
            affected_users=update.affected_users(),
            touched_components=tuple(sorted(touched)),
        )

    def clear_scoring_cache(self) -> None:
        """Drop the transition cache and the group-key memo entirely."""
        self._transition_cache = None
        self._group_keys = {}

    # -- persistence ---------------------------------------------------------

    def get_config(self) -> dict:
        return {
            "method": self.method,
            "n_iterations": self.n_iterations,
            "subgraph_size": self.subgraph_size,
            "dtype": self.serving_dtype,
            "chunk_size": self.chunk_size,
        }

    def _state_arrays(self) -> dict:
        return self.graph.to_arrays()

    def _load_state_arrays(self, arrays: dict) -> None:
        self.graph = UserItemGraph.from_arrays(self.dataset, arrays)
        self._transition_cache = None
        self._group_keys = {}

    # -- warm cache ----------------------------------------------------------

    @property
    def transition_cache(self) -> TransitionCache | None:
        """The scoring-layer cache, or ``None`` before the first batch call."""
        return self._transition_cache

    def _ensure_cache(self) -> TransitionCache:
        # Built lazily so fit()/load_state_dict() stay cheap; the entropy
        # vector is frozen into the cache, matching the fit-once contract.
        # Double-checked under a lock: a BatchingServer's executor thread
        # and direct callers (recommend, serve_cohort) can race here on a
        # cold model, and every thread must share the one cache (and its
        # operator/validation counters).
        if self._transition_cache is None:
            with self._cache_build_lock:
                if self._transition_cache is None:
                    self._transition_cache = TransitionCache(
                        self.graph, node_entropy=self._node_entropy_vector()
                    )
        return self._transition_cache

    def scoring_cache_stats(self) -> dict | None:
        if self._transition_cache is None:
            return None
        return self._transition_cache.stats()

    def _node_entropy_vector(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Entropy per graph node: E(u) at user nodes, 0 at item nodes.

        With ``nodes`` given, returns the vector restricted to those parent
        node indices (subgraph order).
        """
        graph = self.graph
        entropies = self._user_entropies()
        full = np.zeros(graph.n_nodes)
        if entropies is not None:
            entropies = np.asarray(entropies, dtype=np.float64).ravel()
            if entropies.shape[0] != graph.n_users:
                raise ConfigError(
                    f"user entropies length {entropies.shape[0]} != n_users {graph.n_users}"
                )
            full[:graph.n_users] = entropies
        return full if nodes is None else full[nodes]

    # -- prepared solves ------------------------------------------------------

    def _solve_multi(self, operator: WalkOperator,
                     absorbing_sets: list[np.ndarray]) -> np.ndarray:
        """``(n_items, n_sets)`` absorbing values, one column per query.

        The operator's component labels make per-query reachability a
        label-indexed lookup — no graph traversal, no ``np.isin`` sort.
        """
        local_costs = operator.costs_for(self._cost_model())
        if self.method == "exact":
            columns = [
                operator.solve_exact(absorbing, local_costs)
                for absorbing in absorbing_sets
            ]
            return np.stack(columns, axis=1)
        return operator.solve_multi(
            absorbing_sets, self.n_iterations, local_costs=local_costs,
            dtype=self.serving_dtype, chunk_size=self.chunk_size,
        )

    def _score_entry(self, entry: WalkEntry, absorbing_sets: list[np.ndarray],
                     scores: np.ndarray, rows: list[int]) -> None:
        """Score ``absorbing_sets`` on one cached subgraph into ``scores``.

        Set ``j`` fills row ``rows[j]``, which holds ``-inf`` on entry. The
        entry's index maps every set to local positions; a set not wholly
        inside the subgraph leaves its row at ``-inf`` (for HT the query
        user is adjacent to their items, so that takes a user with more
        ratings than µ: the search then stops at the seeds). The other sets
        share one multi-RHS solve, and the operator's item rows land in
        their catalogue columns in one scatter, non-finite values as
        ``-inf``. The columns come from the index's own user count, so an
        entry built before an update that appended users still scores into
        the right columns.
        """
        index, operator = entry
        local = [index.locate(absorbing) for absorbing in absorbing_sets]
        inside = [j for j, positions in enumerate(local)
                  if (positions >= 0).all()]
        if not inside:
            return
        item_values = self._solve_multi(operator, [local[j] for j in inside])
        block = np.where(np.isfinite(item_values), -item_values, -np.inf)
        items = index.nodes[operator.n_users:] - index.parent_users
        rows = np.asarray(rows, dtype=np.int64)[inside]
        scores[rows[:, None], items[None, :]] = block.T

    def _score_user(self, user: int) -> np.ndarray:
        # Single queries ride the batch path as a cohort of one, so the
        # per-user and batch rankings agree by construction.
        return self._score_users_batch(np.array([user], dtype=np.int64))[0]

    def _score_user_bfs(self, user: int, absorbing: np.ndarray) -> np.ndarray:
        """Per-user scoring on the µ-truncated BFS subgraph (Algorithm 1).

        Used when the BFS budget genuinely truncates: the subgraph then
        depends on the query's expansion order and cannot be shared across
        *different* queries — but it is deterministic per query, so the
        subgraph's entry comes from the cache and a repeated request skips
        the traversal, the sparse setup and the validation. Reachability is
        the operator's single component label whenever the BFS proved the
        subgraph connected — always, for seeds that are one user's ratings,
        unless there are more of them than µ (the search then stops at the
        seeds and the operator falls back to Dijkstra).
        """
        entry = self._ensure_cache().bfs(
            user, self._subgraph_seed_items(user, absorbing), absorbing,
            self.subgraph_size)
        scores = np.full((1, self.dataset.n_items), -np.inf)
        self._score_entry(entry, [absorbing], scores, [0])
        return scores[0]

    # -- batch path ----------------------------------------------------------

    def _partition_cohort(self, users: np.ndarray,
                          absorbing_sets: list[np.ndarray],
                          ) -> tuple[dict, list[int]]:
        """Split cohort positions into shared component-groups and solos.

        Returns ``(groups, solo)``: ``groups`` maps a component-group key
        (``None`` = whole graph) to the cohort positions solvable on that
        shared subgraph; ``solo`` holds positions whose BFS genuinely
        truncates at µ (query-specific subgraph). Cold-start positions
        (empty absorbing set) appear in neither.
        """
        graph = self.graph
        groups: dict[tuple[int, ...] | None, list[int]] = {}
        solo: list[int] = []
        if self.subgraph_size is None:
            # Global graph: every query shares one transition matrix; solve
            # all non-cold-start queries as one multi-RHS batch.
            active = [i for i in range(users.size) if absorbing_sets[i].size]
            if active:
                groups[None] = active
            return groups, solo
        # µ-subgraph mode: a query whose BFS never exhausts the µ budget
        # ends up with the full union of the connected components its
        # seed items live in — a set many queries share. Group on that
        # component key, memoized per user (it depends only on the frozen
        # graph and the user's rated items, never on the cohort).
        for i, user in enumerate(users):
            absorbing = absorbing_sets[i]
            if absorbing.size == 0:
                continue  # cold start: row stays -inf
            key = self._group_keys.get(int(user))
            if key is None:
                key = self._compute_group_key(int(user), absorbing)
                self._group_keys[int(user)] = key
            if key == "solo":
                solo.append(i)
            else:
                groups.setdefault(key, []).append(i)
        return groups, solo

    def _compute_group_key(self, user: int,
                           absorbing: np.ndarray) -> tuple[int, ...] | str:
        """Component-group key for one user, ``"solo"`` when µ truncates."""
        graph = self.graph
        seed_items = self._subgraph_seed_items(user, absorbing)
        if seed_items.size == 0:
            return "solo"
        labels = graph.component_labels()
        components = np.unique(labels[graph.item_nodes(seed_items)])
        if (int(graph.item_component_sizes()[components].sum()) > self.subgraph_size
                or not np.all(np.isin(labels[absorbing], components))):
            return "solo"
        return tuple(int(c) for c in components)

    def _score_users_batch(self, users: np.ndarray) -> np.ndarray:
        dataset = self.dataset
        scores = np.full((users.size, dataset.n_items), -np.inf)
        if users.size == 0:
            return scores
        cache = self._ensure_cache()
        absorbing_sets = [self._absorbing_nodes(int(u)) for u in users]
        groups, solo = self._partition_cohort(users, absorbing_sets)
        self._score_solo(users, absorbing_sets, solo, scores)

        for components, members in groups.items():
            self._score_entry(cache.group(components),
                              [absorbing_sets[i] for i in members], scores,
                              members)
        return scores

    def _score_solo(self, users: np.ndarray, absorbing_sets: list[np.ndarray],
                    solo: list[int], scores: np.ndarray) -> None:
        """Score the µ-truncated BFS positions ``solo`` into ``scores``.

        Each distinct user is scored once, by :meth:`_score_user_bfs`, and
        its row is copied to the user's repeated positions, so no two
        threads build one subgraph. With two or more distinct users, the
        calling thread and the process's helper threads claim users in
        cohort order from one counter. The caller scores until none is
        left, then cancels its helper jobs that never started (the pool
        may be busy with another caller's), so it waits only for users
        already being scored. A helper never submits to the pool, and a
        pool that takes no more jobs (the interpreter is shutting down)
        leaves every user to the caller. Every user has finished when
        this returns; if any failed, the first failing position in
        cohort order raises its exception, the one scoring inline would
        raise.
        """
        first: dict[int, int] = {}
        for i in solo:
            first.setdefault(int(users[i]), i)
        tasks = list(first.values())
        claims = itertools.count()  # next() is atomic under the GIL
        errors: dict[int, Exception] = {}

        def score_claimed() -> None:
            while not errors:
                task = next(claims)
                if task >= len(tasks):
                    return
                i = tasks[task]
                try:
                    scores[i] = self._score_user_bfs(int(users[i]),
                                                     absorbing_sets[i])
                except Exception as exc:  # raised below, in cohort order
                    errors[task] = exc

        helpers, pool = _solo_helpers() if len(tasks) > 1 else (0, None)
        jobs = []
        for _ in range(min(helpers, len(tasks) - 1)):
            try:
                jobs.append(pool.submit(score_claimed))
            except RuntimeError:  # interpreter shutdown: the caller scores
                break
        try:
            score_claimed()
        finally:
            for job in jobs:
                if not job.cancel():
                    job.result()
        if errors:
            raise errors[min(errors)]
        for i in solo:
            scored = first[int(users[i])]
            if scored != i:
                scores[i] = scores[scored]

    def _subgraph_seed_items(self, user: int, absorbing: np.ndarray) -> np.ndarray:
        """Item indices seeding the BFS (default: the user's rated items)."""
        return self.dataset.items_of_user(user)
