"""Component-sharded serving tier: one engine per graph partition.

The paper's walk recommenders (Eq. 7–10) score strictly *within* a user's
connected component — a walk can never leave it, items outside it score
``-inf``. The user–item graph therefore partitions naturally into
independent shards, and a serving deployment can split one big engine into
a fleet of small ones with **zero loss of ranking quality** for the walk
family:

* :class:`ShardPlan` partitions a :class:`~repro.data.RatingDataset` by
  connected component into balanced shards — greedy bin-packing on
  component nnz (the walk-solve cost measure), users/items re-indexed per
  shard with label-preserving maps, saved/loaded as a versioned ``.npz``;
* :class:`ShardRouter` is the routing core: it routes every request to
  the owning shard — ``recommend(user)`` by the user's shard,
  ``serve_cohort`` by splitting the cohort and merging ranked arrays back
  in cohort order, and ``apply_updates`` by event label (events on known
  users/items go to their shard, events introducing brand-new labels go
  to the least-loaded shard) — and keeps the fleet row cache. It reaches
  a shard through one hook speaking :func:`_worker_handle`'s vocabulary;
* :class:`ShardedEngine` is the in-process backend: one
  :class:`~repro.service.ServingEngine` per shard, called directly.
  Per-shard artifacts reuse :mod:`repro.core.artifacts` (``fit`` →
  ``save`` → ``from_directory``, no refitting). The process backend,
  one supervised worker per shard, is
  :class:`~repro.service.fleet.ProcessShardFleet`;
* :class:`FleetReport` / :class:`FleetUpdateReport` merge the per-shard
  :class:`~repro.service.EngineReport` / :class:`~repro.service.UpdateReport`
  objects into one fleet-level summary with per-shard breakdowns.

Why shard at all? Besides being the load-bearing step toward multi-process
and multi-host serving (each shard is an independent, individually
persistable unit with its own caches and update stream), sharding shrinks
the serving working set: a cohort's dense score matrix is
``batch × shard_items`` instead of ``batch × all_items``, so cold solves
allocate and scan less memory (measured in ``benchmarks/bench_sharded.py``).

**Semantics caveat.** Routing a user to their component's shard is
score-exact for component-local scorers (the walk family: AT, AC1, AC2,
HT, and the graph baselines). Globally coupled algorithms (MostPopular,
PureSVD, kNN, LDA) rank only the shard's items when sharded — candidates
outside the user's component disappear. That is a *semantics change* for
those baselines; shard them only when per-tenant catalogues are the intent
(the federated-shards deployment shape).

**Cross-shard updates.** On a component plan, a rating event joining a
user in shard A to an item in shard B would merge two components across
shard boundaries; no single engine can absorb it.
:meth:`ShardRouter.apply_updates` detects this and raises
:class:`~repro.exceptions.ConfigError` naming the offending edge — the
remedy is a re-plan (``repro.cli shard-fit``, ideally with
``--partitioner edge-cut``), not a silent wrong routing.

**Edge-cut plans with k-hop halos.** A realistic MovieLens-shaped graph
has one giant component, so component sharding degenerates to a single
shard. :meth:`ShardPlan.build_edge_cut` splits components by a greedy
balanced edge-cut (seeded BFS growth + boundary vertex moves minimising
cut nnz under an LPT-style balance constraint) and attaches to each shard
the **k-hop halo** of ghost users/items around its owned nodes. Each
shard's dataset keeps the ghost rows and tracks the rating mass of edges
severed at the halo boundary as a *degree deficit*
(:meth:`~repro.data.RatingDataset.subset` with
``track_cut_degrees=True``), so the shard's walk operator divides by
global degrees and boundary rows absorb leaked mass exactly instead of
renormalising it — the τ-truncated walk then matches the unsharded solve
bit-for-bit wherever the halo saturates the walk's reach, and is a
one-sided bounded-error underestimate otherwise (DESIGN.md §12). Events
whose endpoints are co-located in at least one shard apply exactly (the
frozen deficit stays correct); updates that only some replicas see leave
those ghost copies stale, surfaced via ``FleetUpdateReport.hint``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from repro.core.artifacts import save_artifact
from repro.core.base import Recommendation, Recommender
from repro.data.dataset import RatingDataset
from repro.exceptions import (
    ArtifactError,
    ConfigError,
    DataError,
    ShardUnavailableError,
    UnknownItemError,
    UnknownUserError,
)
from repro.graph.bipartite import UserItemGraph
from repro.service.engine import (
    EngineReport,
    ServingEngine,
    UpdateReport,
    _label_array,
    rows_from_ranked_arrays,
)
from repro.utils.atomic import atomic_savez
from repro.utils.timer import Timer, per_second
from repro.utils.validation import (
    as_exclude_array,
    as_index_array,
    check_in_options,
    check_non_negative_int,
    check_positive_int,
    is_index,
)

__all__ = [
    "SHARD_PLAN_FORMAT_VERSION",
    "PARTITIONERS",
    "EDGE_CUT_HINT",
    "ShardPlan",
    "FleetReport",
    "FleetUpdateReport",
    "ShardRouter",
    "ShardedEngine",
    "validate_shard_events",
]

#: On-disk format version of saved shard plans; bump on any layout change.
#: A plan whose version is absent or different raises
#: :class:`~repro.exceptions.ArtifactError` — routing traffic through a
#: stale partition must fail loudly, never silently. Version 2 added the
#: edge-cut partitioner's halo metadata (ghost users/items per shard,
#: ``halo_hops``, ``partitioner``); version-1 files predate halos and are
#: rejected rather than silently served without ghost translation.
SHARD_PLAN_FORMAT_VERSION = 2

_PLAN_FILENAME = "plan.npz"

#: The partition strategies a plan can carry.
PARTITIONERS = ("component", "edge-cut")

#: Hint appended to cross-shard rejection errors and stale-halo reports.
EDGE_CUT_HINT = (
    "re-plan with `repro shard-fit --partitioner edge-cut --halo-hops K` "
    "on the merged data"
)


def _shard_artifact_name(shard: int) -> str:
    return f"shard-{shard:03d}.npz"


def validate_shard_events(dataset: RatingDataset, events,
                          policy: str) -> None:
    """Validate one shard's event slice against its dataset, mutating nothing.

    The pre-pass every touched shard runs before any shard absorbs a
    batch (``validate_events`` in :meth:`ShardRouter.apply_updates`):
    rating values checked against the dataset's scale via
    :meth:`~repro.data.RatingDataset.check_event_rating`, and under
    ``policy == "error"`` duplicate pairs — within the batch or against
    already-stored ratings — rejected with the same
    :class:`~repro.exceptions.DataError` shapes :meth:`RatingDataset.extend`
    would raise. On the process fleet it runs worker-side before a batch
    enters the write-ahead log, so the WAL only ever holds batches that
    are guaranteed to replay cleanly.
    """
    seen: set = set()
    for user_label, item_label, rating in events:
        dataset.check_event_rating(user_label, item_label, rating)
        if policy != "error":
            continue
        pair = (user_label, item_label)
        if pair in seen:
            raise DataError(
                f"duplicate event for (user={user_label!r}, "
                f"item={item_label!r}); pass duplicates='last' to keep "
                "the latest value"
            )
        seen.add(pair)
        try:
            already = dataset.rating(dataset.user_id(user_label),
                                     dataset.item_id(item_label)) != 0
        except (UnknownUserError, UnknownItemError):
            already = False
        if already:
            raise DataError(
                f"(user={user_label!r}, item={item_label!r}) is already "
                "rated; pass duplicates='last' to overwrite"
            )


def _concat_ragged(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a list of int arrays as (values, offsets) for npz storage."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([a.size for a in arrays])
    values = (np.concatenate(arrays).astype(np.int64) if offsets[-1]
              else np.empty(0, dtype=np.int64))
    return values, offsets


def _split_ragged(values: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_concat_ragged`."""
    values = np.asarray(values, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    return [values[offsets[i]:offsets[i + 1]].copy()
            for i in range(offsets.size - 1)]


def _lpt_order(weights: np.ndarray) -> np.ndarray:
    """Deterministic LPT processing order: descending weight, ties by label.

    ``np.lexsort`` sorts by its *last* key first, so this is primary
    descending weight with an explicit ascending-index secondary key —
    weight ties always resolve to the lower component label, making plan
    construction byte-reproducible across runs and platforms (regression
    pinned in the test suite).
    """
    weights = np.asarray(weights)
    return np.lexsort((np.arange(weights.size), -weights))


def _split_component(graph: UserItemGraph, comp_nodes: np.ndarray,
                     count: int, refine_passes: int) -> list[np.ndarray]:
    """Split one connected component into ``count`` balanced node parts.

    Seeded BFS growth: breadth-first order from the component's
    highest-degree node (ties to the lowest index), sliced where the
    cumulative degree mass crosses each balanced boundary — contiguous BFS
    slices keep most edges internal. A fix-up guarantees every part owns at
    least one user and one item, then ``refine_passes`` greedy sweeps move
    boundary vertices to the neighboring part holding the strict majority
    of their edge weight (reducing cut nnz) whenever the move respects the
    LPT-style balance cap and the bipartite floor. Fully deterministic.
    """
    adjacency = graph.adjacency
    degrees = graph.degrees
    n_users = graph.n_users
    local = np.lexsort((np.arange(comp_nodes.size), -degrees[comp_nodes]))
    seed = int(comp_nodes[local[0]])
    order = np.asarray(
        breadth_first_order(adjacency, seed, directed=False,
                            return_predecessors=False),
        dtype=np.int64,
    )
    if order.size != comp_nodes.size:
        raise ConfigError(
            "BFS did not cover the component; graph labels are inconsistent"
        )
    weights = degrees[order]
    cum = np.cumsum(weights)
    total = float(cum[-1])
    split_at: list[int] = []
    prev = 0
    for j in range(1, count):
        position = int(np.searchsorted(cum, total * j / count))
        position = max(position, prev + 1)
        position = min(position, order.size - (count - j))
        split_at.append(position)
        prev = position
    part_of = np.full(graph.n_nodes, -1, dtype=np.int64)
    for j, piece in enumerate(np.split(order, split_at)):
        part_of[piece] = j

    part_weight = np.bincount(part_of[order], weights=weights,
                              minlength=count)
    user_nodes = order[order < n_users]
    item_nodes = order[order >= n_users]
    part_users = np.bincount(part_of[user_nodes], minlength=count)
    part_items = np.bincount(part_of[item_nodes], minlength=count)

    def rebalance_kind(kind_nodes: np.ndarray, kind_counts: np.ndarray) -> None:
        # Give every part at least one node of this kind, stealing the
        # BFS-latest such node from the richest part (ties to lower id).
        while True:
            starved = np.flatnonzero(kind_counts == 0)
            if starved.size == 0:
                return
            donor = int(np.argmax(kind_counts))
            taken = kind_nodes[part_of[kind_nodes] == donor][-1]
            receiver = int(starved[0])
            part_weight[donor] -= degrees[taken]
            part_weight[receiver] += degrees[taken]
            kind_counts[donor] -= 1
            kind_counts[receiver] += 1
            part_of[taken] = receiver

    rebalance_kind(user_nodes, part_users)
    rebalance_kind(item_nodes, part_items)

    cap = 1.2 * total / count  # LPT-style balance: ≤120% of the fair share
    for _ in range(refine_passes):
        moved = 0
        for node in order:
            node = int(node)
            current = int(part_of[node])
            start, end = adjacency.indptr[node], adjacency.indptr[node + 1]
            neighbor_parts = part_of[adjacency.indices[start:end]]
            inside = neighbor_parts >= 0
            gains = np.bincount(neighbor_parts[inside],
                                weights=adjacency.data[start:end][inside],
                                minlength=count)
            best = int(np.argmax(gains))  # ties resolve to the lower part id
            if best == current or gains[best] <= gains[current]:
                continue
            weight = float(degrees[node])
            if part_weight[best] + weight > cap:
                continue
            if node < n_users:
                if part_users[current] <= 1:
                    continue
                part_users[current] -= 1
                part_users[best] += 1
            else:
                if part_items[current] <= 1:
                    continue
                part_items[current] -= 1
                part_items[best] += 1
            part_of[node] = best
            part_weight[current] -= weight
            part_weight[best] += weight
            moved += 1
        if not moved:
            break
    return [order[part_of[order] == j] for j in range(count)]


def _khop_ghosts(graph: UserItemGraph, node_shard: np.ndarray,
                 n_shards: int, hops: int) -> tuple[list, list]:
    """Per-shard k-hop ghost users/items around the owned node sets.

    Grown by sparse boolean mat-vec over the full adjacency (O(nnz) per
    hop per shard); stops early when a halo saturates its components —
    which is exactly when the shard's solves become bit-identical to the
    unsharded ones (no edges left to cut).
    """
    adjacency = graph.adjacency
    ghost_users: list[np.ndarray] = []
    ghost_items: list[np.ndarray] = []
    for shard in range(n_shards):
        owned = node_shard == shard
        mask = owned.copy()
        for _ in range(hops):
            grown = mask | ((adjacency @ mask.astype(np.float64)) > 0)
            if np.array_equal(grown, mask):
                break
            mask = grown
        ghosts = np.flatnonzero(mask & ~owned)
        ghost_users.append(ghosts[ghosts < graph.n_users])
        ghost_items.append(ghosts[ghosts >= graph.n_users] - graph.n_users)
    return ghost_users, ghost_items


class ShardPlan:
    """A partition of a dataset's users and items into serving shards.

    Parameters
    ----------
    user_shard, item_shard:
        Shard id per global user / item index. Every shard must own at
        least one user and one item (a shard dataset must be non-empty).
    n_shards:
        Total shard count; defaults to ``max(shard ids) + 1``.
    ghost_users, ghost_items:
        Optional halo metadata (one global-index array per shard): the
        k-hop ghost nodes each shard keeps *in addition to* its owned
        nodes so walk sweeps stay local. Requires ``halo_hops``.
    halo_hops:
        The halo radius ``k`` the ghosts were computed with (``None`` for
        component plans — no ghosts, no cut edges).
    partitioner:
        ``"component"`` (components atomic, :meth:`build`) or
        ``"edge-cut"`` (components splittable, :meth:`build_edge_cut`).

    Use :meth:`build` to derive a balanced, component-closed plan from a
    dataset, or :meth:`build_edge_cut` for a halo-carrying edge-cut plan;
    hand-written plans are validated for shape here and for edge-cuts in
    :meth:`shard_dataset`.

    Local indexing convention: within a shard, owned users (and items)
    come first, ordered by ascending *global* index — so a one-shard plan
    is the identity mapping, the property the score-parity tests pin down
    — and ghost nodes are appended after them, also ascending.
    """

    def __init__(self, user_shard, item_shard, n_shards: int | None = None,
                 ghost_users: list | None = None,
                 ghost_items: list | None = None,
                 halo_hops: int | None = None,
                 partitioner: str = "component"):
        user_shard = np.asarray(user_shard, dtype=np.int64)
        item_shard = np.asarray(item_shard, dtype=np.int64)
        if user_shard.ndim != 1 or item_shard.ndim != 1:
            raise ConfigError("user_shard and item_shard must be 1-D arrays")
        if user_shard.size == 0 or item_shard.size == 0:
            raise ConfigError("a shard plan needs at least one user and one item")
        if user_shard.min() < 0 or item_shard.min() < 0:
            raise ConfigError("shard ids must be non-negative")
        top = int(max(user_shard.max(), item_shard.max()))
        if n_shards is None:
            n_shards = top + 1
        n_shards = check_positive_int(n_shards, "n_shards")
        if top >= n_shards:
            raise ConfigError(
                f"shard id {top} out of range for n_shards={n_shards}"
            )
        user_counts = np.bincount(user_shard, minlength=n_shards)
        item_counts = np.bincount(item_shard, minlength=n_shards)
        empty = np.flatnonzero((user_counts == 0) | (item_counts == 0))
        if empty.size:
            raise ConfigError(
                f"shard(s) {empty.tolist()} own no users or no items; every "
                "shard must be a servable dataset"
            )
        self.user_shard = user_shard
        self.item_shard = item_shard
        self.n_shards = int(n_shards)
        self._shard_users = [np.flatnonzero(user_shard == s)
                             for s in range(n_shards)]
        self._shard_items = [np.flatnonzero(item_shard == s)
                             for s in range(n_shards)]
        self.user_local = np.empty(user_shard.size, dtype=np.int64)
        self.item_local = np.empty(item_shard.size, dtype=np.int64)
        for members in self._shard_users:
            self.user_local[members] = np.arange(members.size)
        for members in self._shard_items:
            self.item_local[members] = np.arange(members.size)
        self.partitioner = check_in_options(
            partitioner, "partitioner", PARTITIONERS
        )
        if halo_hops is None:
            if ghost_users or ghost_items:
                raise ConfigError("ghost arrays require halo_hops")
            self.halo_hops: int | None = None
            self._ghost_users = [np.empty(0, dtype=np.int64)
                                 for _ in range(self.n_shards)]
            self._ghost_items = [np.empty(0, dtype=np.int64)
                                 for _ in range(self.n_shards)]
        else:
            self.halo_hops = check_positive_int(halo_hops, "halo_hops")
            self._ghost_users = self._check_ghosts(
                ghost_users, self._shard_users, self.user_shard, "user"
            )
            self._ghost_items = self._check_ghosts(
                ghost_items, self._shard_items, self.item_shard, "item"
            )

    def _check_ghosts(self, ghosts, owned, shard_of, axis: str) -> list:
        if ghosts is None:
            ghosts = [np.empty(0, dtype=np.int64)] * self.n_shards
        ghosts = [np.asarray(g, dtype=np.int64).ravel() for g in ghosts]
        if len(ghosts) != self.n_shards:
            raise ConfigError(
                f"ghost_{axis}s has {len(ghosts)} entries for "
                f"{self.n_shards} shards"
            )
        checked = []
        for shard, members in enumerate(ghosts):
            members = np.unique(members)  # ascending, deduplicated
            if members.size and (members[0] < 0
                                 or members[-1] >= shard_of.size):
                raise ConfigError(f"shard {shard} ghost {axis}s out of range")
            if members.size and np.any(shard_of[members] == shard):
                raise ConfigError(
                    f"shard {shard} lists owned {axis}s as ghosts"
                )
            checked.append(members)
        return checked

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, dataset: RatingDataset, n_shards: int,
              graph: UserItemGraph | None = None) -> "ShardPlan":
        """Partition ``dataset`` into ``n_shards`` balanced shards.

        Connected components are the atomic units (a walk never crosses
        one, so splitting a component would change scores); they are
        bin-packed greedily by descending rating count onto the
        least-loaded shard — the classic LPT heuristic, within 4/3 of the
        optimal makespan. Components without any rating (isolated users or
        items) carry no solve cost, so they balance on *node* count
        instead — otherwise they would all pile onto whichever shard holds
        the fewest ratings. Requires at least ``n_shards`` components with
        ratings; fewer means the graph cannot be cut without changing
        scores, and the plan refuses.
        """
        if not isinstance(dataset, RatingDataset):
            raise ConfigError(
                f"ShardPlan.build expects a RatingDataset; "
                f"got {type(dataset).__name__}"
            )
        n_shards = check_positive_int(n_shards, "n_shards")
        if graph is None:
            graph = UserItemGraph(dataset)
        elif graph.dataset is not dataset:
            raise ConfigError("graph was built over a different dataset")
        labels = graph.component_labels()
        nnz = graph.component_nnz()
        n_rated = int((nnz > 0).sum())
        if n_shards > n_rated:
            raise ConfigError(
                f"cannot build {n_shards} shards: the graph has only "
                f"{n_rated} connected component(s) with ratings, and a "
                "component cannot be split without changing walk scores"
            )
        present = np.zeros(nnz.size, dtype=bool)
        present[labels] = True
        sizes = np.bincount(labels, minlength=nnz.size)
        order = _lpt_order(nnz)  # desc nnz, ties broken by ascending label
        loads = np.zeros(n_shards, dtype=np.int64)
        node_loads = np.zeros(n_shards, dtype=np.int64)
        component_shard = np.full(nnz.size, -1, dtype=np.int64)
        for component in order:
            if not present[component]:
                continue
            if nnz[component] > 0:
                shard = int(np.argmin(loads))
            else:
                shard = int(np.argmin(node_loads))
            component_shard[component] = shard
            loads[shard] += int(nnz[component])
            node_loads[shard] += int(sizes[component])
        return cls(
            component_shard[labels[:dataset.n_users]],
            component_shard[labels[dataset.n_users:]],
            n_shards=n_shards,
        )

    @classmethod
    def build_edge_cut(cls, dataset: RatingDataset, n_shards: int,
                       halo_hops: int = 2,
                       graph: UserItemGraph | None = None,
                       refine_passes: int = 2) -> "ShardPlan":
        """Partition ``dataset`` into ``n_shards`` by a greedy edge-cut.

        Unlike :meth:`build`, connected components are *splittable*: a
        component too big for one shard is divided by seeded BFS growth
        (hub-seeded breadth-first order sliced at balanced degree-mass
        boundaries) followed by ``refine_passes`` sweeps of greedy boundary
        vertex moves that reduce cut nnz while an LPT-style balance
        constraint holds. Shard parts are then LPT bin-packed exactly like
        :meth:`build`. The returned plan carries, per shard, the
        ``halo_hops``-hop **ghost** users/items around its owned nodes —
        the extra rows :meth:`shard_dataset` keeps (with cut-edge degree
        deficits) so each shard's τ-truncated walk solves are exact where
        the halo saturates the walk's reach and a one-sided bounded-error
        underestimate otherwise (DESIGN.md §12). ``halo_hops >= 1``
        guarantees every owned user's full rating row stays in its shard,
        which keeps absorbing sets and ``exclude_rated`` exact.

        A one-shard edge-cut plan owns everything, has no ghosts, and is
        the identity mapping — bit-identical to unsharded serving.
        """
        if not isinstance(dataset, RatingDataset):
            raise ConfigError(
                f"ShardPlan.build_edge_cut expects a RatingDataset; "
                f"got {type(dataset).__name__}"
            )
        n_shards = check_positive_int(n_shards, "n_shards")
        halo_hops = check_positive_int(halo_hops, "halo_hops")
        refine_passes = check_non_negative_int(refine_passes, "refine_passes")
        if graph is None:
            graph = UserItemGraph(dataset)
        elif graph.dataset is not dataset:
            raise ConfigError("graph was built over a different dataset")
        labels = graph.component_labels()
        nnz = graph.component_nnz()
        present = np.zeros(nnz.size, dtype=bool)
        present[labels] = True
        sizes = np.bincount(labels, minlength=nnz.size)
        user_counts = np.bincount(labels[:dataset.n_users], minlength=nnz.size)
        item_counts = np.bincount(labels[dataset.n_users:], minlength=nnz.size)
        rated = np.flatnonzero(present & (nnz > 0))
        if rated.size == 0:
            raise ConfigError("dataset has no rated components to shard")

        # How many parts each rated component contributes. Every component
        # starts atomic; when there are fewer components than shards the
        # remaining parts go one at a time to the component with the
        # largest nnz-per-part quotient (highest-averages apportionment —
        # deterministic, ties to the lower label), capped by how many
        # user+item-bearing parts the component can actually yield.
        parts_of = {int(c): 1 for c in rated}
        caps = {int(c): max(1, min(int(user_counts[c]), int(item_counts[c])))
                for c in rated}
        extra = n_shards - rated.size
        while extra > 0:
            candidates = [c for c in parts_of if parts_of[c] < caps[c]]
            if not candidates:
                raise ConfigError(
                    f"cannot build {n_shards} shards: the graph's rated "
                    "components only support "
                    f"{sum(caps.values())} user+item-bearing parts"
                )
            best = max(candidates,
                       key=lambda c: (nnz[c] / parts_of[c], -c))
            parts_of[best] += 1
            extra -= 1

        node_shard = np.full(graph.n_nodes, -1, dtype=np.int64)
        part_nodes: list[np.ndarray] = []
        part_weights: list[int] = []
        for component in rated:
            comp_nodes = np.flatnonzero(labels == component)
            count = parts_of[int(component)]
            if count == 1:
                pieces = [comp_nodes]
            else:
                pieces = _split_component(graph, comp_nodes, count,
                                          refine_passes)
            for piece in pieces:
                part_nodes.append(piece)
                part_weights.append(int(graph.degrees[piece].sum()))

        # LPT-pack the parts onto shards (identical policy to `build`).
        loads = np.zeros(n_shards, dtype=np.int64)
        node_loads = np.zeros(n_shards, dtype=np.int64)
        for index in _lpt_order(np.asarray(part_weights)):
            shard = int(np.argmin(loads))
            nodes = part_nodes[index]
            node_shard[nodes] = shard
            loads[shard] += part_weights[index]
            node_loads[shard] += nodes.size
        # Zero-nnz components (isolated nodes) carry no solve cost or cut
        # edges; spread them by node count, as in `build`.
        for component in _lpt_order(sizes):
            if not present[component] or nnz[component] > 0:
                continue
            shard = int(np.argmin(node_loads))
            nodes = np.flatnonzero(labels == component)
            node_shard[nodes] = shard
            node_loads[shard] += nodes.size

        ghost_users, ghost_items = _khop_ghosts(
            graph, node_shard, n_shards, halo_hops
        )
        return cls(
            node_shard[:dataset.n_users],
            node_shard[dataset.n_users:],
            n_shards=n_shards,
            ghost_users=ghost_users,
            ghost_items=ghost_items,
            halo_hops=halo_hops,
            partitioner="edge-cut",
        )

    # -- shape ---------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self.user_shard.size

    @property
    def n_items(self) -> int:
        return self.item_shard.size

    @property
    def has_halos(self) -> bool:
        """Whether this is an edge-cut plan carrying ghost metadata."""
        return self.halo_hops is not None

    def users_of_shard(self, shard: int) -> np.ndarray:
        """Global user indices owned by ``shard``, ascending."""
        return self._shard_users[self._check_shard(shard)]

    def items_of_shard(self, shard: int) -> np.ndarray:
        """Global item indices owned by ``shard``, ascending."""
        return self._shard_items[self._check_shard(shard)]

    def ghost_users_of_shard(self, shard: int) -> np.ndarray:
        """Global user indices ``shard`` keeps as halo ghosts, ascending."""
        return self._ghost_users[self._check_shard(shard)]

    def ghost_items_of_shard(self, shard: int) -> np.ndarray:
        """Global item indices ``shard`` keeps as halo ghosts, ascending."""
        return self._ghost_items[self._check_shard(shard)]

    def shard_users(self, shard: int) -> np.ndarray:
        """Owned-then-ghost global user indices — the shard dataset's rows."""
        shard = self._check_shard(shard)
        return np.concatenate([self._shard_users[shard],
                               self._ghost_users[shard]])

    def shard_items(self, shard: int) -> np.ndarray:
        """Owned-then-ghost global item indices — the shard dataset's columns."""
        shard = self._check_shard(shard)
        return np.concatenate([self._shard_items[shard],
                               self._ghost_items[shard]])

    def _check_shard(self, shard: int) -> int:
        if isinstance(shard, bool) or not isinstance(shard, (int, np.integer)):
            raise ConfigError(f"shard must be an int; got {shard!r}")
        if not 0 <= shard < self.n_shards:
            raise ConfigError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )
        return int(shard)

    # -- materialisation -----------------------------------------------------

    def shard_dataset(self, dataset: RatingDataset, shard: int) -> RatingDataset:
        """The sub-dataset ``shard`` serves, labels preserved.

        Component plans guard against edge cuts: every rating of a kept
        user must land in the shard (true by construction for
        :meth:`build` plans, violated by hand-written plans that split a
        component) — a cut rating would silently vanish from the shard's
        graph and change scores. The error names one offending edge.

        Edge-cut plans instead keep each shard's ghost rows/columns
        (owned first, ghosts appended, both ascending by global index) and
        *expect* cuts at the halo boundary: the subset tracks the severed
        rating mass as degree deficits, which the graph layer adds back
        into its degree vector so boundary transition rows absorb leaked
        walk mass exactly (DESIGN.md §12). Owned users must still keep
        every rated item inside the halo — guaranteed by
        ``halo_hops >= 1`` for built plans, checked here for hand-written
        ones (a truncated absorbing set would change ranking semantics,
        not just add bounded error).
        """
        shard = self._check_shard(shard)
        if dataset.n_users != self.n_users or dataset.n_items != self.n_items:
            raise ConfigError(
                f"plan covers {self.n_users} users × {self.n_items} items; "
                f"dataset has {dataset.n_users} × {dataset.n_items}"
            )
        owned_users = self._shard_users[shard]
        if self.has_halos:
            users = self.shard_users(shard)
            items = self.shard_items(shard)
            sub = dataset.subset(users=users, items=items,
                                 track_cut_degrees=True)
            deficit = sub.user_degree_deficit
            if deficit is not None and deficit[:owned_users.size].any():
                bad = int(np.flatnonzero(deficit[:owned_users.size])[0])
                raise ConfigError(
                    f"shard {shard} cuts rating(s) of owned user "
                    f"{dataset.user_labels[owned_users[bad]]!r}; a halo plan "
                    "must keep every owned user's rated items inside the "
                    "halo (use ShardPlan.build_edge_cut with halo_hops >= 1)"
                )
            return sub
        items = self._shard_items[shard]
        sub = dataset.subset(users=owned_users, items=items)
        expected = int(dataset.user_activity()[owned_users].sum())
        if sub.n_ratings != expected:
            user, item = self._find_cut_edge(dataset, shard)
            raise ConfigError(
                f"shard {shard} cuts {expected - sub.n_ratings} rating(s) "
                "across shard boundaries — e.g. user "
                f"{dataset.user_labels[user]!r} (shard {shard}) rated item "
                f"{dataset.item_labels[item]!r} "
                f"(shard {int(self.item_shard[item])}); a component plan "
                "must keep every user's rated items in the user's shard — "
                f"use ShardPlan.build, or {EDGE_CUT_HINT}"
            )
        return sub

    def _find_cut_edge(self, dataset: RatingDataset,
                       shard: int) -> tuple[int, int]:
        """First (user, item) rating this shard's cut severs (global ids)."""
        matrix = dataset.matrix
        for user in self._shard_users[shard]:
            row = matrix.indices[matrix.indptr[user]:matrix.indptr[user + 1]]
            outside = row[self.item_shard[row] != shard]
            if outside.size:
                return int(user), int(outside[0])
        raise ConfigError(f"shard {shard} has no cut edges")  # pragma: no cover

    def summary(self, dataset: RatingDataset | None = None) -> list[dict]:
        """One row per shard: sizes (+ rating balance when ``dataset`` given).

        Edge-cut plans add ghost counts and, with a dataset, the number of
        ratings the halo boundary cuts (the shard's bounded-error surface).
        """
        rows = []
        activity = dataset.user_activity() if dataset is not None else None
        for shard in range(self.n_shards):
            row = {
                "shard": shard,
                "users": int(self._shard_users[shard].size),
                "items": int(self._shard_items[shard].size),
            }
            if self.has_halos:
                row["ghost_users"] = int(self._ghost_users[shard].size)
                row["ghost_items"] = int(self._ghost_items[shard].size)
            if activity is not None:
                row["ratings"] = int(activity[self._shard_users[shard]].sum())
                if self.has_halos:
                    sub = dataset.subset(
                        users=self.shard_users(shard),
                        items=self.shard_items(shard),
                        track_cut_degrees=True,
                    )
                    halo_activity = int(
                        dataset.user_activity()[self.shard_users(shard)].sum()
                    )
                    row["halo_ratings"] = int(sub.n_ratings) - row["ratings"]
                    row["cut_ratings"] = halo_activity - int(sub.n_ratings)
            rows.append(row)
        return rows

    # -- persistence ---------------------------------------------------------

    @staticmethod
    def _npz_path(path: str) -> str:
        return path if str(path).endswith(".npz") else f"{path}.npz"

    def save(self, path: str) -> str:
        """Persist the plan as a versioned ``.npz``; returns the path written.

        Format version 2: the component fields of version 1 plus the halo
        metadata — ``partitioner`` (index into :data:`PARTITIONERS`),
        ``halo_hops`` (``-1`` for component plans) and the per-shard ghost
        arrays packed as concatenated values + offsets.
        """
        path = self._npz_path(path)
        ghost_user_values, ghost_user_offsets = _concat_ragged(self._ghost_users)
        ghost_item_values, ghost_item_offsets = _concat_ragged(self._ghost_items)
        # Atomic (temp + os.replace): a fleet supervisor boots from this
        # file, and a crash mid-save must leave the previous plan intact.
        atomic_savez(path, {
            "format_version": np.array(SHARD_PLAN_FORMAT_VERSION,
                                       dtype=np.int64),
            "n_shards": np.array(self.n_shards, dtype=np.int64),
            "user_shard": self.user_shard,
            "item_shard": self.item_shard,
            "partitioner": np.array(PARTITIONERS.index(self.partitioner),
                                    dtype=np.int64),
            "halo_hops": np.array(
                -1 if self.halo_hops is None else self.halo_hops,
                dtype=np.int64,
            ),
            "ghost_user_values": ghost_user_values,
            "ghost_user_offsets": ghost_user_offsets,
            "ghost_item_values": ghost_item_values,
            "ghost_item_offsets": ghost_item_offsets,
        }, compressed=True)
        return path

    @classmethod
    def load(cls, path: str) -> "ShardPlan":
        """Reload a plan written by :meth:`save` (strict format versioning).

        Version-1 plans (pre-halo) are rejected with
        :class:`~repro.exceptions.ArtifactError`: halo-aware code paths
        must never route through a plan that cannot say which nodes are
        ghosts — rebuild the plan instead.
        """
        try:
            archive = np.load(cls._npz_path(path), allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot read shard plan {path!r}: {exc}") from None
        with archive:
            if "format_version" not in archive.files:
                raise ArtifactError(
                    f"{path!r} has no shard-plan format version; rebuild it "
                    "with ShardPlan.build"
                )
            version = int(archive["format_version"])
            if version != SHARD_PLAN_FORMAT_VERSION:
                raise ArtifactError(
                    f"{path!r} has shard-plan format version {version}; this "
                    f"build reads {SHARD_PLAN_FORMAT_VERSION} — rebuild the plan"
                )
            halo_hops = int(archive["halo_hops"])
            partitioner = PARTITIONERS[int(archive["partitioner"])]
            if halo_hops < 0:
                return cls(archive["user_shard"], archive["item_shard"],
                           n_shards=int(archive["n_shards"]),
                           partitioner=partitioner)
            return cls(
                archive["user_shard"], archive["item_shard"],
                n_shards=int(archive["n_shards"]),
                ghost_users=_split_ragged(archive["ghost_user_values"],
                                          archive["ghost_user_offsets"]),
                ghost_items=_split_ragged(archive["ghost_item_values"],
                                          archive["ghost_item_offsets"]),
                halo_hops=halo_hops,
                partitioner=partitioner,
            )

    def __repr__(self) -> str:
        halo = f", halo_hops={self.halo_hops}" if self.has_halos else ""
        return (
            f"ShardPlan(n_shards={self.n_shards}, n_users={self.n_users}, "
            f"n_items={self.n_items}, partitioner={self.partitioner!r}{halo})"
        )


@dataclass
class FleetReport:
    """One cohort run across the shard fleet, with per-shard breakdowns.

    ``rows`` carry **global** user/item indices (and the global item
    labels), in cohort order, exactly as an unsharded engine would emit
    them. ``per_shard`` holds ``(shard_id, EngineReport)`` pairs for the
    shards the cohort touched; the per-shard reports cover their lookup
    and solve stages (row assembly happens once, fleet-side, and is
    included in the fleet ``seconds``).
    """

    rows: list = field(default_factory=list)
    n_users: int = 0
    k: int = 10
    seconds: float = 0.0
    n_shards: int = 0
    row_cache_hits: int = 0
    row_cache_misses: int = 0
    per_shard: list = field(default_factory=list)
    #: Process-fleet supervision counters (always zero / empty for the
    #: in-process ShardedEngine): lifetime worker restarts, WAL batches
    #: replayed into restarted workers, and the per-shard health rows the
    #: run was served under. ``summary()`` surfaces them only when
    #: ``shard_health`` is populated, so in-process summaries are unchanged.
    restarts: int = 0
    replayed_batches: int = 0
    #: WAL batches skipped on replay because a checkpoint's recorded seqno
    #: already contained them (supervisor died between checkpoint and WAL
    #: truncation; see DESIGN.md §13/§14).
    skipped_replay_batches: int = 0
    #: Wall-clock seconds of the fleet's most recent successful worker
    #: restart (kill detection through replayed-and-healthy), ``None``
    #: until a restart has happened. First-class here so the
    #: restart-to-healthy latency the mmap artifacts buy is observable in
    #: production reports, not only in benchmarks.
    last_restart_s: float | None = None
    shard_health: list = field(default_factory=list)

    @property
    def users_per_second(self) -> float:
        """Fleet throughput; clamped to 0.0 when the clock resolved no time
        (:func:`~repro.utils.timer.per_second` — ``inf`` would corrupt JSON
        summaries)."""
        return per_second(self.n_users, self.seconds)

    @property
    def n_solves(self) -> int:
        return sum(report.n_solves for _, report in self.per_shard)

    @property
    def result_cache_hits(self) -> int:
        """Requests answered from a cache: the fleet's row cache plus the
        shard engines' result caches (a fleet row-cache miss falls through
        to a shard, where it counts again as that layer's hit or miss)."""
        return self.row_cache_hits + sum(
            report.result_cache_hits for _, report in self.per_shard
        )

    @property
    def result_cache_misses(self) -> int:
        return sum(report.result_cache_misses for _, report in self.per_shard)

    @property
    def result_cache_hit_rate(self) -> float:
        total = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / total if total else 0.0

    def summary(self) -> dict:
        """One fleet-level summary row (JSON-safe)."""
        row = {
            "users": self.n_users,
            "k": self.k,
            "seconds": round(self.seconds, 4),
            "users_per_sec": round(self.users_per_second, 1),
            "shards": self.n_shards,
            "shards_hit": len(self.per_shard),
            "solves": self.n_solves,
            "row_hits": self.row_cache_hits,
            "result_hits": self.result_cache_hits,
            "result_misses": self.result_cache_misses,
            "result_hit_rate": round(self.result_cache_hit_rate, 3),
        }
        if self.shard_health:
            row["restarts"] = self.restarts
            row["replayed_batches"] = self.replayed_batches
            row["skipped_replay_batches"] = self.skipped_replay_batches
            if self.last_restart_s is not None:
                row["last_restart_s"] = round(self.last_restart_s, 4)
            row["shards_down"] = sum(
                1 for entry in self.shard_health
                if entry.get("state") != "up"
            )
        return row

    def shard_summaries(self) -> list[dict]:
        """Per-shard summary rows, each tagged with its shard id."""
        return [{"shard": shard, **report.summary()}
                for shard, report in self.per_shard]


@dataclass
class FleetUpdateReport:
    """One :meth:`ShardRouter.apply_updates` batch across the fleet.

    ``per_shard`` holds ``(shard_id, UpdateReport)`` pairs for the shards
    that received events; untouched shards keep serving warm and do not
    appear. On an edge-cut (halo) fleet, ``hint`` is set when some events
    could not reach every replica of their endpoints — the untouched ghost
    copies are now stale (bounded drift, DESIGN.md §12) and a re-plan
    refreshes them; component fleets never set it (they reject cross-shard
    edges outright instead).
    """

    n_events: int = 0
    seconds: float = 0.0
    per_shard: list = field(default_factory=list)
    stale_ghost_events: int = 0
    hint: str | None = None
    #: Rows dropped from the fleet-level row cache by this batch — one
    #: eviction pass over the cache after every touched shard has applied
    #: (not one per shard), so a batch spanning S shards costs one cache
    #: scan instead of S.
    fleet_rows_evicted: int = 0
    #: WAL batches replayed because a worker crashed while this batch was
    #: in flight (multi-process fleet only; always 0 in-process).
    replayed_batches: int = 0

    @property
    def n_shards_touched(self) -> int:
        return len(self.per_shard)

    @property
    def n_new_users(self) -> int:
        return sum(report.n_new_users for _, report in self.per_shard)

    @property
    def n_new_items(self) -> int:
        return sum(report.n_new_items for _, report in self.per_shard)

    @property
    def n_replaced(self) -> int:
        return sum(report.n_replaced for _, report in self.per_shard)

    @property
    def result_rows_evicted(self) -> int:
        return sum(report.result_rows_evicted for _, report in self.per_shard)

    def summary(self) -> dict:
        """One fleet-level summary row (JSON-safe)."""
        row = {
            "events": self.n_events,
            "shards_touched": self.n_shards_touched,
            "new_users": self.n_new_users,
            "new_items": self.n_new_items,
            "replaced": self.n_replaced,
            "results_evicted": self.result_rows_evicted,
            "fleet_rows_evicted": self.fleet_rows_evicted,
            "seconds": round(self.seconds, 4),
        }
        if self.replayed_batches:
            row["replayed_batches"] = self.replayed_batches
        if self.hint is not None:
            row["stale_ghost_events"] = self.stale_ghost_events
            row["hint"] = self.hint
        return row

    def shard_summaries(self) -> list[dict]:
        """Per-shard summary rows, each tagged with its shard id."""
        return [{"shard": shard, **report.summary()}
                for shard, report in self.per_shard]


def _read_shard_dir(path: str) -> tuple[ShardPlan, list[str]]:
    """The plan and per-shard artifact paths of a :meth:`ShardedEngine.save`
    directory (``plan.npz`` plus one ``shard-NNN.npz`` per shard)."""
    plan_path = os.path.join(path, _PLAN_FILENAME)
    if not os.path.exists(plan_path):
        raise ArtifactError(
            f"{path!r} is not a sharded-artifact directory "
            f"(no {_PLAN_FILENAME})"
        )
    plan = ShardPlan.load(plan_path)
    return plan, [os.path.join(path, _shard_artifact_name(shard))
                  for shard in range(plan.n_shards)]


def _hello(engine) -> dict:
    """One shard's boot announcement: its shape, full label lists, version.

    :class:`ShardRouter` builds its routing tables from one hello per
    shard. A process-fleet worker sends it down its pipe before answering
    any RPC; the in-process tier reads it straight off each engine.
    """
    dataset = engine.dataset
    return {
        "n_ratings": int(dataset.n_ratings),
        "user_labels": dataset.user_labels,
        "item_labels": dataset.item_labels,
        "model_version": engine.model_version,
    }


def _worker_handle(engine, method: str, payload: dict):
    """Answer one shard RPC against ``engine``.

    The one vocabulary both router backends speak: the in-process tier
    calls it directly, a process-fleet worker calls it for every request
    read off its pipe. Results are plain tuples, dicts and arrays, so they
    pickle cheaply.
    """
    if method == "ping":
        return {"pid": os.getpid(), "model_version": engine.model_version}
    if method == "recommend":
        ranked = engine.recommend(
            payload["user"], k=payload["k"],
            exclude_rated=payload["exclude_rated"],
            exclude=payload["exclude"],
        )
        return [(int(r.item), r.label, float(r.score)) for r in ranked]
    if method == "recommend_many":
        ranked_lists = engine.recommend_many(
            payload["users"], k=payload["k"],
            exclude_rated=payload["exclude_rated"],
            excludes=payload["excludes"],
        )
        return [[(int(r.item), r.label, float(r.score)) for r in ranked]
                for ranked in ranked_lists]
    if method == "serve_cohort":
        report, _, items, scores = engine._serve_cohort_arrays(
            payload["users"], k=payload["k"],
            batch_size=payload["batch_size"],
            exclude_rated=payload["exclude_rated"],
        )
        return {"report": report, "items": items, "scores": scores}
    if method == "validate_events":
        validate_shard_events(
            engine.dataset, payload["events"],
            payload["duplicates"] or engine.update_duplicates,
        )
        return None
    if method == "apply_updates":
        before = engine.dataset
        known_users, known_items = before.n_users, before.n_items
        report = engine.apply_updates(payload["events"],
                                      duplicates=payload["duplicates"])
        dataset = engine.dataset
        return {
            "report": report,
            "new_user_labels": list(dataset.user_labels[known_users:]),
            "new_item_labels": list(dataset.item_labels[known_items:]),
            "model_version": engine.model_version,
            "n_ratings": int(dataset.n_ratings),
        }
    if method == "invalidate_user":
        return engine.invalidate_user(payload["user"])
    if method == "save":
        # The process fleet folds the shard's last applied WAL seqno into
        # the checkpoint header; a future boot skips replaying batches the
        # checkpoint already contains (DESIGN.md §13/§14).
        return save_artifact(engine.recommender, payload["path"],
                             extra_meta={"wal_seq": payload["wal_seq"]})
    if method == "stats":
        return engine.stats()
    if method == "clear_caches":
        engine.clear_caches()
        return None
    raise ConfigError(f"unknown shard method {method!r}")


class ShardRouter:
    """The routing core of a shard fleet, whichever way its shards run.

    Owns, once for both backends: the routing tables (global ↔ local
    indices, label → owner-shard dicts and, on halo plans, per-label
    holder sets and global → local item maps), built from one
    :func:`_hello` per shard; the fleet **row cache**, an LRU of fully
    materialised rows per ``(user, k, exclude_rated)`` — the global remap
    and row assembly exist only above the shard tier, so a warm cohort
    touches no shard — with version-gated inserts and per-update
    eviction of the touched shards' users; and the serving and update
    surface built on them.

    A subclass supplies the shards: every request reaches one through
    :meth:`_call` ``(shard, method, payload)``, in
    :func:`_worker_handle`'s vocabulary, and :meth:`_shard_version` /
    :meth:`_shard_ratings` read per-shard state. :class:`ShardedEngine`
    answers in process;
    :class:`~repro.service.fleet.ProcessShardFleet` over worker pipes.

    **Lock ordering:** ``_update_lock → per-shard lock → _routing_lock``,
    with the row-cache ``_lock`` below all three; never acquire outward
    while an inner lock is held. ``_update_lock`` serialises update
    batches (and the process fleet's checkpoints). The per-shard lock
    belongs to the backend and is held by :meth:`_call`: the process
    fleet's ``worker.lock`` orders RPCs on one pipe, and the in-process
    fleet's ``shard.lock`` keeps an update from landing on a
    :class:`ServingEngine` while a reader is solving on it (an engine is
    not safe against concurrent ``apply_updates``). ``_routing_lock``
    guards the routing tables: readers take it
    to snapshot a consistent view, :meth:`_absorb_new_labels` takes it to
    grow them, and nothing slow (RPC, fsync, solve) ever runs under it.
    """

    def __init__(self, plan: ShardPlan, hellos,
                 result_cache_size: int = 65536):
        self.plan = plan
        self.result_cache_size = check_non_negative_int(
            result_cache_size, "result_cache_size"
        )
        for shard, hello in enumerate(hellos):
            n_users, n_items = (len(hello["user_labels"]),
                                len(hello["item_labels"]))
            base_users = plan.shard_users(shard).size
            base_items = plan.shard_items(shard).size
            if n_users < base_users or n_items < base_items:
                raise ConfigError(
                    f"shard {shard} serves {n_users} users × "
                    f"{n_items} items; the plan assigns it "
                    f"{base_users} × {base_items} (owned + ghosts) — "
                    "artifact/plan mismatch"
                )
        self._rows: OrderedDict[tuple, list] = OrderedDict()  # guarded-by: router._lock
        self.row_cache_hits = 0  # guarded-by: router._lock
        self.row_cache_misses = 0  # guarded-by: router._lock
        self._lock = threading.RLock()
        self._update_lock = threading.RLock()
        self._routing_lock = threading.Lock()
        self._user_shard = plan.user_shard.copy()  # guarded-by: _routing_lock
        self._user_local = plan.user_local.copy()  # guarded-by: _routing_lock
        self._item_shard = plan.item_shard.copy()  # guarded-by: _routing_lock
        self._item_local = plan.item_local.copy()  # guarded-by: _routing_lock
        # Per-shard local → global translation covers owned nodes first,
        # then halo ghosts (matching the shard dataset's row/column order),
        # then anything updates appended later.
        self._user_global = [plan.shard_users(s) for s in range(plan.n_shards)]  # guarded-by: _routing_lock
        self._item_global = [plan.shard_items(s) for s in range(plan.n_shards)]  # guarded-by: _routing_lock
        self._item_labels = np.empty(plan.n_items, dtype=object)  # guarded-by: _routing_lock
        for shard, hello in enumerate(hellos):
            base = self._item_global[shard]
            self._item_labels[base] = _label_array(
                hello["item_labels"][:base.size]
            )
        # Halo plans additionally keep a dense global→local item map per
        # shard (−1 where absent), so exclusions translate for ghost items
        # too, and per-label holder sets ("which shards hold this label,
        # owned or ghost") for replica routing. Component plans translate
        # and route through the owner maps alone.
        halos = plan.has_halos
        # guarded-by: _routing_lock
        self._item_local_in_shard: list[np.ndarray] | None = (
            [np.empty(0, dtype=np.int64)] * plan.n_shards if halos else None
        )
        self._user_label_shards: dict | None = {} if halos else None  # guarded-by: _routing_lock
        self._item_label_shards: dict | None = {} if halos else None  # guarded-by: _routing_lock
        self._user_shard_by_label: dict = {}  # guarded-by: _routing_lock
        self._item_shard_by_label: dict = {}  # guarded-by: _routing_lock
        for shard, hello in enumerate(hellos):
            self._absorb_new_labels(shard, hello["user_labels"],
                                    hello["item_labels"])
        axes = [
            (shard, axis, labels, lookup, owned.size, ghosts.size)
            for shard, hello in enumerate(hellos)
            for axis, labels, lookup, owned, ghosts in (
                ("user", hello["user_labels"], self._user_shard_by_label,
                 plan.users_of_shard(shard), plan.ghost_users_of_shard(shard)),
                ("item", hello["item_labels"], self._item_shard_by_label,
                 plan.items_of_shard(shard), plan.ghost_items_of_shard(shard)),
            )
        ]
        # Label ownership: every *non-ghost* label (owned by the plan, or
        # appended by absorbed updates) must live in exactly one shard;
        # ghost labels are replicas and must be owned elsewhere.
        for shard, axis, labels, lookup, owned, ghosts in axes:
            for position, label in enumerate(labels):
                if owned <= position < owned + ghosts:
                    continue  # ghost replica; verified below
                owner = lookup.setdefault(label, shard)
                if owner != shard:
                    raise ConfigError(
                        f"{axis} label {label!r} appears in shards "
                        f"{owner} and {shard}; shard datasets must be "
                        "disjoint"
                    )
        for shard, axis, labels, lookup, owned, ghosts in axes:
            for label in labels[owned:owned + ghosts]:
                owner = lookup.get(label)
                if owner is None or owner == shard:
                    raise ConfigError(
                        f"ghost {axis} label {label!r} in shard {shard} is "
                        "not owned by any other shard — plan/artifact "
                        "mismatch"
                    )
        if halos:
            for shard, hello in enumerate(hellos):
                for label in hello["user_labels"]:
                    self._user_label_shards.setdefault(label, set()).add(shard)
                for label in hello["item_labels"]:
                    self._item_label_shards.setdefault(label, set()).add(shard)
                self._rebuild_item_map_locked(shard)

    @classmethod
    def _require_plan(cls, plan, count: int, what: str) -> None:
        """Constructor guard: a real plan with one ``what`` per shard."""
        if not isinstance(plan, ShardPlan):
            raise ConfigError(
                f"{cls.__name__} requires a ShardPlan; "
                f"got {type(plan).__name__}"
            )
        if count != plan.n_shards:
            raise ConfigError(
                f"plan has {plan.n_shards} shards; got {count} {what}"
            )

    # -- backend hooks -------------------------------------------------------

    def _call(self, shard: int, method: str, payload: dict):
        """Run one :func:`_worker_handle` request on ``shard``.

        After an ``apply_updates`` the backend has absorbed the shard's
        new labels (:meth:`_absorb_new_labels`) before it returns.
        """
        raise NotImplementedError

    def _shard_version(self, shard: int) -> int:
        """The shard's model version now (gates row-cache inserts)."""
        raise NotImplementedError

    def _shard_ratings(self, shard: int) -> int:
        """The shard's rating count (places brand-new labels)."""
        raise NotImplementedError

    # -- shape ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def n_users(self) -> int:
        return self._user_shard.size

    @property
    def n_items(self) -> int:
        return self._item_shard.size

    def shard_of_user(self, user: int) -> int:
        """The shard id serving a global user index."""
        self._check_user(user)
        with self._routing_lock:
            return int(self._user_shard[user])

    def _check_user(self, user: int) -> None:
        if not is_index(user, self.n_users):
            raise UnknownUserError(user)

    # -- routing tables ------------------------------------------------------

    def _rebuild_item_map_locked(self, shard: int) -> None:
        """Recompute one shard's dense global→local item map (halo plans)."""
        lookup = np.full(self.n_items, -1, dtype=np.int64)
        lookup[self._item_global[shard]] = np.arange(
            self._item_global[shard].size, dtype=np.int64
        )
        self._item_local_in_shard[shard] = lookup

    def _translate_exclusions_locked(self, shard: int,
                                     banned: np.ndarray) -> np.ndarray:
        """Global exclusion indices → the shard's local item indices.

        Exclusions the shard cannot see (other shards' items outside its
        halo) are dropped — the shard can never recommend them anyway. On
        halo plans the map covers ghost items too, so a ban on an item the
        shard merely replicates still suppresses it.
        """
        in_range = banned[(banned >= 0) & (banned < self.n_items)]
        if self._item_local_in_shard is not None:
            local = self._item_local_in_shard[shard][in_range]
            return local[local >= 0]
        mine = in_range[self._item_shard[in_range] == shard]
        return self._item_local[mine]

    def _absorb_new_labels(self, shard: int, user_labels,
                           item_labels) -> None:
        """Append a shard's users/items beyond the known ones to the
        global space.

        ``user_labels`` / ``item_labels`` are the shard's full label
        lists: its dataset's, or the process fleet's per-worker mirror.
        Labels below the shard's known count are already registered, so
        re-announcing them (a WAL replay regrowing a restarted worker)
        registers nothing twice.
        """
        with self._routing_lock:
            known = self._user_global[shard].size
            if len(user_labels) > known:
                count = len(user_labels) - known
                self._user_global[shard] = np.concatenate([
                    self._user_global[shard],
                    np.arange(self.n_users, self.n_users + count,
                              dtype=np.int64),
                ])
                self._user_shard = np.concatenate(
                    [self._user_shard, np.full(count, shard, dtype=np.int64)]
                )
                self._user_local = np.concatenate([
                    self._user_local,
                    np.arange(known, known + count, dtype=np.int64),
                ])
                for label in user_labels[known:]:
                    self._user_shard_by_label[label] = shard
                    if self._user_label_shards is not None:
                        self._user_label_shards.setdefault(
                            label, set()).add(shard)
            known = self._item_global[shard].size
            if len(item_labels) > known:
                count = len(item_labels) - known
                self._item_global[shard] = np.concatenate([
                    self._item_global[shard],
                    np.arange(self.n_items, self.n_items + count,
                              dtype=np.int64),
                ])
                self._item_shard = np.concatenate(
                    [self._item_shard, np.full(count, shard, dtype=np.int64)]
                )
                self._item_local = np.concatenate([
                    self._item_local,
                    np.arange(known, known + count, dtype=np.int64),
                ])
                self._item_labels = np.concatenate(
                    [self._item_labels, _label_array(item_labels[known:])]
                )
                for label in item_labels[known:]:
                    self._item_shard_by_label[label] = shard
                    if self._item_label_shards is not None:
                        self._item_label_shards.setdefault(
                            label, set()).add(shard)
                if self._item_local_in_shard is not None:
                    # The global item space grew: every shard's dense
                    # global→local map must cover the new tail indices.
                    for other in range(self.n_shards):
                        self._rebuild_item_map_locked(other)

    # -- serving -------------------------------------------------------------

    def recommend(self, user: int, k: int = 10, exclude_rated: bool = True,
                  exclude=None) -> list[Recommendation]:
        """Top-``k`` for one global user, answered by the owning shard.

        ``exclude`` takes **global** item indices; exclusions living in
        other shards are dropped (the user's shard can never recommend
        them) and the rest are translated to shard-local indices. Returned
        recommendations carry global item indices and labels. On the
        process fleet a down shard raises
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        self._check_user(user)
        k = check_positive_int(k, "k")
        banned = as_exclude_array(exclude)
        with self._routing_lock:
            shard = int(self._user_shard[user])
            local = int(self._user_local[user])
            if banned.size:
                banned = self._translate_exclusions_locked(shard, banned)
        ranked = self._call(shard, "recommend", {
            "user": local,
            "k": k,
            "exclude_rated": bool(exclude_rated),
            "exclude": banned,
        })
        # Read *after* the call: an apply absorbed meanwhile may have grown
        # the shard's item space, and growth is append-only.
        with self._routing_lock:
            lookup = self._item_global[shard]
        return [Recommendation(int(lookup[item]), label, score)
                for item, label, score in ranked]

    def recommend_many(self, users, k: int = 10, exclude_rated: bool = True,
                       excludes=None) -> list:
        """A batch of independent single-user requests, routed per shard.

        The fleet-side half of the micro-batching hook: requests are
        grouped by owning shard, each shard answers its slice through
        :meth:`ServingEngine.recommend_many` (one coalesced solve per
        depth group), and item indices are remapped shard-local → global.
        Exclusions are translated exactly as :meth:`recommend` translates
        them, so responses are bit-identical to calling :meth:`recommend`
        once per request. Degraded mode is per position: a request owned
        by a down process-fleet shard yields a
        :class:`~repro.exceptions.ShardUnavailableError` *instance* at its
        position while every healthy shard's positions carry ranked lists.
        """
        users = list(users)
        excludes = [None] * len(users) if excludes is None else list(excludes)
        if len(excludes) != len(users):
            raise ConfigError(
                f"excludes has {len(excludes)} entries for {len(users)} users"
            )
        k = check_positive_int(k, "k")
        out: list = [None] * len(users)
        by_shard: dict[int, tuple[list, list, list]] = {}
        with self._routing_lock:
            for position, (user, exclude) in enumerate(zip(users, excludes)):
                self._check_user(user)
                shard = int(self._user_shard[user])
                banned = as_exclude_array(exclude)
                if banned.size:
                    banned = self._translate_exclusions_locked(shard, banned)
                positions, local_users, local_bans = by_shard.setdefault(
                    shard, ([], [], [])
                )
                positions.append(position)
                local_users.append(int(self._user_local[user]))
                local_bans.append(banned)
        answered = []
        for shard, (positions, local_users, local_bans) in by_shard.items():
            try:
                ranked_lists = self._call(shard, "recommend_many", {
                    "users": local_users,
                    "k": k,
                    "exclude_rated": bool(exclude_rated),
                    "excludes": local_bans,
                })
            except ShardUnavailableError as exc:
                for position in positions:
                    out[position] = exc
                continue
            answered.append((shard, positions, ranked_lists))
        with self._routing_lock:
            item_global = list(self._item_global)
        for shard, positions, ranked_lists in answered:
            lookup = item_global[shard]
            for position, ranked in zip(positions, ranked_lists):
                out[position] = [
                    Recommendation(int(lookup[item]), label, score)
                    for item, label, score in ranked
                ]
        return out

    def serve_cohort(self, users, k: int = 10, batch_size: int = 256,
                     exclude_rated: bool = True) -> FleetReport:
        """Serve a cohort of global user indices across the fleet.

        Users with a fleet row-cache entry are answered without touching
        any shard. The rest are split by owning shard, answered by each
        shard's arrays path, remapped from shard-local to global item
        indices, materialised as rows (which enter the row cache) and
        merged back in original cohort order — byte-for-byte the shape an
        unsharded engine's report carries.
        """
        k = check_positive_int(k, "k")
        exclude_rated = bool(exclude_rated)
        users = as_index_array(users, self.n_users, "users")
        report = FleetReport(n_users=int(users.size), k=k,
                             n_shards=self.n_shards)
        with Timer() as timer:
            per_position: list = [None] * users.size
            if self.result_cache_size:
                missing: list[int] = []
                with self._lock:
                    for position, user in enumerate(users):
                        key = (int(user), k, exclude_rated)
                        entry = self._rows.get(key)
                        if entry is None:
                            missing.append(position)
                        else:
                            self._rows.move_to_end(key)
                            per_position[position] = entry
                    report.row_cache_hits = users.size - len(missing)
                    report.row_cache_misses = len(missing)
                    self.row_cache_hits += report.row_cache_hits
                    self.row_cache_misses += report.row_cache_misses
            else:
                missing = list(range(users.size))
            if missing:
                versions = [self._shard_version(shard)
                            for shard in range(self.n_shards)]
                positions = np.asarray(missing, dtype=np.int64)
                miss_users = users[positions]
                with self._routing_lock:
                    shard_of = self._user_shard[miss_users]
                    local = self._user_local[miss_users]
                answered = []
                for shard in np.unique(shard_of):
                    shard = int(shard)
                    rows_of_shard = np.flatnonzero(shard_of == shard)
                    result = self._call(shard, "serve_cohort", {
                        "users": local[rows_of_shard],
                        "k": k,
                        "batch_size": batch_size,
                        "exclude_rated": exclude_rated,
                    })
                    answered.append((shard, rows_of_shard, result))
                    report.per_shard.append((shard, result["report"]))
                # After the calls, so these (append-only) arrays cover every
                # global id the replies can reference.
                with self._routing_lock:
                    item_global = list(self._item_global)
                    item_labels = self._item_labels
                items = np.full((positions.size, k), -1, dtype=np.int64)
                scores = np.full((positions.size, k), -np.inf)
                for shard, rows_of_shard, result in answered:
                    lookup = item_global[shard]
                    shard_items = result["items"]
                    valid = shard_items >= 0
                    items[rows_of_shard] = np.where(
                        valid, lookup[np.where(valid, shard_items, 0)], -1
                    )
                    scores[rows_of_shard] = result["scores"]
                flat = rows_from_ranked_arrays(
                    miss_users, items, scores, item_labels
                )
                bounds = np.concatenate(
                    [[0], np.cumsum((items >= 0).sum(axis=1))]
                )
                for index, position in enumerate(missing):
                    per_position[position] = flat[bounds[index]:
                                                  bounds[index + 1]]
                if self.result_cache_size:
                    with self._lock:
                        # Shard solves ran outside the lock; skip inserting
                        # rows whose shard absorbed an update (or restarted)
                        # meanwhile — its version moved and its users were
                        # evicted, so re-caching them would serve pre-update
                        # rows indefinitely.
                        moved = {shard for shard in range(self.n_shards)
                                 if self._shard_version(shard)
                                 != versions[shard]}
                        for index, position in enumerate(missing):
                            if int(shard_of[index]) in moved:
                                continue
                            self._rows[(int(users[position]), k,
                                        exclude_rated)] = per_position[position]
                        while len(self._rows) > self.result_cache_size:
                            self._rows.popitem(last=False)
            rows: list = []
            for user_rows in per_position:
                if user_rows:
                    rows.extend(user_rows)
            report.rows = rows
        report.seconds = timer.elapsed
        return report

    def warm(self, users=None, k: int = 10, batch_size: int = 256) -> FleetReport:
        """Pre-fill the row cache and every shard's caches (default: every
        user)."""
        if users is None:
            users = np.arange(self.n_users, dtype=np.int64)
        return self.serve_cohort(users, k=k, batch_size=batch_size)

    # -- incremental updates --------------------------------------------------

    def apply_updates(self, events, duplicates: str | None = None,
                      ) -> FleetUpdateReport:
        """Route ``(user_label, item_label, rating)`` events to their shards.

        **Component plans** route order-independently: the batch's events
        form a label graph, and every connected group of labels lands on
        one shard wherever its events sit in the batch (union-find over
        the batch, mirroring the component semantics the tier is built
        on). A group resolves to:

        1. the single shard its known labels live in → that shard
           (brand-new labels in the group register there too);
        2. two *different* known shards → the batch would merge components
           across shard boundaries; raises
           :class:`~repro.exceptions.ConfigError` naming the offending
           edge and hinting the edge-cut partitioner;
        3. no known label at all → the least-loaded shard (fewest ratings,
           ties to the lowest id).

        **Edge-cut (halo) plans** route per event: an event whose two
        endpoints are co-located in at least one shard is applied to
        *every* shard holding both (owner and ghost replicas alike — a
        co-located apply keeps the frozen degree deficit exact, so those
        shards stay degree-true). An event introducing a new label lands
        on the known endpoint's owner shard; replicas that hold only one
        endpoint cannot see the new edge and their ghost copies go stale
        within the documented error bound — counted in
        ``FleetUpdateReport.stale_ghost_events`` with a re-plan ``hint``.
        An edge between two known labels co-located *nowhere* exceeds
        what the halo covers and raises :class:`ConfigError`.

        Every touched shard validates its slice first (rating values and
        scale, the ``duplicates`` policy), so a bad event rejects the
        batch with the fleet untouched; a down process-fleet shard raises
        :class:`~repro.exceptions.ShardUnavailableError` at this stage.
        Each touched shard then absorbs its slice through
        :meth:`ServingEngine.apply_updates` (targeted invalidation, model
        version bump); untouched shards keep serving fully warm.
        """
        events = list(events)
        report = FleetUpdateReport(n_events=len(events))
        if not events:
            return report
        with Timer() as timer:
            with self._update_lock:
                with self._routing_lock:
                    if self.plan.has_halos:
                        routed, stale = self._route_events_halo_locked(events)
                    else:
                        routed = self._route_events_component_locked(events)
                        stale = 0
                touched = [shard for shard in range(self.n_shards)
                           if routed[shard]]
                # Shards apply one after another, so without this pre-pass a
                # bad event for shard 2 would leave shards 0–1 updated —
                # neither applied nor rejected, and a retry would
                # double-apply.
                for shard in touched:
                    self._call(shard, "validate_events", {
                        "events": routed[shard],
                        "duplicates": duplicates,
                    })
                for shard in touched:
                    response = self._call(shard, "apply_updates", {
                        "events": routed[shard],
                        "duplicates": duplicates,
                    })
                    report.per_shard.append((shard, response["report"]))
                # One row-cache eviction pass for the whole batch, after every
                # touched shard has applied (all model versions already
                # bumped, so serve_cohort's version-gated insert cannot
                # re-admit a pre-update row behind this sweep).
                report.fleet_rows_evicted = self._evict_shard_rows(touched)
                if stale:
                    report.stale_ghost_events = stale
                    report.hint = (
                        f"{stale} event(s) could not reach every halo "
                        "replica of their endpoints; the untouched ghost "
                        "copies drift within the documented bound — "
                        f"{EDGE_CUT_HINT}"
                    )
        report.seconds = timer.elapsed
        return report

    def _route_events_component_locked(self, events) -> list[list]:
        """Union-find routing for component plans (see :meth:`apply_updates`)."""
        # Union-find over the batch's labels, namespaced "u"/"i" — a
        # user and an item may legitimately share an external label.
        parent: dict = {}

        def find(key):
            root = key
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(key, key) != key:  # path compression
                parent[key], key = root, parent[key]
            return root

        for event in events:
            user_root = find(("u", event[0]))
            item_root = find(("i", event[1]))
            if user_root != item_root:
                parent[item_root] = user_root
        group_shard: dict = {}
        group_label: dict = {}
        for kind, position, lookup in (
                ("u", 0, self._user_shard_by_label),
                ("i", 1, self._item_shard_by_label)):
            for event in events:
                label = event[position]
                known = lookup.get(label)
                if known is None:
                    continue
                root = find((kind, label))
                owner = group_shard.setdefault(root, known)
                group_label.setdefault(root, label)
                if owner != known:
                    raise ConfigError(
                        self._cross_shard_message_locked(
                            events, group_label[root], owner, label, known
                        )
                    )
        routed: list[list] = [[] for _ in range(self.n_shards)]
        loads = [self._shard_ratings(shard) for shard in range(self.n_shards)]
        for event in events:
            root = find(("u", event[0]))
            shard = group_shard.get(root)
            if shard is None:  # every label in the group is brand-new
                shard = int(np.argmin(loads))
                group_shard[root] = shard
            loads[shard] += 1
            routed[shard].append(event)
        return routed

    def _cross_shard_message_locked(self, events, label_a, shard_a, label_b,
                                    shard_b) -> str:
        """Name the offending cross-shard edge as concretely as possible.

        Prefers an actual event from the batch whose two endpoints live in
        different shards (the direct cut edge); falls back to the two
        conflicting group labels when the link is transitive through
        brand-new labels.
        """
        for user_label, item_label, _ in events:
            user_owner = self._user_shard_by_label.get(user_label)
            item_owner = self._item_shard_by_label.get(item_label)
            if (user_owner is not None and item_owner is not None
                    and user_owner != item_owner):
                return (
                    f"update event (user={user_label!r}, "
                    f"item={item_label!r}) is a cross-shard edge: the user "
                    f"lives in shard {user_owner}, the item in shard "
                    f"{item_owner}; a component-sharded tier cannot apply "
                    f"it — {EDGE_CUT_HINT}"
                )
        return (
            f"update batch links {label_a!r} (shard {shard_a}) with "
            f"{label_b!r} (shard {shard_b}) through new labels; "
            "cross-shard edges cannot be applied to a component-sharded "
            f"tier — {EDGE_CUT_HINT}"
        )

    def _route_events_halo_locked(self, events) -> tuple[list[list], int]:
        """Per-event replica routing for edge-cut plans.

        Returns ``(routed, stale)`` where ``routed[shard]`` is the
        shard's event slice (one event may appear in several shards) and
        ``stale`` counts events some replica of whose endpoints could not
        be updated. ``pending_*`` track labels registered earlier in this
        batch so later events in the same batch route consistently.
        """
        routed: list[list] = [[] for _ in range(self.n_shards)]
        loads = [self._shard_ratings(shard) for shard in range(self.n_shards)]
        pending_users: dict = {}
        pending_items: dict = {}
        stale = 0
        for event in events:
            user_label, item_label = event[0], event[1]
            user_shards = self._shards_with_locked(
                user_label, "user", pending_users)
            item_shards = self._shards_with_locked(
                item_label, "item", pending_items)
            if user_shards and item_shards:
                both = sorted(user_shards & item_shards)
                if not both:
                    user_owner = self._user_shard_by_label.get(
                        user_label, pending_users.get(user_label))
                    item_owner = self._item_shard_by_label.get(
                        item_label, pending_items.get(item_label))
                    raise ConfigError(
                        f"update event (user={user_label!r}, "
                        f"item={item_label!r}) joins shard {user_owner} to "
                        f"shard {item_owner} but no shard holds both "
                        "endpoints — the edge exceeds the plan's "
                        f"{self.plan.halo_hops}-hop halo; {EDGE_CUT_HINT}"
                    )
                for shard in both:
                    routed[shard].append(event)
                    loads[shard] += 1
                if (user_shards | item_shards) - set(both):
                    stale += 1
            elif user_shards or item_shards:
                # One endpoint is brand-new: register it on the known
                # endpoint's owner shard (the authoritative copy).
                if user_shards:
                    owner = self._user_shard_by_label.get(
                        user_label, pending_users.get(user_label))
                    pending_items[item_label] = owner
                    replicas = user_shards
                else:
                    owner = self._item_shard_by_label.get(
                        item_label, pending_items.get(item_label))
                    pending_users[user_label] = owner
                    replicas = item_shards
                routed[owner].append(event)
                loads[owner] += 1
                if replicas - {owner}:
                    stale += 1
            else:
                shard = int(np.argmin(loads))
                routed[shard].append(event)
                loads[shard] += 1
                pending_users[user_label] = shard
                pending_items[item_label] = shard
        return routed, stale

    def _shards_with_locked(self, label, axis: str, pending: dict) -> set:
        """Every shard whose dataset holds ``label`` (owned or ghost),
        plus a registration pending earlier in the current batch."""
        lookup = (self._user_label_shards if axis == "user"
                  else self._item_label_shards)
        shards = set(lookup.get(label, ()))
        if label in pending:
            shards.add(pending[label])
        return shards

    def _evict_shard_rows(self, shards) -> int:
        """Drop the fleet row cache's entries for the given shards' users.

        A conservative superset of the update's affected users (the shard
        engines evict precisely; the fleet layer only knows the shards) —
        over-eviction costs a re-route, never a stale row. Takes the whole
        touched-shard set at once so an update batch pays a single scan of
        the cache, under a single lock acquisition.
        """
        touched = set(int(s) for s in shards)
        if not touched:
            return 0
        with self._routing_lock:
            user_shard = self._user_shard
        with self._lock:
            stale = [key for key in self._rows
                     if int(user_shard[key[0]]) in touched]
            for key in stale:
                del self._rows[key]
            return len(stale)

    # -- lifecycle / introspection -------------------------------------------

    def invalidate_user(self, user: int) -> int:
        """Evict one global user's rows from the fleet row cache and from
        the owning shard's result cache; returns the shard entries dropped."""
        self._check_user(user)
        with self._routing_lock:
            shard = int(self._user_shard[user])
            local = int(self._user_local[user])
        with self._lock:
            stale = [key for key in self._rows if key[0] == int(user)]
            for key in stale:
                del self._rows[key]
        return self._call(shard, "invalidate_user", {"user": local})

    def clear_caches(self) -> None:
        """Drop the fleet row cache and both cache layers on every live
        shard."""
        with self._lock:
            self._rows.clear()
            self.row_cache_hits = 0
            self.row_cache_misses = 0
        for shard in range(self.n_shards):
            try:
                self._call(shard, "clear_caches", {})
            except ShardUnavailableError:
                continue

    def stats(self) -> dict:
        """Fleet shape and row-cache counters plus each shard's own stats
        (``{"state": "down"}`` for a down process-fleet shard)."""
        with self._lock:
            fleet = {
                "n_shards": self.n_shards,
                "n_users": self.n_users,
                "n_items": self.n_items,
                "row_entries": len(self._rows),
                "row_hits": self.row_cache_hits,
                "row_misses": self.row_cache_misses,
            }
        shards = []
        for shard in range(self.n_shards):
            try:
                shard_stats = self._call(shard, "stats", {})
            except ShardUnavailableError:
                shard_stats = {"state": "down"}
            shards.append({"shard": shard, **shard_stats})
        fleet["shards"] = shards
        return fleet


class ShardedEngine(ShardRouter):
    """A fleet of per-shard :class:`ServingEngine`\\ s behind one front.

    The single engine's surface, with every request routed to the owning
    shard by :class:`ShardRouter`. Global user/item indices are the
    *original dataset's*; users and items registered later by updates are
    appended to the global space in shard order. External labels are the
    stable identity across the fleet. Rows are shared across repeated
    serves; treat reports as read-only. Every request to a shard engine
    runs under that shard's lock (``shard.lock``), so an update never
    lands on an engine while a reader is solving on it; different shards
    still serve in parallel.

    Parameters
    ----------
    plan:
        The :class:`ShardPlan` the engines were fitted from.
    engines:
        One fitted :class:`ServingEngine` per shard, aligned with the
        plan's shard ids. Engines whose datasets have grown beyond the
        plan (updated artifacts) are absorbed: the extra labels join the
        global index space.
    result_cache_size:
        Bound on the fleet row cache (entries are per-user ranked lists,
        LRU-evicted beyond it); ``0`` disables it and every cohort request
        goes through its shard engine (whose own caches still apply).

    Build with :meth:`fit` (plan → per-shard fit) or
    :meth:`from_directory` (per-shard artifacts written by :meth:`save` or
    ``repro.cli shard-fit``).
    """

    def __init__(self, plan: ShardPlan, engines,
                 result_cache_size: int = 65536):
        engines = list(engines)
        self._require_plan(plan, len(engines), "engines")
        for shard, engine in enumerate(engines):
            if not isinstance(engine, ServingEngine):
                raise ConfigError(
                    f"engine {shard} is {type(engine).__name__}; "
                    "expected ServingEngine"
                )
        self.engines = engines
        # Created before the router so lock instrumentation sees them.
        self._shard_locks = [threading.Lock() for _ in engines]
        super().__init__(plan, [_hello(engine) for engine in engines],
                         result_cache_size)

    # -- construction --------------------------------------------------------

    @classmethod
    def fit(cls, dataset: RatingDataset, recommender_factory,
            n_shards: int | None = None, plan: ShardPlan | None = None,
            **engine_kwargs) -> "ShardedEngine":
        """Plan (unless given), fit one recommender per shard, wrap engines.

        ``recommender_factory`` is a zero-argument callable returning a
        fresh unfitted :class:`~repro.core.base.Recommender` (each shard
        gets its own instance); ``engine_kwargs`` are forwarded to every
        per-shard :class:`ServingEngine` (cache sizes, update policy).
        """
        if plan is None:
            if n_shards is None:
                raise ConfigError("ShardedEngine.fit needs n_shards or a plan")
            plan = ShardPlan.build(dataset, n_shards)
        engines = []
        for shard in range(plan.n_shards):
            recommender = recommender_factory()
            if not isinstance(recommender, Recommender):
                raise ConfigError(
                    "recommender_factory must return a Recommender; got "
                    f"{type(recommender).__name__}"
                )
            recommender.fit(plan.shard_dataset(dataset, shard))
            engines.append(ServingEngine(recommender, **engine_kwargs))
        return cls(plan, engines)

    @classmethod
    def from_directory(cls, path: str, **engine_kwargs) -> "ShardedEngine":
        """Boot a fleet from a directory written by :meth:`save`.

        Expects ``plan.npz`` plus one ``shard-NNN.npz`` model artifact per
        shard (loaded through :func:`repro.core.artifacts.load_artifact`
        via :meth:`ServingEngine.from_artifact` — no refitting).
        ``engine_kwargs`` reach every shard's
        :meth:`ServingEngine.from_artifact`; pass ``mmap=True`` to
        memory-map all shard artifacts instead of materialising them.
        """
        plan, paths = _read_shard_dir(path)
        return cls(plan, [ServingEngine.from_artifact(p, **engine_kwargs)
                          for p in paths])

    def save(self, path: str) -> str:
        """Write ``plan.npz`` + per-shard model artifacts into ``path``.

        Reload with :meth:`from_directory`. Saving after updates persists
        the grown shard datasets; on reload, post-update users/items rejoin
        the global index space in shard order (their *labels* — the stable
        identity — are unchanged).
        """
        os.makedirs(path, exist_ok=True)
        self.plan.save(os.path.join(path, _PLAN_FILENAME))
        for shard, engine in enumerate(self.engines):
            engine.recommender.save(
                os.path.join(path, _shard_artifact_name(shard))
            )
        return path

    # -- shard backend -------------------------------------------------------

    def _call(self, shard: int, method: str, payload: dict):
        engine = self.engines[shard]
        with self._shard_locks[shard]:
            result = _worker_handle(engine, method, payload)
            if method == "apply_updates":
                dataset = engine.dataset
                self._absorb_new_labels(shard, dataset.user_labels,
                                        dataset.item_labels)
        return result

    def _shard_version(self, shard: int) -> int:
        return self.engines[shard].model_version

    def _shard_ratings(self, shard: int) -> int:
        return self.engines[shard].dataset.n_ratings

    # -- lifecycle / introspection -------------------------------------------

    def health(self) -> dict:
        """Per-shard health, in the shape the HTTP ``/health`` probe serves.

        In-process shards share the front's fate — they cannot be
        individually down — so the status is always ``"ok"``; the
        multi-process :class:`~repro.service.fleet.ProcessShardFleet`
        implements the same hook with real up/down/restart state, and
        :class:`~repro.service.server.HttpFrontend` answers 503 whenever
        the hook reports anything but ``"ok"``.
        """
        return {
            "status": "ok",
            "shards": [
                {"shard": shard, "state": "up",
                 "model_version": engine.model_version}
                for shard, engine in enumerate(self.engines)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(n_shards={self.n_shards}, n_users={self.n_users}, "
            f"n_items={self.n_items})"
        )
