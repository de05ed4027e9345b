"""The central rating-data container used by every recommender and substrate.

A :class:`RatingDataset` wraps a sparse user×item rating matrix together with
the external user/item identifiers, and exposes the statistics the paper's
algorithms and experiments need (per-item popularity, per-user activity,
density, rated-item sets).

The rating convention follows the paper (§3.1): a stored value ``w(u, i) > 0``
is the strength of the user-item relation (a 1–5 star rating); absence of an
entry means "not rated". Zero ratings are therefore not representable and are
rejected at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DataError, UnknownItemError, UnknownUserError
from repro.utils.validation import (
    as_index_array,
    check_in_options,
    check_rating_matrix,
    is_index,
)

__all__ = ["RatingDataset", "DatasetDelta", "labels_to_json", "labels_from_json"]


def labels_to_json(labels: Sequence[Hashable]) -> np.ndarray:
    """Encode user/item labels as a 0-d JSON-string array for ``.npz`` files.

    JSON instead of pickled object arrays keeps persisted files loadable
    with ``allow_pickle=False`` — a foreign artifact can fail validation but
    can never execute code. Supports the hashable label types JSON can carry
    (str/int/float/bool/None and tuples thereof); anything else raises
    :class:`DataError` at save time.
    """
    try:
        return np.array(json.dumps(list(labels)))
    except (TypeError, ValueError) as exc:
        raise DataError(
            f"labels are not JSON-serializable ({exc}); persistence supports "
            "str/int/float/bool/None and tuples thereof"
        ) from None


def _tuplify(value):
    # Labels are hashable, so any list in the decoded JSON must have been a
    # tuple before encoding; restore it (recursively, for nested tuples).
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def labels_from_json(encoded) -> tuple:
    """Inverse of :func:`labels_to_json`."""
    try:
        decoded = json.loads(str(np.asarray(encoded)[()]))
    except (json.JSONDecodeError, TypeError) as exc:
        raise DataError(f"corrupt label encoding: {exc}") from None
    return tuple(_tuplify(v) for v in decoded)


def _pad_deficit(deficit: np.ndarray | None, count: int) -> np.ndarray | None:
    if deficit is None or deficit.size == count:
        return deficit
    padded = np.zeros(count, dtype=np.float64)
    padded[:deficit.size] = deficit
    return padded


def _check_deficit(deficit, count: int, axis: str) -> np.ndarray | None:
    """Validate a per-user/per-item degree-deficit array (``None`` if zero).

    A deficit records rating mass that exists in some *larger* dataset this
    one was cut out of (see :meth:`RatingDataset.subset` with
    ``track_cut_degrees=True``): entry ``d[v]`` is the summed rating weight of
    ``v``'s edges that were severed by the cut. The graph layer adds it back
    when normalising transition rows, so a halo shard's walk operator divides
    by *global* degrees and boundary rows become substochastic instead of
    redistributing leaked mass (DESIGN.md §12). An all-zero deficit is
    canonicalised to ``None`` so ordinary datasets pay nothing.
    """
    if deficit is None:
        return None
    deficit = np.asarray(deficit, dtype=np.float64).ravel()
    if deficit.size != count:
        raise DataError(
            f"{axis} degree-deficit length {deficit.size} != {axis} count {count}"
        )
    if deficit.size and (not np.all(np.isfinite(deficit)) or deficit.min() < 0):
        raise DataError(f"{axis} degree deficits must be finite and >= 0")
    if not deficit.any():
        return None
    return deficit


def _make_labels(labels, count: int, prefix: str) -> tuple:
    if labels is None:
        return tuple(f"{prefix}{i}" for i in range(count))
    labels = tuple(labels)
    if len(labels) != count:
        raise DataError(
            f"{prefix!r} label count {len(labels)} != matrix dimension {count}"
        )
    if len(set(labels)) != len(labels):
        raise DataError(f"duplicate {prefix} labels")
    return labels


@dataclass(frozen=True)
class DatasetDelta:
    """One applied batch of rating events against a frozen base dataset.

    Produced by :meth:`RatingDataset.extend` — the dataset container stays
    immutable; "mutation" is a pure function from (base, events) to
    (merged dataset, delta). The delta is everything the incremental layers
    downstream need: :meth:`~repro.graph.bipartite.UserItemGraph.apply_delta`
    maintains component labels from the event edges,
    :meth:`~repro.core.base.Recommender.partial_fit` refreshes derived state
    for the touched nodes, and the serving engine evicts exactly the caches
    the events invalidate.

    Attributes
    ----------
    base_n_users, base_n_items, base_n_ratings:
        Shape of the base dataset the delta was built against; consumers
        validate these before applying (a delta must never be applied to a
        dataset other than its base).
    dataset:
        The merged dataset. Existing users/items keep their indices; new
        users/items are appended in first-appearance order of the events.
    users, items, ratings:
        One entry per applied event, in merged indexing. Duplicate
        ``(user, item)`` pairs within one batch are coalesced before they
        reach the delta (policy-dependent, see :meth:`RatingDataset.extend`),
        so the pairs here are unique.
    replaced:
        Boolean per event; ``True`` where the pair already carried a rating
        in the base (a value overwrite — no new graph edge).
    new_user_labels, new_item_labels:
        Labels appended beyond the base dimensions, in index order.
    """

    base_n_users: int
    base_n_items: int
    base_n_ratings: int
    dataset: "RatingDataset"
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    replaced: np.ndarray
    new_user_labels: tuple
    new_item_labels: tuple

    @property
    def n_events(self) -> int:
        return int(self.users.size)

    @property
    def n_new_users(self) -> int:
        return len(self.new_user_labels)

    @property
    def n_new_items(self) -> int:
        return len(self.new_item_labels)

    @property
    def n_replaced(self) -> int:
        return int(self.replaced.sum())

    def touched_users(self) -> np.ndarray:
        """Sorted unique merged user indices carrying an event."""
        return np.unique(self.users)

    def touched_items(self) -> np.ndarray:
        """Sorted unique merged item indices carrying an event."""
        return np.unique(self.items)

    def __repr__(self) -> str:
        return (
            f"DatasetDelta(n_events={self.n_events}, "
            f"n_new_users={self.n_new_users}, n_new_items={self.n_new_items}, "
            f"n_replaced={self.n_replaced})"
        )


class RatingDataset:
    """Immutable container for a user×item rating matrix with id mapping.

    Parameters
    ----------
    matrix:
        ``(n_users, n_items)`` sparse or dense matrix of positive ratings.
    user_labels, item_labels:
        Optional external identifiers (any hashables); default to
        ``"u0".."u{n-1}"`` / ``"i0".."i{m-1}"``.
    rating_scale:
        Inclusive ``(low, high)`` bounds ratings are expected to lie in;
        violations raise :class:`DataError`. Default ``(1, 5)`` per the paper's
        datasets. Pass ``None`` to skip the check (e.g. for weighted graphs
        that are not star ratings).

    Notes
    -----
    The underlying matrix is stored as CSR for fast per-user row access; a CSC
    copy is materialised lazily for per-item column access.
    """

    def __init__(self, matrix, user_labels: Sequence[Hashable] | None = None,
                 item_labels: Sequence[Hashable] | None = None,
                 rating_scale: tuple[float, float] | None = (1.0, 5.0),
                 user_degree_deficit: np.ndarray | None = None,
                 item_degree_deficit: np.ndarray | None = None):
        self._csr = check_rating_matrix(matrix)
        self._user_deficit = _check_deficit(
            user_degree_deficit, self._csr.shape[0], "user")
        self._item_deficit = _check_deficit(
            item_degree_deficit, self._csr.shape[1], "item")
        if rating_scale is not None:
            low, high = float(rating_scale[0]), float(rating_scale[1])
            if not low <= high:
                raise DataError(f"invalid rating scale {rating_scale}")
            if self._csr.nnz and (self._csr.data.min() < low or self._csr.data.max() > high):
                raise DataError(
                    f"ratings outside scale [{low}, {high}]: "
                    f"found range [{self._csr.data.min()}, {self._csr.data.max()}]"
                )
        self.rating_scale = rating_scale
        self._user_labels_cache: tuple | None = _make_labels(
            user_labels, self._csr.shape[0], "u")
        self._item_labels_cache: tuple | None = _make_labels(
            item_labels, self._csr.shape[1], "i")
        self._user_labels_raw = None
        self._item_labels_raw = None
        self._user_index_cache: Mapping[Hashable, int] | None = None
        self._item_index_cache: Mapping[Hashable, int] | None = None
        self._csc: sp.csc_matrix | None = None

    # Labels decode lazily on the trusted load path: a v3 artifact stores
    # them as one JSON string whose parse is O(n) — paying it at load time
    # would make an otherwise O(open) mmap boot linear in the user count.
    # The raw encoded array is stashed and decoded on first label access;
    # index-addressed serving never triggers it.
    @property
    def user_labels(self) -> tuple:
        if self._user_labels_cache is None:
            self._user_labels_cache = labels_from_json(self._user_labels_raw)
            self._user_labels_raw = None
        return self._user_labels_cache

    @property
    def item_labels(self) -> tuple:
        if self._item_labels_cache is None:
            self._item_labels_cache = labels_from_json(self._item_labels_raw)
            self._item_labels_raw = None
        return self._item_labels_cache

    # Label -> index dicts are built on first *label* lookup, not at
    # construction: index-addressed serving (the entire sharded/fleet hot
    # path) never needs them, and building two million-entry dicts at
    # worker boot would dominate an otherwise O(open) mmap load.
    @property
    def _user_index(self) -> Mapping[Hashable, int]:
        if self._user_index_cache is None:
            self._user_index_cache = {
                label: i for i, label in enumerate(self.user_labels)
            }
        return self._user_index_cache

    @property
    def _item_index(self) -> Mapping[Hashable, int]:
        if self._item_index_cache is None:
            self._item_index_cache = {
                label: i for i, label in enumerate(self.item_labels)
            }
        return self._item_index_cache

    # -- construction -----------------------------------------------------

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[Hashable, Hashable, float]],
                     rating_scale: tuple[float, float] | None = (1.0, 5.0),
                     duplicates: str = "error") -> "RatingDataset":
        """Build a dataset from ``(user, item, rating)`` triples.

        Users and items are indexed in first-appearance order. The
        ``duplicates`` policy governs repeated (user, item) pairs —
        ``"error"`` (default) raises :class:`DataError` naming the offending
        user and item labels (silently summing duplicate star ratings would
        corrupt the rating scale), ``"last"`` keeps the latest value (the
        natural semantics for replaying an event log where a user re-rates).
        The same policy is shared by :meth:`extend`.
        """
        check_in_options(duplicates, "duplicates", ("error", "last"))
        users: dict[Hashable, int] = {}
        items: dict[Hashable, int] = {}
        rows, cols, vals = [], [], []
        seen: dict[tuple[int, int], int] = {}
        for user, item, rating in triples:
            u = users.setdefault(user, len(users))
            i = items.setdefault(item, len(items))
            position = seen.get((u, i))
            if position is not None:
                if duplicates == "error":
                    raise DataError(
                        f"duplicate rating for (user={user!r}, item={item!r}); "
                        "pass duplicates='last' to keep the latest value"
                    )
                vals[position] = float(rating)
                continue
            seen[(u, i)] = len(rows)
            rows.append(u)
            cols.append(i)
            vals.append(float(rating))
        if not rows:
            raise DataError("no rating triples supplied")
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(users), len(items))
        )
        return cls(matrix, tuple(users), tuple(items), rating_scale=rating_scale)

    def check_event_rating(self, user: Hashable, item: Hashable,
                           rating) -> float:
        """Validate one event's rating value against this dataset's scale.

        The single definition of "a valid rating event", shared by
        :meth:`extend` and the sharded tier's batch pre-pass
        (:func:`repro.service.sharding.validate_shard_events`) so the two
        layers can never drift on what they accept. Raises :class:`DataError` naming the
        event's labels; returns the rating as ``float``.
        """
        rating = float(rating)
        if not np.isfinite(rating) or rating <= 0:
            raise DataError(
                f"invalid rating {rating!r} for (user={user!r}, item={item!r}); "
                "ratings must be finite and > 0"
            )
        if self.rating_scale is not None and not (
                self.rating_scale[0] <= rating <= self.rating_scale[1]):
            raise DataError(
                f"rating {rating} for (user={user!r}, item={item!r}) outside "
                f"scale [{self.rating_scale[0]}, {self.rating_scale[1]}]"
            )
        return rating

    def extend(self, events: Iterable[tuple[Hashable, Hashable, float]],
               duplicates: str = "error") -> DatasetDelta:
        """Apply a batch of ``(user, item, rating)`` events; return the delta.

        The container stays immutable: this builds the merged dataset and
        wraps it in a :class:`DatasetDelta` describing exactly what changed.
        Unknown user/item labels register new rows/columns appended in
        first-appearance order; known labels address their existing indices.
        The ``duplicates`` policy (shared with :meth:`from_triples`) governs
        pairs already rated in the base *and* pairs repeated within the
        batch: ``"error"`` raises :class:`DataError` naming the labels,
        ``"last"`` keeps the latest value (a re-rate overwrites in place).
        Ratings are validated against the base's ``rating_scale`` up front
        so a bad event fails with its labels, not a matrix-level message.
        """
        check_in_options(duplicates, "duplicates", ("error", "last"))
        user_index: dict[Hashable, int] = dict(self._user_index)
        item_index: dict[Hashable, int] = dict(self._item_index)
        base_csr = self._csr
        # pair -> position in the event arrays; "last" overwrites in place.
        pending: dict[tuple[int, int], int] = {}
        ev_users: list[int] = []
        ev_items: list[int] = []
        ev_ratings: list[float] = []
        ev_replaced: list[bool] = []
        for user, item, rating in events:
            rating = self.check_event_rating(user, item, rating)
            u = user_index.setdefault(user, len(user_index))
            i = item_index.setdefault(item, len(item_index))
            position = pending.get((u, i))
            if position is not None:
                if duplicates == "error":
                    raise DataError(
                        f"duplicate event for (user={user!r}, item={item!r}); "
                        "pass duplicates='last' to keep the latest value"
                    )
                ev_ratings[position] = rating
                continue
            replaced = (
                u < self.n_users and i < self.n_items
                and bool(base_csr[u, i] != 0)
            )
            if replaced and duplicates == "error":
                raise DataError(
                    f"(user={user!r}, item={item!r}) is already rated; "
                    "pass duplicates='last' to overwrite"
                )
            pending[(u, i)] = len(ev_users)
            ev_users.append(u)
            ev_items.append(i)
            ev_ratings.append(rating)
            ev_replaced.append(replaced)

        users = np.asarray(ev_users, dtype=np.int64)
        items = np.asarray(ev_items, dtype=np.int64)
        ratings = np.asarray(ev_ratings, dtype=np.float64)
        replaced = np.asarray(ev_replaced, dtype=bool)
        shape = (len(user_index), len(item_index))

        old = base_csr.tocoo()
        old_rows, old_cols, old_vals = old.row, old.col, old.data
        if replaced.any():
            # Drop the overwritten base entries so the COO build stays
            # duplicate-free (the CSR constructor would *sum* collisions).
            keys = old_rows.astype(np.int64) * shape[1] + old_cols
            dropped = users[replaced] * shape[1] + items[replaced]
            keep = ~np.isin(keys, dropped)
            old_rows, old_cols, old_vals = old_rows[keep], old_cols[keep], old_vals[keep]
        matrix = sp.csr_matrix(
            (np.concatenate([old_vals, ratings]),
             (np.concatenate([old_rows.astype(np.int64), users]),
              np.concatenate([old_cols.astype(np.int64), items]))),
            shape=shape,
        )
        # A halo shard keeps its frozen deficit across updates: an event that
        # lands inside the shard raises the local row sum while the deficit is
        # unchanged, so local + deficit still equals the new global degree.
        # New rows/columns appended by the batch have no cut edges (zeros).
        user_deficit = _pad_deficit(self._user_deficit, shape[0])
        item_deficit = _pad_deficit(self._item_deficit, shape[1])
        merged = RatingDataset(
            matrix, tuple(user_index), tuple(item_index),
            rating_scale=self.rating_scale,
            user_degree_deficit=user_deficit,
            item_degree_deficit=item_deficit,
        )
        return DatasetDelta(
            base_n_users=self.n_users,
            base_n_items=self.n_items,
            base_n_ratings=self.n_ratings,
            dataset=merged,
            users=users,
            items=items,
            ratings=ratings,
            replaced=replaced,
            new_user_labels=tuple(merged.user_labels[self.n_users:]),
            new_item_labels=tuple(merged.item_labels[self.n_items:]),
        )

    # -- basic shape ------------------------------------------------------

    @property
    def matrix(self) -> sp.csr_matrix:
        """The user×item CSR rating matrix (do not mutate)."""
        return self._csr

    @property
    def n_users(self) -> int:
        return self._csr.shape[0]

    @property
    def n_items(self) -> int:
        return self._csr.shape[1]

    @property
    def n_ratings(self) -> int:
        return self._csr.nnz

    @property
    def user_degree_deficit(self) -> np.ndarray | None:
        """Per-user cut rating mass (``None`` when this is not a halo cut)."""
        return self._user_deficit

    @property
    def item_degree_deficit(self) -> np.ndarray | None:
        """Per-item cut rating mass (``None`` when this is not a halo cut)."""
        return self._item_deficit

    @property
    def has_degree_deficit(self) -> bool:
        """Whether any node carries cut-edge mass (degree-true halo mode)."""
        return self._user_deficit is not None or self._item_deficit is not None

    @property
    def density(self) -> float:
        """Fraction of filled cells (the paper reports 4.26% / 0.039%)."""
        return self.n_ratings / (self.n_users * self.n_items)

    def __repr__(self) -> str:
        return (
            f"RatingDataset(n_users={self.n_users}, n_items={self.n_items}, "
            f"n_ratings={self.n_ratings}, density={self.density:.4%})"
        )

    # -- id mapping --------------------------------------------------------

    def user_id(self, label: Hashable) -> int:
        """Internal index of a user label."""
        try:
            return self._user_index[label]
        except KeyError:
            raise UnknownUserError(label) from None

    def item_id(self, label: Hashable) -> int:
        """Internal index of an item label."""
        try:
            return self._item_index[label]
        except KeyError:
            raise UnknownItemError(label) from None

    # -- per-user / per-item views ------------------------------------------

    def _csc_matrix(self) -> sp.csc_matrix:
        if self._csc is None:
            self._csc = self._csr.tocsc()
        return self._csc

    def items_of_user(self, user: int) -> np.ndarray:
        """Item indices rated by ``user`` (the paper's set :math:`S_u`)."""
        self._check_user(user)
        return self._csr.indices[self._csr.indptr[user]:self._csr.indptr[user + 1]].astype(np.int64)

    def ratings_of_user(self, user: int) -> np.ndarray:
        """Rating values aligned with :meth:`items_of_user`."""
        self._check_user(user)
        return self._csr.data[self._csr.indptr[user]:self._csr.indptr[user + 1]].copy()

    def users_of_item(self, item: int) -> np.ndarray:
        """User indices who rated ``item``."""
        self._check_item(item)
        csc = self._csc_matrix()
        return csc.indices[csc.indptr[item]:csc.indptr[item + 1]].astype(np.int64)

    def rating(self, user: int, item: int) -> float:
        """The stored rating, or 0.0 when unrated."""
        self._check_user(user)
        self._check_item(item)
        return float(self._csr[user, item])

    # -- aggregate statistics ------------------------------------------------

    def item_popularity(self) -> np.ndarray:
        """Number of ratings per item — the paper's popularity measure (§5.1.3)."""
        return np.asarray((self._csr != 0).sum(axis=0)).ravel().astype(np.int64)

    def item_rating_sum(self) -> np.ndarray:
        """Sum of rating values per item (weighted popularity)."""
        return np.asarray(self._csr.sum(axis=0)).ravel()

    def user_activity(self) -> np.ndarray:
        """Number of ratings per user."""
        return np.diff(self._csr.indptr).astype(np.int64)

    def mean_rating(self) -> float:
        return float(self._csr.data.mean())

    # -- serialization -------------------------------------------------------

    def to_arrays(self) -> dict:
        """Flat dict of numpy arrays fully describing the dataset.

        The inverse of :meth:`from_arrays`; used by the model-artifact layer
        (:mod:`repro.core.artifacts`) to embed the training data in a saved
        artifact so a loaded recommender can serve (exclusions, graph
        reconstruction) without the original data files.
        """
        scale = (np.empty(0, dtype=np.float64) if self.rating_scale is None
                 else np.array([self.rating_scale[0], self.rating_scale[1]],
                               dtype=np.float64))
        arrays = {
            "data": self._csr.data,
            "indices": self._csr.indices,
            "indptr": self._csr.indptr,
            "shape": np.array(self._csr.shape, dtype=np.int64),
            # A still-undecoded raw encoding round-trips verbatim — no
            # decode/re-encode cycle when checkpointing a mapped dataset.
            "user_labels": (np.array(np.asarray(self._user_labels_raw)[()])
                            if self._user_labels_cache is None
                            else labels_to_json(self.user_labels)),
            "item_labels": (np.array(np.asarray(self._item_labels_raw)[()])
                            if self._item_labels_cache is None
                            else labels_to_json(self.item_labels)),
            "rating_scale": scale,
        }
        # Optional keys: only halo-cut shard datasets carry deficits, and
        # readers that predate them ignore unknown npz keys.
        if self._user_deficit is not None:
            arrays["user_degree_deficit"] = self._user_deficit
        if self._item_deficit is not None:
            arrays["item_degree_deficit"] = self._item_deficit
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping,
                    validate: bool = True) -> "RatingDataset":
        """Rebuild a dataset from :meth:`to_arrays` output.

        ``validate=False`` is the trusted fast path for arrays that came
        out of this class's own :meth:`to_arrays` (a versioned artifact —
        validated when it was written): the CSR is wrapped as-is from the
        triplet views and the O(nnz) canonicalisation/range scans and the
        O(n) duplicate-label check are skipped. That keeps a memory-mapped
        artifact load O(open) — a validating load would page every array
        in just to re-prove what ``save`` already proved. Never pass
        untrusted input with ``validate=False``.
        """
        try:
            shape = tuple(int(s) for s in np.asarray(arrays["shape"]).ravel())
            matrix = sp.csr_matrix(
                (np.asarray(arrays["data"], dtype=np.float64),
                 np.asarray(arrays["indices"]), np.asarray(arrays["indptr"])),
                shape=shape,
            )
            scale = np.asarray(arrays["rating_scale"], dtype=np.float64).ravel()
            user_labels_raw = arrays["user_labels"]
            item_labels_raw = arrays["item_labels"]
        except KeyError as exc:
            raise DataError(f"dataset arrays missing key {exc.args[0]!r}") from None
        rating_scale = None if scale.size == 0 else (float(scale[0]), float(scale[1]))
        user_deficit = arrays.get("user_degree_deficit")
        item_deficit = arrays.get("item_degree_deficit")
        if validate:
            return cls(matrix,
                       labels_from_json(user_labels_raw),
                       labels_from_json(item_labels_raw),
                       rating_scale=rating_scale,
                       user_degree_deficit=user_deficit,
                       item_degree_deficit=item_deficit)
        self = object.__new__(cls)
        self._csr = matrix
        self._user_deficit = (
            None if user_deficit is None
            else np.asarray(user_deficit, dtype=np.float64).ravel()
        )
        self._item_deficit = (
            None if item_deficit is None
            else np.asarray(item_deficit, dtype=np.float64).ravel()
        )
        self.rating_scale = rating_scale
        # Defer the O(n) JSON decode to first label access (see the
        # user_labels property) — trusted loads stay O(open).
        self._user_labels_cache = None
        self._item_labels_cache = None
        self._user_labels_raw = user_labels_raw
        self._item_labels_raw = item_labels_raw
        self._user_index_cache = None
        self._item_index_cache = None
        self._csc = None
        return self

    # -- transforms ----------------------------------------------------------

    def without_ratings(self, pairs: Iterable[tuple[int, int]]) -> "RatingDataset":
        """Return a copy with the given (user, item) index pairs removed.

        Used by the evaluation splits to hold out test ratings. Removing a
        pair that is not present raises :class:`DataError` (it would silently
        weaken the test set).
        """
        lil = self._csr.tolil(copy=True)
        for user, item in pairs:
            self._check_user(user)
            self._check_item(item)
            if lil[user, item] == 0:
                raise DataError(f"cannot remove absent rating (user={user}, item={item})")
            lil[user, item] = 0
        return RatingDataset(
            lil.tocsr(), self.user_labels, self.item_labels, rating_scale=self.rating_scale
        )

    def subset_users(self, users: np.ndarray) -> "RatingDataset":
        """Dataset restricted to the given user indices (items unchanged)."""
        return self.subset(users=users)

    def subset(self, users: np.ndarray | None = None,
               items: np.ndarray | None = None,
               track_cut_degrees: bool = False) -> "RatingDataset":
        """Dataset restricted to the given user and/or item indices.

        Labels are preserved (row ``r`` of the result is the user
        ``users[r]`` of this dataset, likewise for item columns), which is
        what lets the sharding layer route by external label and map local
        indices back to the global catalogue. Ratings whose user is kept but
        whose item is dropped (or vice versa) disappear from the result —
        the component shard planner never produces such cuts and guards
        against them separately, while the edge-cut planner *expects* them
        and passes ``track_cut_degrees=True`` so each kept node remembers the
        rating mass its severed edges carried (as a degree deficit, see
        :attr:`user_degree_deficit`). Any deficit this dataset already
        carries is sliced through either way, so cuts compose.
        ``None`` keeps the full axis.
        """
        matrix = self._csr
        user_labels = self.user_labels
        item_labels = self.item_labels
        user_deficit = self._user_deficit
        item_deficit = self._item_deficit
        if users is not None:
            users = as_index_array(users, self.n_users, "users")
            matrix = matrix[users]
            user_labels = tuple(self.user_labels[u] for u in users)
            if user_deficit is not None:
                user_deficit = user_deficit[users]
        if items is not None:
            items = as_index_array(items, self.n_items, "items")
            matrix = matrix[:, items]
            item_labels = tuple(self.item_labels[i] for i in items)
            if item_deficit is not None:
                item_deficit = item_deficit[items]
        if track_cut_degrees:
            full_user_mass = np.asarray(self._csr.sum(axis=1)).ravel()
            full_item_mass = np.asarray(self._csr.sum(axis=0)).ravel()
            kept_user_mass = np.asarray(matrix.sum(axis=1)).ravel()
            kept_item_mass = np.asarray(matrix.sum(axis=0)).ravel()
            cut_user = full_user_mass[users] - kept_user_mass if users is not None \
                else full_user_mass - kept_user_mass
            cut_item = full_item_mass[items] - kept_item_mass if items is not None \
                else full_item_mass - kept_item_mass
            # Tiny negative residue from float summation order is noise.
            cut_user = np.maximum(cut_user, 0.0)
            cut_item = np.maximum(cut_item, 0.0)
            user_deficit = cut_user if user_deficit is None else user_deficit + cut_user
            item_deficit = cut_item if item_deficit is None else item_deficit + cut_item
        return RatingDataset(
            matrix, user_labels, item_labels, rating_scale=self.rating_scale,
            user_degree_deficit=user_deficit, item_degree_deficit=item_deficit,
        )

    # -- internals -------------------------------------------------------------

    def _check_user(self, user: int) -> None:
        if not is_index(user, self.n_users):
            raise UnknownUserError(user)

    def _check_item(self, item: int) -> None:
        if not is_index(item, self.n_items):
            raise UnknownItemError(item)
