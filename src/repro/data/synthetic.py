"""Synthetic long-tail rating data (the paper's MovieLens / Douban stand-ins).

The paper evaluates on MovieLens-1M and a proprietary Douban crawl; neither is
available in this offline environment, so this module provides a generative
model that reproduces the *structural* properties the algorithms exercise:

* **Long-tail popularity**: item attractiveness follows a Zipf law, so the
  realised rating counts have a Pareto shape (paper Figure 1; ≈66–73% of the
  catalogue carries 20% of ratings — §5.1.2).
* **Latent tastes**: a ground-truth genre tree drives both item categories and
  user preferences. Users draw a Dirichlet genre mixture; *taste-specific*
  users (small concentration) coexist with *generalists* (large
  concentration) — exactly the distinction the entropy-biased Absorbing Cost
  models (§4.2) are designed to exploit.
* **Preference-correlated ratings**: the star value grows with the affinity
  between the user's genre mixture and the item's genre, so held-out 5-star
  long-tail ratings (the Recall@N protocol, §5.2.1) are genuinely "favourite
  niche items".

Because the generator knows the ground truth, experiments that the paper
could only eyeball (topic coherence in Table 1, taste match in Tables 3/6)
become quantitatively checkable here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import RatingDataset
from repro.data.ontology import CategoryTree, ItemOntology
from repro.exceptions import ConfigError
from repro.utils.sampling import truncated_lognormal, zipf_weights
from repro.utils.validation import (
    check_fraction,
    check_positive_float,
    check_positive_int,
    check_random_state,
)

__all__ = [
    "SyntheticConfig",
    "SyntheticData",
    "generate_dataset",
    "federated_dataset",
    "giant_component",
    "movielens_like",
    "douban_like",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the generative model.

    Attributes
    ----------
    n_users, n_items:
        Matrix dimensions.
    n_genres, subgenres_per_genre, leaves_per_subgenre:
        Shape of the ground-truth category tree (genres are the latent topics;
        the two levels below them form the ontology used by Table 3).
    popularity_exponent:
        Zipf exponent of item attractiveness; higher = heavier head.
    target_density:
        Desired fill fraction of the rating matrix; the lognormal
        ratings-per-user distribution is centred so the expected density
        matches (paper: MovieLens 4.26%, Douban 0.039%).
    activity_sigma_log:
        Lognormal sigma of ratings-per-user.
    activity_min, activity_max:
        Hard bounds on ratings-per-user (paper's MovieLens: 20–737).
    specific_user_fraction:
        Fraction of users drawn with the *specific* Dirichlet concentration.
    dirichlet_specific, dirichlet_general:
        Dirichlet concentration for taste-specific vs generalist users.
    popularity_bias:
        Exponent on item attractiveness when users pick what to rate;
        0 = taste only, 1 = strong rich-get-richer.
    affinity_weight:
        Weight of taste affinity (vs popularity) in the star-rating mean.
    rating_noise:
        Std-dev of Gaussian noise added before rounding to 1–5 stars.
    prune_unrated:
        Drop items that received no rating from the final dataset (real
        rating datasets contain, by construction, only items somebody rated;
        keeping ghosts would distort the tail statistics).
    name:
        Human-readable config name used in reports.
    """

    n_users: int = 900
    n_items: int = 700
    n_genres: int = 8
    subgenres_per_genre: int = 3
    leaves_per_subgenre: int = 2
    popularity_exponent: float = 1.0
    target_density: float = 0.042
    activity_sigma_log: float = 0.7
    activity_min: int = 12
    activity_max: int = 350
    specific_user_fraction: float = 0.45
    dirichlet_specific: float = 0.08
    dirichlet_general: float = 1.5
    popularity_bias: float = 1.3
    affinity_weight: float = 0.7
    rating_noise: float = 0.55
    prune_unrated: bool = True
    name: str = "synthetic"

    def __post_init__(self):
        check_positive_int(self.n_users, "n_users")
        check_positive_int(self.n_items, "n_items")
        check_positive_int(self.n_genres, "n_genres")
        check_positive_int(self.subgenres_per_genre, "subgenres_per_genre")
        check_positive_int(self.leaves_per_subgenre, "leaves_per_subgenre")
        check_positive_float(self.popularity_exponent, "popularity_exponent")
        check_fraction(self.target_density, "target_density", inclusive_high=False)
        check_positive_float(self.activity_sigma_log, "activity_sigma_log")
        check_positive_int(self.activity_min, "activity_min")
        check_positive_int(self.activity_max, "activity_max")
        if self.activity_min >= self.activity_max:
            raise ConfigError("activity_min must be < activity_max")
        if self.activity_max > self.n_items:
            raise ConfigError(
                f"activity_max={self.activity_max} exceeds n_items={self.n_items}"
            )
        check_fraction(self.specific_user_fraction, "specific_user_fraction",
                       inclusive_low=True)
        check_positive_float(self.dirichlet_specific, "dirichlet_specific")
        check_positive_float(self.dirichlet_general, "dirichlet_general")
        if self.popularity_bias < 0:
            raise ConfigError("popularity_bias must be >= 0")
        check_fraction(self.affinity_weight, "affinity_weight", inclusive_low=True)
        if self.rating_noise < 0:
            raise ConfigError("rating_noise must be >= 0")

    @property
    def activity_mean_log(self) -> float:
        """Lognormal mu that makes the *mean* activity hit ``target_density``.

        For a lognormal, ``E[x] = exp(mu + sigma^2 / 2)``, so
        ``mu = log(density * n_items) - sigma^2 / 2``.
        """
        mean_activity = max(float(self.activity_min), self.target_density * self.n_items)
        return float(np.log(mean_activity) - self.activity_sigma_log ** 2 / 2.0)

    def scaled(self, factor: float) -> "SyntheticConfig":
        """Return a copy with user/item counts scaled by ``factor``.

        ``target_density`` is preserved (so relative sparsity contrasts
        between configs survive rescaling) and the activity bounds are scaled
        and re-clipped so they stay feasible at small sizes.
        """
        factor = check_positive_float(factor, "factor")
        if factor == 1.0:
            return self
        n_users = max(20, int(round(self.n_users * factor)))
        n_items = max(30, int(round(self.n_items * factor)))
        activity_min = max(3, int(round(self.activity_min * factor)))
        activity_max = int(np.clip(round(self.activity_max * factor),
                                   activity_min + 2, n_items // 2))
        return replace(self, n_users=n_users, n_items=n_items,
                       activity_min=activity_min, activity_max=activity_max)


@dataclass(frozen=True)
class SyntheticData:
    """Everything the generator produces.

    Attributes
    ----------
    dataset:
        The :class:`RatingDataset` (this is what recommenders consume).
    ontology:
        :class:`ItemOntology` binding each item to a leaf category.
    item_genres:
        Ground-truth genre index per item.
    user_topics:
        Ground-truth per-user genre mixture, shape ``(n_users, n_genres)``.
    config:
        The generating configuration.
    """

    dataset: RatingDataset
    ontology: ItemOntology
    item_genres: np.ndarray
    user_topics: np.ndarray
    config: SyntheticConfig = field(repr=False)

    @property
    def n_genres(self) -> int:
        return self.user_topics.shape[1]


def movielens_like(scale: float = 1.0) -> SyntheticConfig:
    """MovieLens-1M-shaped config: denser matrix, moderate tail.

    At scale 1.0: 900 users × 700 items, ≈4.2% density (paper: 4.26%);
    the 20%-of-ratings tail spans roughly ⅔ of the catalogue (paper: ≈66%).
    """
    return SyntheticConfig(name=f"movielens-like(x{scale:g})").scaled(scale)


def douban_like(scale: float = 1.0) -> SyntheticConfig:
    """Douban-shaped config: much sparser matrix, deeper tail, bigger catalogue.

    The real Douban crawl is ~100× sparser than MovieLens; a pure-Python
    reproduction keeps the *direction* of the contrast (≈8× sparser here so
    the graph stays usable at laptop scale) and the heavier head
    (tail catalogue share above the MovieLens-like config; paper reports
    73% vs 66%).
    """
    config = SyntheticConfig(
        n_users=1400,
        n_items=2400,
        n_genres=10,
        popularity_exponent=1.0,
        target_density=0.005,
        activity_sigma_log=0.6,
        activity_min=5,
        activity_max=120,
        specific_user_fraction=0.55,
        popularity_bias=1.0,
        name=f"douban-like(x{scale:g})",
    )
    return config.scaled(scale)


def federated_dataset(n_tenants: int, scale: float = 1.0, seed=0,
                      base: SyntheticConfig | None = None) -> RatingDataset:
    """``n_tenants`` disjoint rating blocks as one catalogue.

    Real multi-tenant deployments (regional catalogues, per-market stores,
    federated recommenders) produce exactly this graph shape: several
    connected components with no cross-tenant edges. The single-block
    generators above yield one giant component — correct for the paper's
    MovieLens/Douban reproductions, useless for exercising anything
    component-parallel — so the sharding tier
    (:class:`~repro.service.sharding.ShardPlan`), its benchmark and the CLI
    ``shard-fit`` path build their workloads here.

    Each tenant is an independent :func:`generate_dataset` draw (seeded
    ``seed + tenant``) of ``base`` (default: a movielens-density block of
    ``400 × scale`` users by ``300 × scale`` items — the federated workload
    of ``tests/service/test_serving_floors.py``'s fleet and update floors);
    labels are prefixed ``t{tenant}:`` and the rating matrix is
    block-diagonal. A custom ``base`` is the scale-1.0 template: ``scale``
    applies to it the same way it applies to the default block.
    """
    n_tenants = check_positive_int(n_tenants, "n_tenants")
    scale = check_positive_float(scale, "scale")
    blocks = []
    user_labels: list = []
    item_labels: list = []
    for tenant in range(n_tenants):
        if base is None:
            n_users = max(int(400 * scale), 30)
            n_items = max(int(300 * scale), 24)
            config = SyntheticConfig(
                n_users=n_users, n_items=n_items,
                n_genres=4, target_density=0.06,
                activity_min=3, activity_max=min(40, n_items - 1),
                name=f"tenant{tenant}",
            )
        else:
            config = replace(base.scaled(scale), name=f"tenant{tenant}")
        dataset = generate_dataset(config, seed=seed + tenant).dataset
        blocks.append(dataset.matrix)
        user_labels.extend(f"t{tenant}:{label}" for label in dataset.user_labels)
        item_labels.extend(f"t{tenant}:{label}" for label in dataset.item_labels)
    return RatingDataset(
        sp.block_diag(blocks, format="csr"), user_labels, item_labels
    )


def giant_component(scale: float = 1.0, seed=0, *,
                    window: float = 0.08,
                    popularity_exponent: float = 0.9,
                    activity_min: int = 6,
                    activity_max: int = 42) -> RatingDataset:
    """One single giant-component power-law dataset for edge-cut sharding.

    :func:`federated_dataset` produces disjoint blocks — the workload the
    component partitioner wants and exactly the workload an *edge-cut*
    partitioner cannot be measured on, because there is nothing to cut.
    This generator builds the opposite: every node in one connected
    component, yet with enough locality that a balanced edge cut with
    small k-hop halos exists (the regime ``ShardPlan.build_edge_cut``
    targets).

    Structure (all draws from ``seed``):

    * Users and items sit on a shared ring: user ``u`` is centred at item
      position ``u * n_items / n_users``. Each user rates only items
      within a ``window`` fraction of the catalogue around its centre
      (wrap-around), so edges are *local*: cutting the ring anywhere
      severs only the ratings that straddle the cut, and a k-hop halo
      reaches at most ``k`` windows past it. There are deliberately no
      global hub items — a hub would drag the whole ring into every
      shard's halo.
    * Within its window a user picks items by Gumbel top-k over Zipf
      attractiveness (rank order shuffled per catalogue), so realised
      item popularity keeps the long-tail shape the rest of the repo
      assumes; ratings-per-user is log-uniform between the activity
      bounds, giving a heavy-tailed activity profile.
    * Deterministic fix-up: every zero-rating item gets one rating from
      the user centred nearest to it, then any stray secondary component
      is linked to the main one the same way, so the result is a single
      connected component for any seed.

    At scale 1.0 the dataset is 2400 users × 1600 items (~4000 graph
    nodes — within the solver's µ=6000 subgraph budget, so unsharded
    reference sweeps stay exact).
    """
    scale = check_positive_float(scale, "scale")
    check_fraction(window, "window", inclusive_high=False)
    check_positive_int(activity_min, "activity_min")
    check_positive_int(activity_max, "activity_max")
    if activity_min >= activity_max:
        raise ConfigError("activity_min must be < activity_max")
    n_users = max(int(round(2400 * scale)), 40)
    n_items = max(int(round(1600 * scale)), 30)
    rng = check_random_state(seed)

    # Window geometry: wide enough to hold the largest activity budget.
    half = max(int(round(window * n_items / 2.0)), 2)
    width = min(2 * half + 1, n_items)
    activity_max = min(activity_max, width - 1)
    activity_min = min(activity_min, activity_max - 1) or 1

    attractiveness = zipf_weights(n_items, popularity_exponent)
    attractiveness = attractiveness[rng.permutation(n_items)]
    log_attr = np.log(attractiveness)

    centers = np.floor(np.arange(n_users) * n_items / n_users).astype(np.int64)
    activity = np.exp(rng.uniform(np.log(activity_min),
                                  np.log(activity_max + 1.0),
                                  size=n_users)).astype(np.int64)
    activity = np.clip(activity, activity_min, activity_max)

    offsets = np.arange(-half, width - half, dtype=np.int64)
    rows, cols, vals = [], [], []
    for user in range(n_users):
        window_items = (centers[user] + offsets) % n_items
        gumbel = rng.gumbel(size=width)
        take = int(activity[user])
        local = np.argpartition(-(log_attr[window_items] + gumbel), take)[:take]
        chosen = window_items[local]
        closeness = 1.0 - np.abs(offsets[local]) / float(half + 1)
        stars = np.rint(1.0 + 4.0 * (0.6 * closeness + 0.4 * rng.random(take)))
        rows.extend([user] * take)
        cols.extend(chosen.tolist())
        vals.extend(np.clip(stars, 1, 5).tolist())

    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n_users, n_items)
    ).tolil()

    # Fix-up 1: no orphan items — nearest-centred user adopts them.
    def nearest_user(item: int, among: np.ndarray) -> int:
        distance = np.abs(centers[among] - item)
        distance = np.minimum(distance, n_items - distance)  # ring metric
        return int(among[np.argmin(distance)])  # argmin ties → lowest user

    all_users = np.arange(n_users, dtype=np.int64)
    item_mass = np.asarray(abs(matrix).sum(axis=0)).ravel()
    for item in np.flatnonzero(item_mass == 0):
        matrix[nearest_user(int(item), all_users), int(item)] = 3.0

    # Fix-up 2: one connected component. Stray components are rare (the
    # windows overlap) but possible at tiny scales; stitch each one onto
    # the component of item 0 by handing its lowest item to the nearest
    # *main-component* user (nearest overall could be a stray neighbour).
    from scipy.sparse.csgraph import connected_components

    adjacency = sp.bmat(
        [[None, abs(matrix.tocsr())], [abs(matrix.tocsr()).T, None]],
        format="csr",
    )
    count, labels = connected_components(adjacency, directed=False)
    if count > 1:
        main = labels[n_users]  # component of item 0
        main_users = np.flatnonzero(labels[:n_users] == main)
        item_labels = labels[n_users:]
        for component in range(count):
            if component == main:
                continue
            stray = np.flatnonzero(item_labels == component)
            if stray.size == 0:  # component of users only: impossible,
                continue         # every user rates >= 1 item
            matrix[nearest_user(int(stray[0]), main_users), int(stray[0])] = 3.0

    return RatingDataset(
        matrix.tocsr(),
        user_labels=tuple(f"user{u}" for u in range(n_users)),
        item_labels=tuple(f"item{i}" for i in range(n_items)),
    )


def _build_tree(config: SyntheticConfig) -> CategoryTree:
    return CategoryTree.build_balanced(
        [config.n_genres, config.subgenres_per_genre, config.leaves_per_subgenre],
        root_name=config.name,
        level_names=["genre", "subgenre", "category"],
    )


def generate_dataset(config: SyntheticConfig, seed=0) -> SyntheticData:
    """Sample a dataset from the generative model.

    The procedure (all draws from ``seed``):

    1. Build the category tree; spread items uniformly over leaf categories;
       an item's *genre* is its top-level ancestor.
    2. Give items Zipf attractiveness (rank order randomised so popularity is
       independent of genre).
    3. For each user, draw a genre mixture θ_u (specific or generalist) and an
       activity budget n_u.
    4. The user rates n_u distinct items sampled ∝ attractiveness^bias ×
       affinity(θ_u, genre(item)) via Gumbel top-k (weighted sampling without
       replacement).
    5. Star value = 1 + 4·(affinity_weight·affinity + (1-w)·uniform) + noise,
       rounded and clipped to 1–5.
    """
    if not isinstance(config, SyntheticConfig):
        raise ConfigError(f"config must be SyntheticConfig; got {type(config).__name__}")
    rng = check_random_state(seed)

    tree = _build_tree(config)
    leaves = tree.leaves()
    n_leaves = leaves.size

    # 1. items → leaf categories (uniform, shuffled), genre = top ancestor.
    item_leaves = leaves[rng.integers(0, n_leaves, size=config.n_items)]
    leaf_to_genre = {}
    genre_nodes = tree.children(0)
    for leaf in leaves:
        top = tree.path(int(leaf))[0]
        leaf_to_genre[int(leaf)] = genre_nodes.index(top)
    item_genres = np.array([leaf_to_genre[int(l)] for l in item_leaves], dtype=np.int64)

    # 2. Zipf attractiveness with randomised rank order.
    attractiveness = zipf_weights(config.n_items, config.popularity_exponent)
    attractiveness = attractiveness[rng.permutation(config.n_items)]

    # 3. user activity, then tastes. Breadth correlates with activity —
    # the empirical regularity behind the paper's item-based entropy
    # (Eq. 10: "the broader a user's tastes are, the more items he/she
    # rates"): light raters are likelier to be taste-specific.
    activity = truncated_lognormal(
        config.n_users, config.activity_mean_log, config.activity_sigma_log,
        config.activity_min, config.activity_max, rng,
    ).astype(np.int64)
    activity_percentile = np.argsort(np.argsort(activity)) / max(config.n_users - 1, 1)
    p_specific = np.clip(
        2.0 * config.specific_user_fraction * (1.0 - activity_percentile), 0.0, 1.0
    )
    is_specific = rng.random(config.n_users) < p_specific
    concentrations = np.where(
        is_specific, config.dirichlet_specific, config.dirichlet_general
    )
    user_topics = np.vstack([
        rng.dirichlet(np.full(config.n_genres, c)) for c in concentrations
    ])

    # 4–5. choices + stars.
    log_attr = config.popularity_bias * np.log(attractiveness)
    rows, cols, vals = [], [], []
    for user in range(config.n_users):
        affinity = user_topics[user, item_genres]          # in [0, 1]
        # Plackett–Luce weights; epsilon keeps off-taste items reachable.
        log_w = log_attr + np.log(affinity + 0.02)
        gumbel = rng.gumbel(size=config.n_items)
        chosen = np.argpartition(-(log_w + gumbel), activity[user])[:activity[user]]

        rel_affinity = affinity[chosen] / max(user_topics[user].max(), 1e-12)
        base = (config.affinity_weight * rel_affinity
                + (1.0 - config.affinity_weight) * rng.random(chosen.size))
        stars = np.rint(1.0 + 4.0 * base + rng.normal(0.0, config.rating_noise,
                                                      size=chosen.size))
        stars = np.clip(stars, 1, 5)
        rows.extend([user] * chosen.size)
        cols.extend(chosen.tolist())
        vals.extend(stars.tolist())

    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(config.n_users, config.n_items)
    )
    if config.prune_unrated:
        rated = np.flatnonzero(np.asarray((matrix != 0).sum(axis=0)).ravel() > 0)
        matrix = sp.csr_matrix(matrix[:, rated])
        item_leaves = item_leaves[rated]
        item_genres = item_genres[rated]
        item_labels = tuple(f"item{i}" for i in rated)
    else:
        item_labels = tuple(f"item{i}" for i in range(config.n_items))
    dataset = RatingDataset(
        matrix,
        user_labels=tuple(f"user{u}" for u in range(config.n_users)),
        item_labels=item_labels,
    )
    ontology = ItemOntology(tree, item_leaves)
    return SyntheticData(
        dataset=dataset,
        ontology=ontology,
        item_genres=item_genres,
        user_topics=user_topics,
        config=config,
    )
