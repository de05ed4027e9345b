"""Top-k selection helpers with deterministic tie-breaking.

Recommendation quality metrics are sensitive to tie handling (many graph
scores tie exactly on small graphs), so all rankings in the library go through
these helpers: ties break by ascending index, making every experiment
deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError

__all__ = ["top_k_indices", "bottom_k_indices", "rank_of"]


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, best first, ties by lowest index.

    ``NaN`` scores are treated as -inf (never selected ahead of real scores).
    ``k`` larger than the array returns a full ranking.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if k <= 0:
        raise ConfigError(f"k must be > 0; got {k}")
    k = min(int(k), scores.size)
    clean = np.where(np.isnan(scores), -np.inf, scores)
    candidates = np.arange(clean.size)
    if k < clean.size:
        # Linear-time preselection: every index scoring at least the k-th
        # largest value, so all ties at that value stay in the running.
        kth = np.partition(clean, clean.size - k)[clean.size - k]
        candidates = np.flatnonzero(clean >= kth)
    # lexsort: primary key descending score, secondary ascending index.
    order = np.lexsort((candidates, -clean[candidates]))
    return candidates[order[:k]]


def bottom_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest scores (used for time/cost rankings)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    clean = np.where(np.isnan(scores), np.inf, scores)
    return top_k_indices(-clean, k)


def rank_of(scores: np.ndarray, index: int) -> int:
    """Zero-based rank of ``index`` when sorting scores descending.

    Ties are broken by ascending index, consistently with
    :func:`top_k_indices`; used by the Recall@N protocol to find where the
    held-out item lands among the 1001 candidates.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not 0 <= index < scores.size:
        raise ConfigError(f"index {index} out of range for {scores.size} scores")
    clean = np.where(np.isnan(scores), -np.inf, scores)
    target = clean[index]
    higher = int(np.sum(clean > target))
    tied_before = int(np.sum((clean == target) & (np.arange(clean.size) < index)))
    return higher + tied_before
