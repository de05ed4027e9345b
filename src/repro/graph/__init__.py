"""Graph substrate: the bipartite user-item graph, random-walk primitives,
the transition cache of prepared walk operators, BFS subgraph extraction,
and related-work proximity measures.

The absorbing-chain solves themselves (exact, τ-truncated, multi-RHS) are
methods of :class:`repro.solver.WalkOperator`.
"""

from repro.graph.bipartite import GraphUpdate, UserItemGraph
from repro.graph.cache import TransitionCache, WalkEntry
from repro.graph.proximity import commute_times, katz_index, personalized_pagerank
from repro.graph.random_walk import (
    monte_carlo_absorbing_time,
    reversibility_gap,
    simulate_walk,
    stationary_distribution,
    transition_matrix,
)
from repro.graph.subgraph import LocalSubgraph, NodeIndex, bfs_subgraph

__all__ = [
    "UserItemGraph",
    "GraphUpdate",
    "TransitionCache",
    "WalkEntry",
    "commute_times",
    "katz_index",
    "personalized_pagerank",
    "monte_carlo_absorbing_time",
    "reversibility_gap",
    "simulate_walk",
    "stationary_distribution",
    "transition_matrix",
    "LocalSubgraph",
    "NodeIndex",
    "bfs_subgraph",
]
