"""Graph substrate: the bipartite user-item graph, random-walk primitives,
absorbing-chain solvers, BFS subgraph extraction, and related-work proximity
measures."""

from repro.graph.absorbing import (
    exact_absorbing_values,
    iteration_history,
    reachability_mask,
    truncated_absorbing_values,
)
from repro.graph.bipartite import GraphUpdate, UserItemGraph
from repro.graph.cache import TransitionCache, TransitionGroup
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
    "exact_absorbing_values",
    "iteration_history",
    "reachability_mask",
    "truncated_absorbing_values",
    "UserItemGraph",
    "GraphUpdate",
    "TransitionCache",
    "TransitionGroup",
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
