"""Prepared walk operators: the zero-revalidation solver core.

:class:`WalkOperator` is the one entry point of the absorbing-walk solve
(Absorbing Time/Cost, Algorithm 1's τ-sweep, the exact sparse solve). It
validates its transition matrix once, at construction — an O(nnz) scan
that would be pure waste per call on the warm serving path, where the
matrix came out of our own :class:`~repro.graph.cache.TransitionCache` and
was row-normalized at build time — and owns every other
request-independent structure of the solve:

* the CSR transition matrix, validated **exactly once**, plus a lazily
  materialized float32 copy for the bandwidth-halved serving mode;
* connected-component labels for O(n) label-indexed reachability lookups
  (replacing per-query ``np.isin`` sorts);
* memoized per-cost-model local cost vectors;
* an LRU of *solve plans* (pin coordinates) plus a per-set reachability
  column memo, so a repeated cohort re-derives nothing;
* chunked multi-RHS sweeps through a single pair of ping-pong buffers,
  bounding dense memory at ``2 × n_nodes × chunk_size`` floats regardless
  of cohort size;
* an LRU of ``splu`` factorizations (one per absorbing set) for the exact
  mode.

:class:`~repro.graph.cache.TransitionCache` hands out prepared operators;
:class:`~repro.core.graph_base.RandomWalkRecommender` consumes them.
Callers outside the serving path build one with ``WalkOperator(P)`` and
call :meth:`~WalkOperator.solve`, :meth:`~WalkOperator.solve_multi` or
:meth:`~WalkOperator.solve_exact`.
"""

from repro.solver.operator import SOLVE_DTYPES, WalkOperator

__all__ = ["SOLVE_DTYPES", "WalkOperator"]
