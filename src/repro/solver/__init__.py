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
* a per-set reachability column memo, which hits across cohorts that
  share a set (or, with labels, a component);
* chunked multi-RHS sweeps, one loop over row blocks, in the precision
  (``dtype``) and chunk width (``chunk_size``) each solve asks for. An
  operator built with a ``user_mask`` is bipartite (users first, then
  items, no same-kind edge — checked at construction): its sweep
  alternates item and user half-sweeps in place in one
  ``n_nodes × chunk_size`` buffer and its solves return the item rows
  only. Without a mask the sweep covers every
  row, ping-ponging between two such buffers. A one-column sweep (a lone
  query) runs on scipy's single-vector ``csr_matvec``, as ``P @ x`` does,
  and a wider one on ``csr_matvecs``; both accumulate each row in its
  nonzero order, so the kernel never changes a score;
* an LRU of ``splu`` factorizations (one per absorbing set) for the exact
  mode;
* a leaf lock over those memos and the counters, since cached operators
  are shared by every serving thread.

:class:`~repro.graph.cache.TransitionCache` hands out prepared operators;
:class:`~repro.core.graph_base.RandomWalkRecommender` consumes them.
Callers outside the serving path build one with ``WalkOperator(P)`` and
call :meth:`~WalkOperator.solve`, :meth:`~WalkOperator.solve_multi` or
:meth:`~WalkOperator.solve_exact`.
"""

from repro.solver.operator import SOLVE_DTYPES, WalkOperator

__all__ = ["SOLVE_DTYPES", "WalkOperator"]
