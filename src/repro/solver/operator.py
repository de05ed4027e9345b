"""The prepared walk operator: validate once, solve many times.

:class:`WalkOperator` is the mathematical core the paper's recommenders
stand on. **Absorbing Time** ``AT(S|i)`` (Definition 3, Eq. 6) satisfies
the first-step recurrence ``AT(S|i) = 1 + Σ_j p_ij AT(S|j)`` with ``AT = 0``
on ``S``; **Hitting Time** (Definition 1) is the single-node case, and
**Absorbing Cost** (Eq. 8–9) replaces the constant ``1`` by a per-node
expected local cost ``c_i``. :meth:`WalkOperator.solve_exact` solves
``(I − P_TT)·x = c`` directly; :meth:`WalkOperator.solve` and
:meth:`WalkOperator.solve_multi` run Algorithm 1's truncated iteration for
τ sweeps (paper: τ = 15). Nodes that cannot reach ``S`` get ``+inf`` from
every mode, so ranking never recommends them.

The operator is built around one idea: everything that does not depend on
the query — matrix validation, the float32 copy, cost vectors,
component-label reachability, LU factors — is computed at most once per
operator, and the per-query remainder (pin coordinates, reachability
columns) is memoized in a small plan LRU so a repeated cohort re-derives
nothing.

The truncated sweep itself runs as ``Y ← P·X`` through scipy's low-level
``csr_matvecs`` kernel (the same routine scipy's ``@`` dispatches to), which
*accumulates* into a caller-owned buffer. That lets the τ-sweep ping-pong
between two preallocated ``n_nodes × chunk`` buffers instead of allocating a
fresh dense matrix per sweep, and keeps the float64 results bit-identical to
the historical ``x = c + P @ x`` formulation (IEEE addition is commutative,
and CSR mat-mat accumulates each output row in the same nonzero order
regardless of the number of right-hand sides — so chunking never changes a
column either).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import GraphError
from repro.utils.validation import as_index_array, check_in_options, check_positive_int

try:  # scipy's C kernel for Y += A @ X (what `csr @ dense` calls internally)
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - ancient/renamed scipy layouts
    _csr_matvecs = None

__all__ = ["SOLVE_DTYPES", "WalkOperator"]

#: The dtype policies the solver core supports.
SOLVE_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class _SolvePlan:
    """Pin structure of one absorbing-set cohort, memoized by content.

    ``pin_rows``/``pin_cols`` are the flat (node, column) coordinates of
    every absorbing entry (``pin_cols`` ascending, so chunk slicing is a
    ``searchsorted``). Reachability is deliberately *not* stored here — it
    is memoized per set in the operator's column memo, which hits across
    different cohorts containing the same user and costs one boolean
    column per entry instead of an ``(n_nodes, n_sets)`` matrix per plan.
    """

    sets: tuple
    pin_rows: np.ndarray
    pin_cols: np.ndarray


class WalkOperator:
    """A transition matrix prepared for repeated absorbing-walk solves.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P`` (zero rows allowed for isolated nodes).
        Validated here, exactly once; every solve afterwards trusts it.
    labels:
        Optional connected-component id per node. When given, per-set
        reachability is an O(n) label-indexed lookup (valid on symmetric
        graphs, where component membership *is* reachability); when absent
        it falls back to a reversed-edge Dijkstra per absorbing set, which
        is correct for arbitrary transition patterns.
    user_mask, node_entropy:
        Optional per-node structure handed to cost models by
        :meth:`costs_for`; required only when a cost model is used.
    dtype:
        Default solve precision: ``"float64"`` (reference) or ``"float32"``
        (serving mode — halves SpMM bandwidth; top-k parity with float64 is
        asserted in the test suite). Overridable per solve.
    chunk_size:
        Default column budget per multi-RHS chunk; bounds the dense sweep
        memory at ``2 × n_nodes × chunk_size`` floats.
    validate:
        Set False only for matrices this library normalized itself.
    """

    def __init__(self, transition, *, labels: np.ndarray | None = None,
                 user_mask: np.ndarray | None = None,
                 node_entropy: np.ndarray | None = None,
                 dtype: str = "float64", chunk_size: int = 1024,
                 validate: bool = True, plan_cache_size: int = 32,
                 factor_cache_size: int = 8, substochastic: bool = False):
        self.dtype = check_in_options(dtype, "dtype", SOLVE_DTYPES)
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.substochastic = bool(substochastic)
        self.validations = 0
        self.solves = 0
        self.columns_solved = 0
        self.plan_hits = 0
        self.plan_misses = 0
        if validate:
            self.transition = self._validate(transition)
        else:
            self.transition = self._as_csr64(transition)
        # Per-node leaked walk mass (substochastic row shortfall). The
        # τ-sweep charges it the *remaining walk budget* each iteration —
        # pessimistic completion: a walk escaping the halo is billed as if
        # it wandered for every step truncation still allows, so halo
        # values are one-sided overestimates of the full-graph values and
        # an item can only ever be *demoted* by sharding, never promoted.
        # (Zero rows get leak 1, but they are unreachable and masked to
        # inf by every solve path, so the charge is inert.)
        if self.substochastic:
            shortfall = 1.0 - np.asarray(self.transition.sum(axis=1)).ravel()
            self._leak = np.where(shortfall > 1e-12, shortfall, 0.0)
        else:
            self._leak = None
        n = self.transition.shape[0]
        if labels is not None:
            labels = np.asarray(labels).ravel()
            if labels.shape[0] != n:
                raise GraphError(
                    f"labels length {labels.shape[0]} != node count {n}"
                )
        self.labels = labels
        self.user_mask = (None if user_mask is None
                          else np.asarray(user_mask, dtype=bool).ravel())
        self.node_entropy = (None if node_entropy is None
                             else np.asarray(node_entropy, dtype=np.float64).ravel())
        self._transition32: sp.csr_matrix | None = None
        self._unit_costs: np.ndarray | None = None
        self._cost_memo: tuple | None = None  # (cost_model, costs)
        self._plans: OrderedDict[tuple, _SolvePlan] = OrderedDict()
        self._plan_cache_size = check_positive_int(plan_cache_size, "plan_cache_size")
        self._factors: OrderedDict[bytes, object] = OrderedDict()
        self._factor_cache_size = check_positive_int(
            factor_cache_size, "factor_cache_size"
        )
        # Per-set reachability columns, keyed by the set's component labels
        # (labels mode) or the set itself (Dijkstra mode). One n-byte bool
        # column per entry; hits across any cohort containing the set.
        self._reachable_memo: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._reachable_memo_size = 1024

    # -- construction-time validation ----------------------------------------

    @staticmethod
    def _as_csr64(transition) -> sp.csr_matrix:
        if (sp.issparse(transition) and transition.format == "csr"
                and transition.dtype == np.float64):
            return transition
        return sp.csr_matrix(transition, dtype=np.float64)

    def _validate(self, transition) -> sp.csr_matrix:
        p = self._as_csr64(transition)
        self.validations += 1
        if p.shape[0] != p.shape[1]:
            raise GraphError(f"transition matrix must be square; got {p.shape}")
        if p.nnz and (p.data.min() < 0):
            raise GraphError("transition matrix has negative entries")
        sums = np.asarray(p.sum(axis=1)).ravel()
        if self.substochastic:
            # Degree-true halo mode (DESIGN.md §12): boundary rows leak walk
            # mass across the shard cut, so any row sum in [0, 1] is legal —
            # only mass *creation* would corrupt the sweep.
            bad = np.flatnonzero(sums > 1.0 + 1e-6)
            if bad.size:
                raise GraphError(
                    f"{bad.size} rows exceed unit mass in substochastic mode "
                    f"(first offender: row {bad[0]}, sum {sums[bad[0]]:.6f})"
                )
            return p
        bad = np.flatnonzero((sums > 1e-9) & (np.abs(sums - 1.0) > 1e-6))
        if bad.size:
            raise GraphError(
                f"{bad.size} rows are neither zero nor stochastic "
                f"(first offender: row {bad[0]}, sum {sums[bad[0]]:.6f}); "
                "pass substochastic=True for degree-true halo transitions"
            )
        return p

    @property
    def n_nodes(self) -> int:
        return self.transition.shape[0]

    def matrix(self, dtype: str | None = None) -> sp.csr_matrix:
        """The CSR transition matrix in the requested solve dtype.

        The float32 copy (same sparsity pattern, down-cast data) is
        materialized on first use and kept for the operator's lifetime.
        """
        dtype = self.dtype if dtype is None else check_in_options(
            dtype, "dtype", SOLVE_DTYPES
        )
        if dtype == "float64":
            return self.transition
        if self._transition32 is None:
            p = self.transition
            self._transition32 = sp.csr_matrix(
                (p.data.astype(np.float32), p.indices, p.indptr), shape=p.shape
            )
        return self._transition32

    # -- cost vectors ---------------------------------------------------------

    def _check_costs(self, local_costs) -> np.ndarray:
        n = self.n_nodes
        if local_costs is None:
            if self._unit_costs is None:
                self._unit_costs = np.ones(n)
            return self._unit_costs
        c = np.asarray(local_costs, dtype=np.float64).ravel()
        if c.shape[0] != n:
            raise GraphError(f"local_costs length {c.shape[0]} != node count {n}")
        if np.any(~np.isfinite(c)) or np.any(c < 0):
            raise GraphError("local_costs must be finite and non-negative")
        return c

    def costs_for(self, cost_model) -> np.ndarray | None:
        """Memoized local-cost vector for ``cost_model`` (None = unit costs).

        The cost vector depends only on the operator's frozen structures
        (transition, user mask, entropy slice), so one instance of a cost
        model maps to one vector for the operator's lifetime.
        """
        if cost_model is None:
            return None
        if self._cost_memo is not None and self._cost_memo[0] is cost_model:
            return self._cost_memo[1]
        if self.user_mask is None or self.node_entropy is None:
            raise GraphError(
                "cost models need user_mask and node_entropy; construct the "
                "WalkOperator with both"
            )
        costs = cost_model.local_costs(
            self.transition, self.user_mask, self.node_entropy
        )
        costs = self._check_costs(costs)
        self._cost_memo = (cost_model, costs)
        return costs

    # -- reachability ---------------------------------------------------------

    def _reachable_column(self, absorbing: np.ndarray) -> np.ndarray:
        """Memoized boolean reachability column for one absorbing set.

        With component labels the column depends only on the *labels*
        present in the set — a tiny key space (usually one component per
        query) — and is a label-indexed gather on a miss; without labels
        the key is the set itself and a miss runs a reversed-edge Dijkstra
        (correct for any transition pattern).
        """
        if self.labels is not None:
            labels = self.labels
            present_labels = np.unique(labels[absorbing])
            key = b"l" + present_labels.tobytes()
            column = self._reachable_memo.get(key)
            if column is None:
                n_labels = int(labels.max()) + 1 if labels.size else 0
                present = np.zeros(n_labels, dtype=bool)
                present[present_labels] = True
                column = present[labels]
        else:
            key = b"d" + absorbing.tobytes()
            column = self._reachable_memo.get(key)
            if column is None:
                dist = dijkstra(self.transition.T, indices=absorbing,
                                unweighted=True, min_only=True)
                column = np.isfinite(dist)
        if key in self._reachable_memo:
            self._reachable_memo.move_to_end(key)
        else:
            self._reachable_memo[key] = column
            while len(self._reachable_memo) > self._reachable_memo_size:
                self._reachable_memo.popitem(last=False)
        return column

    def reachable_columns(self, sets: list[np.ndarray]) -> np.ndarray:
        """``(n_nodes, len(sets))`` reachability, one boolean column per set.

        Columns come from the per-set memo (:meth:`_reachable_column`):
        no sorting, no repeated graph traversal.
        """
        n = self.n_nodes
        if not sets:
            return np.zeros((n, 0), dtype=bool)
        out = np.empty((n, len(sets)), dtype=bool)
        for column, absorbing in enumerate(sets):
            out[:, column] = self._reachable_column(absorbing)
        return out

    # -- solve plans ----------------------------------------------------------

    def _plan(self, absorbing_sets: list[np.ndarray]) -> _SolvePlan:
        n = self.n_nodes
        sets = tuple(
            as_index_array(a, n, "absorbing") for a in absorbing_sets
        )
        if any(a.size == 0 for a in sets):
            raise GraphError("absorbing set is empty")
        key = tuple(a.tobytes() for a in sets)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.plan_hits += 1
            return plan
        self.plan_misses += 1
        pin_rows = np.concatenate(sets)
        pin_cols = np.repeat(np.arange(len(sets)), [a.size for a in sets])
        plan = _SolvePlan(sets=sets, pin_rows=pin_rows, pin_cols=pin_cols)
        self._plans[key] = plan
        while len(self._plans) > self._plan_cache_size:
            self._plans.popitem(last=False)
        return plan

    # -- truncated sweeps -----------------------------------------------------

    @staticmethod
    def _spmm_into(p: sp.csr_matrix, x: np.ndarray, y: np.ndarray) -> None:
        """``y ← P @ x`` into the caller's buffer (zero-filled here)."""
        if _csr_matvecs is not None:
            y.fill(0)
            _csr_matvecs(p.shape[0], p.shape[1], x.shape[1],
                         p.indptr, p.indices, p.data, x.ravel(), y.ravel())
        else:  # pragma: no cover - fallback for scipys without the kernel
            y[:] = p @ x

    def _sweep_chunk(self, p: sp.csr_matrix, costs: np.ndarray,
                     n_iterations: int, pin_rows: np.ndarray,
                     pin_cols: np.ndarray, x: np.ndarray,
                     y: np.ndarray,
                     leak_costs: np.ndarray | None = None) -> np.ndarray:
        """Run the τ-sweep for one chunk through the (x, y) ping-pong pair.

        The first sweep of the classical loop computes ``c + P·0`` — its
        result is just the pinned cost column — so the iteration starts
        there and runs ``τ − 1`` SpMMs, bit-identical to τ sweeps from zero.

        ``leak_costs`` (substochastic mode) is the per-node escaped mass
        scaled by the per-step cost bound; sweep ``k`` (computing the
        ``k+1``-step values) adds ``leak_costs · k`` — the upper bound on
        what an escaped walk could still cost with ``k`` budget steps left.
        By induction the chunk's result dominates the full-graph truncated
        values entrywise.
        """
        col = costs[:, None]
        x[:] = col
        x[pin_rows, pin_cols] = 0
        for step in range(1, n_iterations):
            self._spmm_into(p, x, y)
            y += col
            if leak_costs is not None:
                y += leak_costs[:, None] * step
            y[pin_rows, pin_cols] = 0
            x, y = y, x
        return x

    def solve_multi(self, absorbing_sets: list[np.ndarray],
                    n_iterations: int = 15,
                    local_costs: np.ndarray | None = None,
                    dtype: str | None = None,
                    chunk_size: int | None = None) -> np.ndarray:
        """Truncated absorbing values, one column per absorbing set.

        The cohort is processed in chunks of at most ``chunk_size`` columns;
        each chunk's τ sweeps ping-pong between two preallocated buffers that
        are reused across chunks, so peak dense memory is
        ``2 × n_nodes × chunk_size`` solve-dtype floats plus the float64
        output — a 10k-user cohort no longer materializes a fresh
        ``(n_nodes, 10k)`` matrix per sweep.
        """
        n = self.n_nodes
        n_sets = len(absorbing_sets)
        if n_sets == 0:
            return np.zeros((n, 0))
        n_iterations = check_positive_int(n_iterations, "n_iterations")
        chunk = self.chunk_size if chunk_size is None else check_positive_int(
            chunk_size, "chunk_size"
        )
        costs = self._check_costs(local_costs)
        plan = self._plan(absorbing_sets)
        reachable = self.reachable_columns(list(plan.sets))
        dtype = self.dtype if dtype is None else check_in_options(
            dtype, "dtype", SOLVE_DTYPES
        )
        np_dtype = np.float32 if dtype == "float32" else np.float64
        p = self.matrix(dtype)
        solve_costs = costs.astype(np_dtype, copy=False)
        leak_costs = None
        if self._leak is not None and self._leak.any():
            # Pessimistic completion rate: escaped mass billed at the local
            # per-step cost ceiling (exactly 1 for unit-cost AT/HT; the
            # shard-local max is the bound proxy for entropy cost models).
            leak_costs = (self._leak * float(costs.max())).astype(np_dtype)

        out = np.empty((n, n_sets))
        width = min(chunk, n_sets)
        x = np.empty((n, width), dtype=np_dtype)
        y = np.empty((n, width), dtype=np_dtype)
        for lo in range(0, n_sets, width):
            hi = min(lo + width, n_sets)
            m = hi - lo
            # pin_cols is ascending, so each chunk's pins are one slice.
            plo, phi = np.searchsorted(plan.pin_cols, [lo, hi])
            rows = plan.pin_rows[plo:phi]
            cols = plan.pin_cols[plo:phi] - lo
            if m == width:
                xb, yb = x, y
            else:  # final partial chunk: exact-width pair, ravel stays a view
                xb = np.empty((n, m), dtype=np_dtype)
                yb = np.empty((n, m), dtype=np_dtype)
            result = self._sweep_chunk(p, solve_costs, n_iterations,
                                       rows, cols, xb, yb,
                                       leak_costs=leak_costs)
            out[:, lo:hi] = result
        out[~reachable] = np.inf
        out[plan.pin_rows, plan.pin_cols] = 0.0
        self.solves += 1
        self.columns_solved += n_sets
        return out

    def solve(self, absorbing: np.ndarray, n_iterations: int = 15,
              local_costs: np.ndarray | None = None,
              dtype: str | None = None) -> np.ndarray:
        """Truncated absorbing values for a single absorbing set.

        A cohort of one: bit-identical to the matching
        :meth:`solve_multi` column by the CSR accumulation-order argument in
        the module docstring.
        """
        return self.solve_multi([np.atleast_1d(np.asarray(absorbing))],
                                n_iterations, local_costs=local_costs,
                                dtype=dtype)[:, 0]

    # -- exact mode -----------------------------------------------------------

    def solve_exact(self, absorbing: np.ndarray,
                    local_costs: np.ndarray | None = None) -> np.ndarray:
        """Exact expected cost-to-absorption via a cached LU factorization.

        The ``(I − P_TT)`` system depends on the absorbing set, so factors
        are memoized per set in a small LRU — a repeated exact query pays
        one triangular solve, not a fresh factorization.
        """
        n = self.n_nodes
        plan = self._plan([np.atleast_1d(np.asarray(absorbing))])
        absorbing = plan.sets[0]
        costs = self._check_costs(local_costs)
        reachable = self._reachable_column(absorbing)
        values = np.full(n, np.inf)
        values[absorbing] = 0.0
        transient_mask = reachable.copy()
        transient_mask[absorbing] = False
        transient = np.flatnonzero(transient_mask)
        self.solves += 1
        self.columns_solved += 1
        if transient.size == 0:
            return values
        key = absorbing.tobytes()
        factor = self._factors.get(key)
        if factor is None:
            q = self.transition[transient][:, transient].tocsc()
            system = (sp.eye(transient.size, format="csc") - q).tocsc()
            factor = spla.splu(system)
            self._factors[key] = factor
            while len(self._factors) > self._factor_cache_size:
                self._factors.popitem(last=False)
        else:
            self._factors.move_to_end(key)
        values[transient] = np.atleast_1d(factor.solve(costs[transient]))
        return values

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Counters for cache/serving reports."""
        return {
            "validations": self.validations,
            "solves": self.solves,
            "columns_solved": self.columns_solved,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "factors_cached": len(self._factors),
            "dtype": self.dtype,
            "chunk_size": self.chunk_size,
        }

    def __repr__(self) -> str:
        return (
            f"WalkOperator(n_nodes={self.n_nodes}, nnz={self.transition.nnz}, "
            f"dtype={self.dtype!r}, chunk_size={self.chunk_size}, "
            f"validations={self.validations}, solves={self.solves})"
        )
