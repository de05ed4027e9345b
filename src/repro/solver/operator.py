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
operator. Of the per-query remainder only the reachability column is
memoized (per absorbing set, which hits across cohorts); pin coordinates
cost about as much to derive as to look up, so every solve derives them.
The memos and counters sit behind one leaf lock, because cached operators
are shared by every thread that serves their group.

**Bipartite half-sweeps.** An operator built with a ``user_mask`` is a
bipartite operator: its local order lists users first, then items, and no
edge joins two nodes of one kind (both checked once, at construction). A
user row of ``P`` then holds only item columns and an item row only user
columns, so the item values after τ sweeps need only the user values after
τ − 1, which need only the item values after τ − 2, and so on down. Every
ranker reads item rows only, so a bipartite sweep alternates half-sweeps —
items at τ, users at τ − 1, items at τ − 2, … — and its solves return the
item rows alone. That halves both the SpMM and the elementwise work, and
each computed value goes through the same arithmetic in the same order as
in the full sweep. An operator without a user mask sweeps all its rows each
step and returns all of them.

The truncated sweep runs one loop over row blocks — the two halves of a
bipartite operator, or all rows as one block — as ``Y[block] ← P[block]·X``
through scipy's low-level kernels, the routines scipy's ``@`` dispatches
to: ``csr_matvec`` when ``X`` is one column (a lone query, or the last
column of a chunked cohort), ``csr_matvecs`` when it is wider. The kernel
*accumulates* into a caller-owned buffer, and a block is a contiguous
``indptr`` slice passed with the full ``indices``/``data``, so nothing is
copied. Values stay bit-identical to the plain ``x = c + P @ x``
formulation: IEEE addition is commutative, and both kernels start each
output row from the zeroed buffer and add ``a·x`` in the row's nonzero
order, whatever the number of right-hand sides — so neither chunking nor
the choice of kernel changes a column.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import GraphError
from repro.utils.validation import as_index_array, check_in_options, check_positive_int

try:  # scipy's C kernels for y += A @ x (what `csr @ dense` calls internally)
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
except ImportError:  # pragma: no cover - ancient/renamed scipy layouts
    _csr_matvecs = None
else:
    def _csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y):
        """``y += A @ x`` for ``n_vecs`` columns, on scipy's kernel for them.

        One column goes to ``csr_matvec``, the routine ``P @ x`` calls for
        an ``(N,)`` or ``(N, 1)`` operand; it runs 2.2–2.8× faster than
        ``csr_matvecs`` at one column. Two or more columns stay on
        ``csr_matvecs``: a column of the row-major sweep buffer is not the
        contiguous vector ``csr_matvec`` reads, and one call per column
        stops paying from three or four columns up. Both kernels add
        ``a·x`` to the output row in its nonzero order, so the result is
        the same bit for bit.
        """
        if n_vecs == 1:
            csr_matvec(n_row, n_col, indptr, indices, data, x, y)
        else:
            csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y)

__all__ = ["SOLVE_DTYPES", "WalkOperator"]

#: The dtype policies the solver core supports.
SOLVE_DTYPES = ("float64", "float32")

#: Bound on the exact mode's memoized ``splu`` factors (one per set).
_FACTOR_CACHE_SIZE = 8


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
    user_mask:
        Optional boolean per node, True at users. It makes the operator
        bipartite: users must form a prefix of the nodes and no edge may
        join two nodes of one kind (:class:`GraphError` otherwise). Its
        sweeps then alternate item and user half-sweeps, and every solve
        returns the item rows only (rows ``n_users:``). Cost models read it
        through :meth:`costs_for`.
    node_entropy:
        Optional per-node entropy handed to cost models by
        :meth:`costs_for`; required only when a cost model is used.
    validate:
        Set False only for matrices this library normalized itself. The
        bipartite check of a ``user_mask`` operator always runs.
    substochastic:
        Accept rows that sum to less than one (degree-true halo
        transitions); the τ-sweep bills the missing mass, see
        :meth:`_sweep_chunk`.

    The solve precision (``dtype``) and the multi-RHS chunk width
    (``chunk_size``) are arguments of each solve.
    """

    def __init__(self, transition, *, labels: np.ndarray | None = None,
                 user_mask: np.ndarray | None = None,
                 node_entropy: np.ndarray | None = None,
                 validate: bool = True, substochastic: bool = False):
        self.substochastic = bool(substochastic)
        # A leaf lock: nothing else is ever acquired while it is held.
        self._lock = threading.Lock()
        self.validations = 0
        self.solves = 0  # guarded-by: operator._lock
        self.columns_solved = 0  # guarded-by: operator._lock
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
        self.user_mask = None
        #: Leading user rows; solves return the rows after them (every row
        #: of an operator without a user mask).
        self.n_users = 0
        # The sweep's row blocks, taken in turn; the last one is returned.
        self._blocks = ((0, n),)
        if user_mask is not None:
            self.user_mask = np.asarray(user_mask, dtype=bool).ravel()
            self.n_users = self._check_bipartite(self.user_mask)
            self._blocks = ((0, self.n_users), (self.n_users, n))
        self.node_entropy = (None if node_entropy is None
                             else np.asarray(node_entropy, dtype=np.float64).ravel())
        # Lazy, idempotent caches: a racing first use builds equal values.
        self._transition32: sp.csr_matrix | None = None
        self._unit_costs: np.ndarray | None = None
        self._cost_memo: tuple | None = None  # (cost_model, costs)
        self._factors: OrderedDict[bytes, object] = OrderedDict()  # guarded-by: operator._lock
        # Per-set reachability columns, keyed by the set's component labels
        # (labels mode) or the set itself (Dijkstra mode). One n-byte bool
        # column per entry; hits across any cohort containing the set.
        self._reachable_memo: OrderedDict[bytes, np.ndarray] = OrderedDict()  # guarded-by: operator._lock
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

    def _check_bipartite(self, user_mask: np.ndarray) -> int:
        """Number of users; GraphError unless users-first and bipartite.

        With users first, bipartiteness is two comparisons over
        ``indices``: user rows (the ``indices`` prefix up to
        ``indptr[n_users]``) hold only item columns, item rows only user
        columns.
        """
        p = self.transition
        n = p.shape[0]
        if user_mask.shape[0] != n:
            raise GraphError(
                f"user_mask length {user_mask.shape[0]} != node count {n}"
            )
        n_users = int(np.count_nonzero(user_mask))
        if not user_mask[:n_users].all():
            raise GraphError(
                "user_mask must mark a prefix of the nodes: order the "
                "operator's nodes users first, then items"
            )
        split = p.indptr[n_users]
        if (p.indices[:split] < n_users).any() or (
                p.indices[split:] >= n_users).any():
            raise GraphError(
                "transition has an edge between two nodes of one kind; a "
                "user_mask operator needs a bipartite graph"
            )
        return n_users

    @property
    def n_nodes(self) -> int:
        return self.transition.shape[0]

    def matrix(self, dtype: str = "float64") -> sp.csr_matrix:
        """The CSR transition matrix in the requested solve dtype.

        The float32 copy (same sparsity pattern, down-cast data) is
        materialized on first use and kept for the operator's lifetime.
        """
        if check_in_options(dtype, "dtype", SOLVE_DTYPES) == "float64":
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
        memo = self._cost_memo  # one read: another thread may rebind it
        if memo is not None and memo[0] is cost_model:
            return memo[1]
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
        (correct for any transition pattern). A miss computes outside the
        lock; racing misses build equal columns and the last one stays.
        """
        labels = self.labels
        if labels is not None:
            present_labels = np.unique(labels[absorbing])
            key = b"l" + present_labels.tobytes()
        else:
            key = b"d" + absorbing.tobytes()
        with self._lock:
            column = self._reachable_memo.get(key)
            if column is not None:
                self._reachable_memo.move_to_end(key)
                return column
        if labels is not None:
            n_labels = int(labels.max()) + 1 if labels.size else 0
            present = np.zeros(n_labels, dtype=bool)
            present[present_labels] = True
            column = present[labels]
        else:
            dist = dijkstra(self.transition.T, indices=absorbing,
                            unweighted=True, min_only=True)
            column = np.isfinite(dist)
        with self._lock:
            self._reachable_memo[key] = column
            while len(self._reachable_memo) > self._reachable_memo_size:
                self._reachable_memo.popitem(last=False)
        return column

    def _reachable_rows(self, sets, start: int) -> np.ndarray:
        """Rows ``start:`` of :meth:`reachable_columns`."""
        out = np.empty((self.n_nodes - start, len(sets)), dtype=bool)
        for column, absorbing in enumerate(sets):
            out[:, column] = self._reachable_column(absorbing)[start:]
        return out

    def reachable_columns(self, sets: list[np.ndarray]) -> np.ndarray:
        """``(n_nodes, len(sets))`` reachability, one boolean column per set.

        Columns come from the per-set memo (:meth:`_reachable_column`):
        no sorting, no repeated graph traversal.
        """
        return self._reachable_rows(sets, 0)

    # -- absorbing sets -------------------------------------------------------

    def _check_sets(self, absorbing_sets) -> list[np.ndarray]:
        """Each set as a validated index array; GraphError if one is empty."""
        sets = [as_index_array(a, self.n_nodes, "absorbing")
                for a in absorbing_sets]
        if any(a.size == 0 for a in sets):
            raise GraphError("absorbing set is empty")
        return sets

    # -- truncated sweeps -----------------------------------------------------

    @staticmethod
    def _spmm_into(p: sp.csr_matrix, lo: int, hi: int, x: np.ndarray,
                   y: np.ndarray) -> None:
        """``y ← P[lo:hi] @ x`` into the caller's buffer (zero-filled here).

        Rows ``lo:hi`` are an ``indptr`` slice over the full
        ``indices``/``data``: no copy of the matrix. :func:`_csr_matvecs`
        runs a one-column ``x`` on ``csr_matvec``, as ``P @ x`` does, and a
        wider one on ``csr_matvecs``; both add each row's terms in its
        nonzero order, so the values are the same bit for bit.
        """
        if _csr_matvecs is not None:
            y.fill(0)
            _csr_matvecs(hi - lo, p.shape[1], x.shape[1], p.indptr[lo:hi + 1],
                         p.indices, p.data, x.ravel(), y.ravel())
        else:  # pragma: no cover - fallback for scipys without the kernel
            y[:] = p[lo:hi] @ x

    def _buffers(self, width: int, np_dtype) -> tuple[np.ndarray, np.ndarray]:
        """A fresh ``(x, y)`` sweep pair of ``n_nodes × width`` floats.

        A block reads only the other blocks' rows, so a bipartite sweep
        writes in place and both names share one buffer; a single block
        reads its own rows and ping-pongs between two.
        """
        x = np.empty((self.n_nodes, width), dtype=np_dtype)
        return x, (x if len(self._blocks) > 1 else np.empty_like(x))

    def _sweep_chunk(self, p: sp.csr_matrix, costs: np.ndarray,
                     n_iterations: int, pin_rows: np.ndarray,
                     pin_cols: np.ndarray, x: np.ndarray,
                     y: np.ndarray,
                     leak_costs: np.ndarray | None = None) -> np.ndarray:
        """Run the τ-sweep for one chunk; returns the last block's rows.

        Step ``t`` computes one row block from the previous step's values,
        and the blocks take turns so that step τ computes the last one:
        with a bipartite operator's halves that is items at τ, users at
        τ − 1, items at τ − 2, …; with one block every step sweeps all rows.

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
        blocks = self._blocks
        col = costs[:, None]
        leak = None if leak_costs is None else leak_costs[:, None]
        pins = []
        for lo, hi in blocks:
            inside = (pin_rows >= lo) & (pin_rows < hi)
            pins.append((pin_rows[inside], pin_cols[inside]))
        turn = (len(blocks) - n_iterations) % len(blocks)
        lo, hi = blocks[turn]
        x[lo:hi] = col[lo:hi]
        x[pins[turn]] = 0
        for step in range(1, n_iterations):
            turn = (turn + 1) % len(blocks)
            lo, hi = blocks[turn]
            block = y[lo:hi]
            self._spmm_into(p, lo, hi, x, block)
            block += col[lo:hi]
            if leak is not None:
                block += leak[lo:hi] * step
            y[pins[turn]] = 0
            x, y = y, x
        lo, hi = blocks[-1]
        return x[lo:hi]

    def solve_multi(self, absorbing_sets: list[np.ndarray],
                    n_iterations: int = 15,
                    local_costs: np.ndarray | None = None,
                    dtype: str = "float64",
                    chunk_size: int = 1024) -> np.ndarray:
        """Truncated absorbing values, one column per absorbing set.

        Returns ``(n_nodes - n_users, len(absorbing_sets))``: the item rows
        of a bipartite operator, every row otherwise. ``dtype`` is the sweep
        precision: ``"float64"`` (reference) or ``"float32"`` (serving mode,
        half the SpMM bandwidth; top-k parity with float64 is asserted in
        the test suite).

        The cohort is processed in chunks of at most ``chunk_size`` columns;
        each chunk's τ sweeps run through buffers allocated once per call
        and reused across its chunks, so peak dense memory is
        ``n_nodes × chunk_size`` solve-dtype floats for a bipartite operator
        (``2 × n_nodes × chunk_size`` otherwise) plus the float64 output —
        a 10k-user cohort no longer materializes a fresh
        ``(n_nodes, 10k)`` matrix per sweep. No buffer outlives the call,
        so threads may share the operator.
        """
        n = self.n_nodes
        n_sets = len(absorbing_sets)
        if n_sets == 0:
            return np.zeros((n - self.n_users, 0))
        n_iterations = check_positive_int(n_iterations, "n_iterations")
        chunk = check_positive_int(chunk_size, "chunk_size")
        costs = self._check_costs(local_costs)
        sets = self._check_sets(absorbing_sets)
        reachable = self._reachable_rows(sets, self.n_users)
        p = self.matrix(dtype)
        np_dtype = np.float32 if dtype == "float32" else np.float64
        solve_costs = costs.astype(np_dtype, copy=False)
        leak_costs = None
        if self._leak is not None and self._leak.any():
            # Pessimistic completion rate: escaped mass billed at the local
            # per-step cost ceiling (exactly 1 for unit-cost AT/HT; the
            # shard-local max is the bound proxy for entropy cost models).
            leak_costs = (self._leak * float(costs.max())).astype(np_dtype)

        # Flat (node, column) coordinates of every absorbing entry;
        # pin_cols is ascending, so each chunk's pins are one slice.
        pin_rows = np.concatenate(sets)
        pin_cols = np.repeat(np.arange(n_sets), [a.size for a in sets])
        out = np.empty((n - self.n_users, n_sets))
        width = min(chunk, n_sets)
        x, y = self._buffers(width, np_dtype)
        for lo in range(0, n_sets, width):
            hi = min(lo + width, n_sets)
            plo, phi = np.searchsorted(pin_cols, [lo, hi])
            rows = pin_rows[plo:phi]
            cols = pin_cols[plo:phi] - lo
            if hi - lo == width:
                xb, yb = x, y
            else:  # final partial chunk: exact-width pair, ravel stays a view
                xb, yb = self._buffers(hi - lo, np_dtype)
            out[:, lo:hi] = self._sweep_chunk(p, solve_costs, n_iterations,
                                              rows, cols, xb, yb,
                                              leak_costs=leak_costs)
        # Pins were zeroed by the sweep and always reach themselves.
        out[~reachable] = np.inf
        with self._lock:
            self.solves += 1
            self.columns_solved += n_sets
        return out

    def solve(self, absorbing: np.ndarray, n_iterations: int = 15,
              local_costs: np.ndarray | None = None,
              dtype: str = "float64") -> np.ndarray:
        """Truncated absorbing values for a single absorbing set.

        A cohort of one: bit-identical to the matching
        :meth:`solve_multi` column by the CSR accumulation-order argument in
        the module docstring, and like it returns rows ``n_users:``.
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
        one triangular solve, not a fresh factorization. The system spans
        every node; like the truncated solves, the result holds rows
        ``n_users:`` only.
        """
        n = self.n_nodes
        (absorbing,) = self._check_sets([np.atleast_1d(np.asarray(absorbing))])
        costs = self._check_costs(local_costs)
        reachable = self._reachable_column(absorbing)
        values = np.full(n, np.inf)
        values[absorbing] = 0.0
        transient_mask = reachable.copy()
        transient_mask[absorbing] = False
        transient = np.flatnonzero(transient_mask)
        with self._lock:
            self.solves += 1
            self.columns_solved += 1
        if transient.size == 0:
            return values[self.n_users:]
        key = absorbing.tobytes()
        with self._lock:
            factor = self._factors.get(key)
            if factor is not None:
                self._factors.move_to_end(key)
        if factor is None:
            q = self.transition[transient][:, transient].tocsc()
            system = (sp.eye(transient.size, format="csc") - q).tocsc()
            factor = spla.splu(system)
            with self._lock:
                self._factors[key] = factor
                while len(self._factors) > _FACTOR_CACHE_SIZE:
                    self._factors.popitem(last=False)
        values[transient] = np.atleast_1d(factor.solve(costs[transient]))
        return values[self.n_users:]

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Counters for cache/serving reports (one consistent snapshot)."""
        with self._lock:
            return {
                "validations": self.validations,
                "solves": self.solves,
                "columns_solved": self.columns_solved,
                "factors_cached": len(self._factors),
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"WalkOperator(n_nodes={self.n_nodes}, nnz={self.transition.nnz}, "
            f"n_users={self.n_users}, "
            f"validations={stats['validations']}, solves={stats['solves']})"
        )
