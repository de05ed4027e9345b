"""Command-line interface: experiments, model artifacts, cohort serving.

Usage (module form; also installed as the ``repro-experiments`` script)::

    python -m repro.cli list
    python -m repro.cli run fig5a [--scale 0.5] [--out results.csv]
    python -m repro.cli run table2 --scale 0.3
    python -m repro.cli fit --algorithm AT --out at-model.npz
    python -m repro.cli serve --artifact at-model.npz --n-users 64 --k 10
    python -m repro.cli update --artifact at-model.npz --events events.log \
        --out at-model-updated.npz
    python -m repro.cli shard-fit --algorithm AT --shards 4 --out fleet/
    python -m repro.cli serve --shards fleet/ --n-users 64 --k 10
    python -m repro.cli serve --shards fleet/ --fleet-procs 4 --n-users 64
    python -m repro.cli update --shards fleet/ --events events.log --out fleet/

``run`` maps each experiment name to its driver in :mod:`repro.experiments`
and prints the paper-shaped text table (optionally a CSV). ``fit`` and
``serve`` are the offline/online split: ``fit`` trains once and saves a
versioned model artifact (optionally plus a precomputed top-K store);
``serve`` boots a :class:`~repro.service.ServingEngine` from the artifact —
no refitting — and answers a cohort (the first ``--n-users`` users, or a
``--users-file``) with warm-cache statistics in the report. ``update``
is the incremental half: it replays a rating-event log (new users, new
items, re-rates) against a saved artifact through
:meth:`~repro.service.ServingEngine.apply_updates` — no refit, targeted
cache invalidation — and can save the updated artifact back.
``--fleet-procs N`` on ``serve`` / ``serve-http`` runs a sharded fleet as
one supervised worker process per shard (crash restarts, write-ahead-log
replay, degraded serving while a shard is down); ``serve-http`` stops
admission, drains in-flight requests, and prints its report when it
receives SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

import numpy as np

from repro.eval.reporting import format_series, format_table, write_csv
from repro.experiments import (
    ExperimentConfig,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig6,
    run_jump_cost_ablation,
    run_lda_engine_ablation,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_tau_convergence,
)
from repro.data.synthetic import federated_dataset, giant_component
from repro.experiments.suite import PAPER_ORDER, make_algorithms, make_data
from repro.core.artifacts import peek_artifact
from repro.exceptions import ConfigError, DataFormatError, ReproError
from repro.service import (
    PARTITIONERS,
    BatchingServer,
    HttpFrontend,
    ProcessShardFleet,
    ServingEngine,
    ShardedEngine,
    ShardPlan,
    TopKStore,
)
from repro.utils.timer import Timer
from repro.utils.validation import as_index_array

__all__ = ["main", "EXPERIMENTS"]


def _fig5_rows(result):
    ns = [1, 5, 10, 20, 30, 50]
    rows = []
    for n in ns:
        row = {"N": n}
        row.update({name: round(v, 3) for name, v in result.recall_at(n).items()})
        rows.append(row)
    return rows


def _fig6_rows(result):
    return [result.row_at(rank) for rank in range(1, result.k + 1)]


def _table1_rows(result):
    best, second = result.best_two()
    return best.rows() + second.rows()


#: name -> (description, callable(config) -> rows)
EXPERIMENTS = {
    "fig1": ("long-tail catalogue statistics (Figure 1)",
             lambda c: [r.row() for r in run_fig1(c)]),
    "fig2": ("worked hitting-time example (Figure 2)",
             lambda c: [r.row() for r in run_fig2()]),
    "fig5a": ("Recall@N on movielens-like data (Figure 5a)",
              lambda c: _fig5_rows(run_fig5("movielens", c))),
    "fig5b": ("Recall@N on douban-like data (Figure 5b)",
              lambda c: _fig5_rows(run_fig5("douban", c, n_cases=150))),
    "fig6a": ("Popularity@N on douban-like data (Figure 6a)",
              lambda c: _fig6_rows(run_fig6("douban", c))),
    "fig6b": ("Popularity@N on movielens-like data (Figure 6b)",
              lambda c: _fig6_rows(run_fig6("movielens", c))),
    "table1": ("LDA topic listings (Table 1)",
               lambda c: _table1_rows(run_table1(c, engine="gibbs",
                                                 n_iterations=40))),
    "table2": ("recommendation diversity (Table 2)",
               lambda c: run_table2(c).rows()),
    "table3": ("ontology similarity (Table 3)",
               lambda c: run_table3(c).rows()),
    "table4": ("subgraph budget sweep (Table 4)",
               lambda c: run_table4(c).rows()),
    "table5": ("per-user efficiency (Table 5)",
               lambda c: run_table5(c).rows()),
    "table6": ("simulated user study (Table 6)",
               lambda c: run_table6(c).rows()),
    "ablation-tau": ("truncation-depth convergence",
                     lambda c: run_tau_convergence(c).rows()),
    "ablation-lda": ("Gibbs vs CVB0 LDA engines",
                     lambda c: run_lda_engine_ablation(c).rows()),
    "ablation-jump-cost": ("Eq. 9 jump-cost sensitivity",
                           lambda c: run_jump_cost_ablation(c)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate experiments from 'Challenging the Long Tail "
                    "Recommendation' (VLDB 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale multiplier (default 1.0)")
    run.add_argument("--seed", type=int, default=7, help="data seed")
    run.add_argument("--out", default=None, help="optional CSV output path")

    fit = sub.add_parser(
        "fit",
        help="fit one algorithm and save it as a versioned model artifact",
    )
    fit.add_argument("--algorithm", default="AT", choices=sorted(PAPER_ORDER),
                     help="recommender to fit (default AT)")
    fit.add_argument("--dataset", default="movielens",
                     choices=("movielens", "douban"),
                     help="synthetic dataset family (default movielens)")
    fit.add_argument("--scale", type=float, default=0.5,
                     help="dataset scale multiplier (default 0.5)")
    fit.add_argument("--seed", type=int, default=7, help="data seed")
    fit.add_argument("--out", required=True,
                     help="artifact output path (.npz appended when missing)")
    fit.add_argument("--store-out", default=None,
                     help="also precompute a TopKStore and save it here")
    fit.add_argument("--store-depth", type=int, default=50,
                     help="cached list depth for --store-out (default 50)")
    fit.add_argument("--dtype", default=None, choices=("float32", "float64"),
                     help="serving precision policy baked into the artifact "
                          "(float32 halves walk-solver bandwidth; top-k "
                          "parity with float64 is asserted in the test suite)")

    shard_fit = sub.add_parser(
        "shard-fit",
        help="partition the graph by component and fit one artifact per shard",
    )
    shard_fit.add_argument("--algorithm", default="AT",
                           choices=sorted(PAPER_ORDER),
                           help="recommender to fit per shard (default AT)")
    shard_fit.add_argument("--dataset", default="federated",
                           choices=("federated", "giant", "movielens",
                                    "douban"),
                           help="synthetic dataset family (default federated "
                                "— disjoint tenant blocks; 'giant' is one "
                                "single-component ring catalogue; the other "
                                "single-block families form one component "
                                "and need --partitioner edge-cut for "
                                "--shards > 1)")
    shard_fit.add_argument("--tenants", type=int, default=None,
                           help="tenant blocks in the federated catalogue "
                                "(default: max(--shards, 2))")
    shard_fit.add_argument("--scale", type=float, default=0.5,
                           help="dataset scale multiplier (default 0.5)")
    shard_fit.add_argument("--seed", type=int, default=7, help="data seed")
    shard_fit.add_argument("--shards", type=int, required=True,
                           help="number of shards to balance components into")
    shard_fit.add_argument("--partitioner", default="component",
                           choices=PARTITIONERS,
                           help="'component' balances whole graph components "
                                "(rejects cutting one); 'edge-cut' splits a "
                                "giant component with k-hop halos "
                                "(default component)")
    shard_fit.add_argument("--halo-hops", type=int, default=2,
                           help="ghost-node depth around each edge-cut shard "
                                "(--partitioner edge-cut only; default 2)")
    shard_fit.add_argument("--out", required=True,
                           help="output directory for plan.npz + shard-NNN.npz")

    online = sub.add_parser(
        "serve",
        help="load a model artifact (or sharded-artifact directory) and "
             "serve a cohort through the engine",
    )
    online.add_argument("--artifact", default=None,
                        help="model artifact written by 'fit'")
    online.add_argument("--shards", default=None, metavar="DIR",
                        help="sharded-artifact directory written by "
                             "'shard-fit' (instead of --artifact)")
    online.add_argument("--fleet-procs", type=int, default=0, metavar="N",
                        help="with --shards: run the fleet as N supervised "
                             "worker processes (one per shard; N must equal "
                             "the plan's shard count) with crash restarts "
                             "and WAL recovery; 0 = in-process (default)")
    online.add_argument("--store", default=None,
                        help="optional TopKStore written by 'fit --store-out'")
    online.add_argument("--users-file", default=None,
                        help="file with one user index per line "
                             "(default: the first --n-users users)")
    online.add_argument("--n-users", type=int, default=64,
                        help="cohort size when --users-file is absent (default 64)")
    online.add_argument("--k", type=int, default=10,
                        help="list length (default 10)")
    online.add_argument("--batch-size", type=int, default=256,
                        help="users scored per batch (default 256)")
    online.add_argument("--repeat", type=int, default=1,
                        help="serve the cohort this many times (>1 shows the "
                             "warm-cache speedup; default 1)")
    online.add_argument("--dtype", default=None, choices=("float32", "float64"),
                        help="override the artifact's serving precision policy")
    online.add_argument("--mmap", action="store_true",
                        help="memory-map the artifact arrays (v3 artifacts) "
                             "instead of materialising them: O(open) boot, "
                             "copy-on-first-write, pages shared across "
                             "processes")
    online.add_argument("--out", default=None,
                        help="optional CSV path for the full (user, rank, item) rows")

    http = sub.add_parser(
        "serve-http",
        help="serve concurrent single-user requests over HTTP through the "
             "micro-batching front end (artifact or sharded fleet)",
    )
    http.add_argument("--artifact", default=None,
                      help="model artifact written by 'fit'")
    http.add_argument("--shards", default=None, metavar="DIR",
                      help="sharded-artifact directory written by "
                           "'shard-fit' (instead of --artifact)")
    http.add_argument("--fleet-procs", type=int, default=0, metavar="N",
                      help="with --shards: run the fleet as N supervised "
                           "worker processes (one per shard; N must equal "
                           "the plan's shard count); degraded shards answer "
                           "HTTP 503 until restarted; 0 = in-process "
                           "(default)")
    http.add_argument("--store", default=None,
                      help="optional TopKStore written by 'fit --store-out' "
                           "(single-artifact serving only)")
    http.add_argument("--host", default="127.0.0.1",
                      help="bind address (default 127.0.0.1)")
    http.add_argument("--port", type=int, default=8377,
                      help="TCP port; 0 picks an ephemeral port "
                           "(default 8377)")
    http.add_argument("--max-batch", type=int, default=32,
                      help="most requests coalesced into one cohort solve "
                           "(default 32; 1 disables batching)")
    http.add_argument("--max-delay-ms", type=float, default=2.0,
                      help="longest wait for stragglers after a batch opens "
                           "(default 2.0)")
    http.add_argument("--max-queue", type=int, default=1024,
                      help="admission-queue bound; arrivals beyond it are "
                           "shed with HTTP 429 (default 1024)")
    http.add_argument("--timeout-ms", type=float, default=None,
                      help="default per-request deadline; a miss answers "
                           "HTTP 504 (default: none)")
    http.add_argument("--mmap", action="store_true",
                      help="memory-map the artifact arrays (v3 artifacts) "
                           "instead of materialising them")
    http.add_argument("--duration", type=float, default=0.0,
                      help="serve for this many seconds then print the "
                           "server report and exit (default 0 = forever)")
    http.add_argument("--self-test", type=int, default=0, metavar="N",
                      help="boot, fire N concurrent HTTP requests against "
                           "the live socket, assert responses bit-identical "
                           "to direct engine.recommend, print the report, "
                           "exit non-zero on mismatch")
    http.add_argument("--k", type=int, default=10,
                      help="list length for --self-test requests (default 10)")

    update = sub.add_parser(
        "update",
        help="replay a rating-event log against a saved artifact — the "
             "incremental update pipeline (no refit)",
    )
    update.add_argument("--artifact", default=None,
                        help="model artifact written by 'fit'")
    update.add_argument("--shards", default=None, metavar="DIR",
                        help="sharded-artifact directory written by "
                             "'shard-fit'; events are routed to the owning "
                             "shard (instead of --artifact)")
    update.add_argument("--events", required=True,
                        help="event log: 'user_label item_label rating' per "
                             "line (# comments allowed); unknown labels "
                             "register new users/items")
    update.add_argument("--batch-size", type=int, default=0,
                        help="events applied per update batch "
                             "(0 = one batch, default)")
    update.add_argument("--duplicates", default="last",
                        choices=("last", "error"),
                        help="re-rate policy: overwrite ('last', default) or "
                             "reject ('error')")
    update.add_argument("--max-pending", type=int, default=None,
                        help="consolidate (full refit) once this many events "
                             "have been absorbed since the last fit")
    update.add_argument("--serve-users", type=int, default=0,
                        help="serve the first N users after updating, showing "
                             "the retained warm-cache stats")
    update.add_argument("--mmap", action="store_true",
                        help="memory-map the artifact arrays (v3 artifacts); "
                             "updates copy only the pages they touch")
    update.add_argument("--out", default=None,
                        help="save the updated model artifact here")
    return parser


def _fit(args) -> int:
    config = ExperimentConfig(scale=args.scale, data_seed=args.seed)
    print(f"Generating {args.dataset} data (scale {args.scale}) ...", flush=True)
    train = make_data(args.dataset, config).dataset
    print(f"   {train}")

    print(f"Fitting {args.algorithm} ...", flush=True)
    recommender = make_algorithms(config, train=train,
                                  include=(args.algorithm,))[0]
    with Timer() as fit_timer:
        recommender.fit(train)
    print(f"   fitted in {fit_timer.elapsed:.2f}s")

    if args.dtype is not None:
        recommender.set_serving_dtype(args.dtype)
        if "dtype" in recommender.get_config():
            print(f"   serving dtype policy: {args.dtype} (saved in artifact)")
        else:
            print(f"   note: {recommender.name} has no bandwidth-bound solve; "
                  f"--dtype {args.dtype} is ignored and not persisted")
    path = recommender.save(args.out)
    print(f"[saved] artifact {path} ({os.path.getsize(path) // 1024} KiB)")

    if args.store_out:
        print(f"Precomputing TopKStore (depth {args.store_depth}) ...", flush=True)
        store = TopKStore.from_recommender(recommender, depth=args.store_depth)
        store_path = store.save(args.store_out)
        print(f"[saved] store {store_path} "
              f"({os.path.getsize(store_path) // 1024} KiB)")
    return 0


def _shard_fit(args) -> int:
    config = ExperimentConfig(scale=args.scale, data_seed=args.seed)
    print(f"Generating {args.dataset} data (scale {args.scale}) ...", flush=True)
    if args.dataset == "federated":
        tenants = args.tenants if args.tenants is not None else max(args.shards, 2)
        train = federated_dataset(tenants, scale=args.scale, seed=args.seed)
    elif args.dataset == "giant":
        train = giant_component(scale=args.scale, seed=args.seed)
    else:
        train = make_data(args.dataset, config).dataset
    print(f"   {train}")

    if args.partitioner == "edge-cut":
        print(f"Planning {args.shards} shard(s) by balanced edge cut "
              f"({args.halo_hops}-hop halos) ...", flush=True)
        plan = ShardPlan.build_edge_cut(train, args.shards,
                                        halo_hops=args.halo_hops)
        print(format_table(plan.summary(train),
                           title="shard plan (edge-cut, k-hop halos)"))
    else:
        print(f"Planning {args.shards} shard(s) by graph component ...",
              flush=True)
        plan = ShardPlan.build(train, args.shards)
        print(format_table(plan.summary(train),
                           title="shard plan (component-balanced)"))

    print(f"Fitting {args.algorithm} per shard ...", flush=True)
    # train=None: each shard trains its own topic model over its own
    # catalogue (a full-catalogue LDA would not match the shard's items).
    def factory():
        return make_algorithms(config, train=None,
                               include=(args.algorithm,))[0]

    with Timer() as fit_timer:
        fleet = ShardedEngine.fit(train, factory, plan=plan)
    print(f"   fitted {plan.n_shards} shard(s) in {fit_timer.elapsed:.2f}s")
    path = fleet.save(args.out)
    size_kib = sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    ) // 1024
    print(f"[saved] sharded artifacts in {path}/ ({size_kib} KiB total)")
    return 0


def load_user_file(path: str, n_users: int) -> np.ndarray:
    """Parse a cohort file (``serve --users-file``): one user index per line.

    Blank lines and ``#`` comments are ignored; indices must be integers in
    ``[0, n_users)``. Duplicates are kept (a cohort may legitimately repeat a
    user).
    """
    indices: list[int] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                indices.append(int(line))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: expected a user index, got {line!r}"
                ) from None
    if not indices:
        raise DataFormatError(f"{path}: no user indices found")
    try:
        return as_index_array(np.array(indices), n_users, "users")
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_event_file(path: str) -> list[tuple[str, str, float]]:
    """Parse an ``update --events`` log: ``user_label item_label rating``.

    Tokens are whitespace-separated (labels therefore cannot contain
    whitespace); blank lines and ``#`` comments are ignored. Labels are kept
    as strings — matching how the CLI-fitted synthetic datasets (and any
    CSV-loaded data) label users/items; datasets with non-string labels are
    updated through the Python API instead. Unknown labels are *not* an
    error: they register new users/items when the events are applied.
    """
    events: list[tuple[str, str, float]] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'user item rating', got {line!r}"
                )
            try:
                rating = float(parts[2])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: expected a numeric rating, got {parts[2]!r}"
                ) from None
            events.append((parts[0], parts[1], rating))
    if not events:
        raise DataFormatError(f"{path}: no rating events found")
    return events


def _require_one_source(args, parser_hint: str) -> bool:
    """True when exactly one of --artifact / --shards was given."""
    if (args.artifact is None) == (args.shards is None):
        print(f"error: {parser_hint} needs exactly one of --artifact or "
              "--shards", file=sys.stderr)
        return False
    if getattr(args, "fleet_procs", 0) and args.shards is None:
        print(f"error: {parser_hint} --fleet-procs requires --shards",
              file=sys.stderr)
        return False
    return True


def _boot_fleet(args) -> ProcessShardFleet:
    """Boot a supervised multi-process fleet from ``--shards``.

    ``--fleet-procs`` must equal the plan's shard count — the fleet runs
    exactly one worker process per shard, so any other value is a config
    mistake, not a tunable.
    """
    plan = ShardPlan.load(os.path.join(args.shards, "plan.npz"))
    if args.fleet_procs != plan.n_shards:
        raise ConfigError(
            f"--fleet-procs {args.fleet_procs} does not match the plan's "
            f"{plan.n_shards} shard(s); the fleet runs exactly one worker "
            "process per shard (use --fleet-procs "
            f"{plan.n_shards}, or 0 for in-process serving)"
        )
    return ProcessShardFleet.from_directory(
        args.shards, engine_kwargs={"mmap": args.mmap})


def _fleet_name(args) -> str:
    """Recommender name from the first shard's artifact header (O(open))."""
    return peek_artifact(os.path.join(args.shards, "shard-000.npz"))["name"]


def _serve(args) -> int:
    if not _require_one_source(args, "serve"):
        return 2
    if args.shards is not None and args.fleet_procs:
        print(f"Loading sharded artifacts {args.shards} "
              "(multi-process fleet) ...", flush=True)
        with Timer() as load_timer:
            engine = _boot_fleet(args)
        if args.store:
            print("   note: --store is ignored for sharded serving")
        if args.dtype is not None:
            print("   note: --dtype is ignored for --fleet-procs; workers "
                  "boot with the artifact's saved precision policy")
        name = _fleet_name(args)
        n_users_total = engine.n_users
        print(f"   {name} fleet: {engine.n_shards} worker process(es), "
              f"{engine.n_users} users × {engine.n_items} items "
              f"(booted in {load_timer.elapsed:.2f}s, no refit)")
    elif args.shards is not None:
        print(f"Loading sharded artifacts {args.shards} ...", flush=True)
        with Timer() as load_timer:
            engine = ShardedEngine.from_directory(args.shards,
                                                  mmap=args.mmap)
        if args.store:
            print("   note: --store is ignored for sharded serving")
        if args.dtype is not None:
            for shard_engine in engine.engines:
                shard_engine.recommender.set_serving_dtype(args.dtype)
        name = engine.engines[0].recommender.name
        n_users_total = engine.n_users
        print(f"   {name} fleet: {engine.n_shards} shard(s), "
              f"{engine.n_users} users × {engine.n_items} items "
              f"(loaded in {load_timer.elapsed:.2f}s, no refit)")
    else:
        print(f"Loading artifact {args.artifact} ...", flush=True)
        with Timer() as load_timer:
            engine = ServingEngine.from_artifact(
                args.artifact, store_path=args.store, mmap=args.mmap,
            )
        if args.dtype is not None:
            engine.recommender.set_serving_dtype(args.dtype)
        name = engine.recommender.name
        n_users_total = engine.dataset.n_users
        print(f"   {name} over {engine.dataset} "
              f"(loaded in {load_timer.elapsed:.2f}s, no refit, "
              f"dtype {engine.recommender.serving_dtype})")

    if args.users_file is not None:
        users = load_user_file(args.users_file, n_users_total)
    else:
        users = np.arange(min(args.n_users, n_users_total))
    print(f"Serving {users.size} users (k={args.k}, "
          f"batch size {args.batch_size}, x{max(args.repeat, 1)}) ...", flush=True)
    summaries = []
    report = None
    for pass_number in range(1, max(args.repeat, 1) + 1):
        report = engine.serve_cohort(users, k=args.k, batch_size=args.batch_size)
        summaries.append({"pass": pass_number, **report.summary()})

    print(format_table(summaries, title=f"serve: {name} via engine"))
    if args.shards is not None and report.per_shard:
        print(format_table(report.shard_summaries(),
                           title="last pass, per shard"))
    preview = report.rows[:3 * args.k]
    if preview:
        print(format_table(preview, title="first rows (full output via --out)"))
    if args.out:
        write_csv(report.rows, args.out)
        print(f"[saved] {args.out}")
    if isinstance(engine, ProcessShardFleet):
        engine.close()
    return 0


async def _http_get(host: str, port: int, path: str) -> tuple[int, dict]:
    """One GET against the live frontend, JSON body decoded."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split()[1])
        length = 0
        for line in head.decode("latin-1").split("\r\n"):
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        body = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, json.loads(body)


async def _http_self_test(engine, host: str, port: int, n: int, k: int,
                          n_users_total: int) -> int:
    """Fire ``n`` concurrent requests; count responses that differ from the
    direct engine answer (0 = bit-identical across the wire)."""
    users = [i % n_users_total for i in range(n)]
    responses = await asyncio.gather(*[
        _http_get(host, port, f"/recommend?user={user}&k={k}")
        for user in users
    ])
    mismatches = 0
    for user, (status, payload) in zip(users, responses):
        expected = engine.recommend(user, k=k)
        if (status != 200
                or payload["items"] != [r.item for r in expected]
                or payload["scores"] != [r.score for r in expected]):
            mismatches += 1
    return mismatches


def _serve_http(args) -> int:
    if not _require_one_source(args, "serve-http"):
        return 2
    if args.shards is not None and args.fleet_procs:
        print(f"Loading sharded artifacts {args.shards} "
              "(multi-process fleet) ...", flush=True)
        with Timer() as load_timer:
            engine = _boot_fleet(args)
        if args.store:
            print("   note: --store is ignored for sharded serving")
        name = _fleet_name(args)
        n_users_total = engine.n_users
        print(f"   {name} fleet: {engine.n_shards} worker process(es), "
              f"{engine.n_users} users × {engine.n_items} items "
              f"(booted in {load_timer.elapsed:.2f}s, no refit)")
    elif args.shards is not None:
        print(f"Loading sharded artifacts {args.shards} ...", flush=True)
        with Timer() as load_timer:
            engine = ShardedEngine.from_directory(args.shards,
                                                  mmap=args.mmap)
        if args.store:
            print("   note: --store is ignored for sharded serving")
        name = engine.engines[0].recommender.name
        n_users_total = engine.n_users
        print(f"   {name} fleet: {engine.n_shards} shard(s), "
              f"{engine.n_users} users × {engine.n_items} items "
              f"(loaded in {load_timer.elapsed:.2f}s, no refit)")
    else:
        print(f"Loading artifact {args.artifact} ...", flush=True)
        with Timer() as load_timer:
            engine = ServingEngine.from_artifact(
                args.artifact, store_path=args.store, mmap=args.mmap,
            )
        name = engine.recommender.name
        n_users_total = engine.dataset.n_users
        print(f"   {name} over {engine.dataset} "
              f"(loaded in {load_timer.elapsed:.2f}s, no refit)")

    async def _run() -> int:
        server = BatchingServer(
            engine, max_batch_size=args.max_batch,
            max_delay_ms=args.max_delay_ms, max_queue=args.max_queue,
            timeout_ms=args.timeout_ms,
        )
        async with server:
            async with HttpFrontend(server, host=args.host,
                                    port=args.port) as front:
                print(f"[serve-http] {name} listening on "
                      f"http://{args.host}:{front.port} "
                      f"(max_batch={args.max_batch}, "
                      f"max_delay={args.max_delay_ms:g}ms, "
                      f"max_queue={args.max_queue})", flush=True)
                status = 0
                if args.self_test > 0:
                    mismatches = await _http_self_test(
                        engine, args.host, front.port, args.self_test,
                        args.k, n_users_total,
                    )
                    if mismatches:
                        print(f"[self-test] FAILED: {mismatches}/"
                              f"{args.self_test} responses differ from "
                              "direct engine.recommend", file=sys.stderr)
                        status = 1
                    else:
                        print(f"[self-test] OK: {args.self_test} concurrent "
                              "responses bit-identical to engine.recommend")
                else:
                    # Clean drain on SIGTERM/SIGINT: the signal only sets
                    # an event; leaving the HttpFrontend context then stops
                    # admission (closes the listener) and leaving the
                    # BatchingServer context finishes every in-flight
                    # request before the report below is flushed.
                    stop = asyncio.Event()
                    loop = asyncio.get_running_loop()
                    hooked = []
                    for signum in (signal.SIGINT, signal.SIGTERM):
                        try:
                            loop.add_signal_handler(signum, stop.set)
                        except (NotImplementedError, RuntimeError,
                                ValueError):
                            continue  # non-main thread / platform limits
                        hooked.append(signum)
                    try:
                        if args.duration > 0:
                            try:
                                await asyncio.wait_for(stop.wait(),
                                                       timeout=args.duration)
                            except asyncio.TimeoutError:
                                pass
                        else:
                            await stop.wait()  # serve until a signal lands
                        if stop.is_set():
                            print("\n[serve-http] signal received; draining "
                                  "in-flight requests ...", flush=True)
                    finally:
                        for signum in hooked:
                            loop.remove_signal_handler(signum)
            report = server.report()
        print(format_table([report.summary()],
                           title=f"serve-http: {name} front-end report"))
        return status

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        # Fallback for platforms where add_signal_handler is unavailable;
        # on the normal path SIGINT is absorbed by the drain above.
        print("\n[serve-http] interrupted; shutting down")
        return 0
    finally:
        if isinstance(engine, ProcessShardFleet):
            engine.close()


def _update(args) -> int:
    if not _require_one_source(args, "update"):
        return 2
    if args.shards is not None:
        print(f"Loading sharded artifacts {args.shards} ...", flush=True)
        with Timer() as load_timer:
            engine = ShardedEngine.from_directory(
                args.shards, max_pending_events=args.max_pending,
                update_duplicates=args.duplicates, mmap=args.mmap,
            )
        n_users_total = engine.n_users
        print(f"   {engine.engines[0].recommender.name} fleet: "
              f"{engine.n_shards} shard(s), {engine.n_users} users × "
              f"{engine.n_items} items (loaded in {load_timer.elapsed:.2f}s)")
    else:
        print(f"Loading artifact {args.artifact} ...", flush=True)
        with Timer() as load_timer:
            engine = ServingEngine.from_artifact(
                args.artifact, max_pending_events=args.max_pending,
                update_duplicates=args.duplicates, mmap=args.mmap,
            )
        n_users_total = engine.dataset.n_users
        print(f"   {engine.recommender.name} over {engine.dataset} "
              f"(loaded in {load_timer.elapsed:.2f}s)")
    if args.serve_users > 0:
        # Warm the caches first so the update report shows what survives.
        users = np.arange(min(args.serve_users, n_users_total))
        engine.serve_cohort(users, k=10)

    events = load_event_file(args.events)
    batch_size = args.batch_size if args.batch_size > 0 else len(events)
    print(f"Applying {len(events)} events "
          f"(batches of {batch_size}, duplicates={args.duplicates}) ...",
          flush=True)
    summaries = []
    last_report = None
    for start in range(0, len(events), batch_size):
        last_report = engine.apply_updates(events[start:start + batch_size])
        summaries.append({"batch": len(summaries) + 1, **last_report.summary()})
    print(format_table(summaries, title="update: applied event batches"))
    if args.shards is not None:
        if last_report is not None and last_report.per_shard:
            print(format_table(last_report.shard_summaries(),
                               title="last batch, per shard"))
        print(f"   now serving {engine.n_users} users × {engine.n_items} "
              "items across the fleet")
    else:
        print(f"   now serving {engine.dataset} at model version "
              f"{engine.model_version}")

    if args.serve_users > 0:
        total = (engine.n_users if args.shards is not None
                 else engine.dataset.n_users)
        users = np.arange(min(args.serve_users, total))
        served = engine.serve_cohort(users, k=10)
        print(format_table([served.summary()],
                           title="post-update cohort (warm retention)"))
    if args.out:
        if args.shards is not None:
            path = engine.save(args.out)
            print(f"[saved] updated sharded artifacts in {path}/")
        else:
            path = engine.recommender.save(args.out)
            print(f"[saved] updated artifact {path} "
                  f"({os.path.getsize(path) // 1024} KiB)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # Operator-facing failures (missing artifact dir, format-version
        # mismatch, bad flag values) are reported as one clean line, not a
        # traceback: the message already names the path and the remedy.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "fit":
        return _fit(args)
    if args.command == "shard-fit":
        return _shard_fit(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "serve-http":
        return _serve_http(args)
    if args.command == "update":
        return _update(args)
    if args.command == "list":
        rows = [{"experiment": name, "description": desc}
                for name, (desc, _) in sorted(EXPERIMENTS.items())]
        print(format_table(rows, title="Available experiments"))
        return 0

    description, driver = EXPERIMENTS[args.experiment]
    config = ExperimentConfig(scale=args.scale, data_seed=args.seed)
    print(f"Running {args.experiment}: {description} (scale {args.scale}) ...",
          flush=True)
    rows = driver(config)
    print(format_table(rows, title=f"{args.experiment}: {description}"))
    if args.out:
        write_csv(rows, args.out)
        print(f"[saved] {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
