"""Serving layer: stateful engine, precomputed stores, cohort serving jobs.

Built on the batch scoring API (:meth:`repro.core.base.Recommender.score_users`
/ ``recommend_batch``): :class:`ServingEngine` loads a model artifact (or
wraps a fitted recommender), owns the warm scoring caches plus an LRU result
cache, and serves single queries and chunked cohorts with cache-hit stats;
:class:`TopKStore` precomputes every user's ranked list once and serves
``recommend(user, k)`` from a compact int32/float32 cache with exclusion
re-filtering; :func:`serve_user_cohort` streams a user cohort through the
batch path in bounded-memory chunks and reports throughput;
:class:`ShardPlan` partitions the graph by connected component (or by
edge cut with k-hop halos) into shards, score-exact for the walk family;
one shard router serves them — label-routed updates, a fleet-level row
cache, merged :class:`FleetReport`\\ s — over two backends:
:class:`ShardedEngine` keeps one engine per shard in process, and
:class:`ProcessShardFleet` runs one *worker process per shard* under a
supervisor — health checks, bounded-backoff restarts, a per-shard
write-ahead log replayed on recovery, and degraded serving (healthy
shards keep answering while a dead shard raises
:class:`~repro.exceptions.ShardUnavailableError`), with :class:`FaultSpec`
scripting deterministic crashes for failure-injection tests.
``python -m repro.cli fit`` / ``serve`` / ``serve-batch`` / ``shard-fit``
are the command-line fronts.
"""

from repro.service.engine import EngineReport, ServingEngine, UpdateReport
from repro.service.faults import CRASH_POINTS, FaultSpec
from repro.service.fleet import ProcessShardFleet
from repro.service.serving import (
    BatchServingReport,
    load_event_file,
    load_user_file,
    rows_from_ranked_arrays,
    serve_user_cohort,
)
from repro.service.server import (
    BatchingServer,
    HttpFrontend,
    ServerReport,
    percentile,
)
from repro.service.sharding import (
    EDGE_CUT_HINT,
    PARTITIONERS,
    SHARD_PLAN_FORMAT_VERSION,
    FleetReport,
    FleetUpdateReport,
    ShardedEngine,
    ShardPlan,
    validate_shard_events,
)
from repro.service.store import STORE_FORMAT_VERSION, TopKStore

__all__ = [
    "BatchServingReport",
    "BatchingServer",
    "CRASH_POINTS",
    "EDGE_CUT_HINT",
    "EngineReport",
    "FaultSpec",
    "PARTITIONERS",
    "FleetReport",
    "FleetUpdateReport",
    "HttpFrontend",
    "ProcessShardFleet",
    "ServerReport",
    "ServingEngine",
    "SHARD_PLAN_FORMAT_VERSION",
    "STORE_FORMAT_VERSION",
    "ShardPlan",
    "ShardedEngine",
    "TopKStore",
    "UpdateReport",
    "load_event_file",
    "load_user_file",
    "percentile",
    "rows_from_ranked_arrays",
    "serve_user_cohort",
    "validate_shard_events",
]
