"""Which calls the traced run times, and the per-layer metrics they give.

:func:`instrument` wraps, from outside, the public call of every layer a
request crosses, at the name its caller looks it up under:

=========================  ==============================================
layer                      wrapped calls
=========================  ==============================================
``BatchingServer``         ``server.recommend`` (instance)
``ServingEngine``          ``engine.recommend_many`` (instance)
recommender                ``recommend_batch_arrays``, ``score_users``
                           (instance)
``TransitionCache``        ``group``, ``bfs`` (class)
``graph.subgraph``         ``bfs_subgraph`` as ``repro.graph.cache`` sees it
``WalkOperator``           ``solve_multi`` (class); scipy ``csr_matvecs``
                           as ``repro.solver.operator`` sees it
``ProcessShardFleet``      ``recommend_many``, ``apply_updates``
                           (instance); supervisor ``Connection.poll`` /
                           ``recv`` (class); ``os.fsync``
=========================  ==============================================

Counters that the layers already keep (server batches, engine and cache
hits, per-shard result hits) are read around every traced round by
:func:`counters`. Fleet workers are separate processes: their inner layers
cannot be seen from here.
"""

from __future__ import annotations

import bisect
import os
from multiprocessing.connection import Connection

import repro.graph.cache as cache_module
import repro.solver.operator as operator_module
from repro.graph.cache import TransitionCache
from repro.solver.operator import WalkOperator


def _user(args, kwargs, result):
    return {"user": int(args[0] if args else kwargs["user"])}


def _users(args, kwargs, result):
    return {"users": [int(user) for user in (args[0] if args
                                              else kwargs["users"])]}


def _kernel_bytes(args, kwargs, result):
    # Compulsory traffic of Y += A @ X: the CSR arrays, X once, Y read and
    # written once. Computed from the operands, not measured.
    indptr, indices, data, x, y = args[3:8]
    return {"bytes": int(indptr.nbytes + indices.nbytes + data.nbytes
                         + x.nbytes + 2 * y.nbytes)}


def instrument(tracer, system) -> None:
    """Wrap every layer of ``system`` that this process can see."""
    wrap = tracer.wrap
    wrap(system.server, "recommend", "server.recommend", attrs=_user)
    if system.engine is not None:
        recommender = system.engine.recommender
        wrap(system.engine, "recommend_many", "engine.recommend_many",
             attrs=_users)
        wrap(recommender, "recommend_batch_arrays",
             "recommender.recommend_batch_arrays",
             attrs=lambda args, kwargs, result: {"n_users": len(args[0])})
        wrap(recommender, "score_users", "recommender.score_users")
        wrap(TransitionCache, "group", "cache.group")
        wrap(TransitionCache, "bfs", "cache.bfs")
        wrap(cache_module, "bfs_subgraph", "subgraph.bfs",
             attrs=lambda args, kwargs, result: {"nodes": result.n_nodes})
        wrap(WalkOperator, "solve_multi", "solver.solve_multi",
             attrs=lambda args, kwargs, result: {"rhs": len(args[1])})
        if operator_module._csr_matvecs is not None:
            wrap(operator_module, "_csr_matvecs", "solver.kernel",
                 attrs=_kernel_bytes)
    else:
        wrap(system.fleet, "recommend_many", "fleet.recommend_many",
             attrs=_users)
        wrap(system.fleet, "apply_updates", "fleet.apply_updates")
        wrap(Connection, "poll", "fleet.rpc")
        wrap(Connection, "recv", "fleet.rpc")
        wrap(os, "fsync", "fleet.wal_fsync")


def counters(system) -> dict:
    """Lifetime counters of every visible layer (read outside timing)."""
    server = system.server
    snapshot = {"batches": server.n_batches,
                "batched": sum(size * count
                               for size, count in server.batch_sizes.items()),
                "rows_evicted": sum(report.result_rows_evicted
                                    + report.fleet_rows_evicted
                                    for report in getattr(
                                        system, "update_reports", ()))}
    if system.engine is not None:
        stats = system.engine.stats()
        scoring = stats["scoring_cache"]
        snapshot.update(result_hits=stats["result_hits"],
                        result_misses=stats["result_misses"],
                        cache_hits=scoring.get("hits", 0),
                        cache_misses=scoring.get("misses", 0))
    else:
        shards = system.fleet.stats()["shards"]
        snapshot.update(result_hits=sum(s["result_hits"] for s in shards),
                        result_misses=sum(s["result_misses"] for s in shards))
    return snapshot


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _serving_calls(requests, calls) -> list[tuple]:
    """Pair each ``server.recommend`` span with the backend call serving it.

    The serving call is the last call holding the request's user to end
    before the request returned; it must also have started after the
    request entered (backend calls run one at a time). Returns
    ``(request, call)`` pairs for every request that was served.
    """
    by_user: dict[int, list] = {}
    for call in sorted(calls, key=lambda call: call.t1):
        for user in (call.attrs or {}).get("users", ()):
            by_user.setdefault(user, []).append(call)
    ends = {user: [call.t1 for call in user_calls]
            for user, user_calls in by_user.items()}
    pairs = []
    for request in requests:
        if request.attrs is None:  # the request failed
            continue
        user = request.attrs["user"]
        index = bisect.bisect_right(ends.get(user, []), request.t1) - 1
        if index >= 0 and by_user[user][index].t0 >= request.t0:
            pairs.append((request, by_user[user][index]))
    return pairs


def layer_metrics(tracer, system, counts: dict, *, client_samples,
                  traced_rps: float, untraced_rps: float,
                  stream_copy_gbps: float) -> dict:
    """Every per-layer metric of the traced rounds (0 where a layer is not
    on this workload's path). ``counts`` holds the traced rounds' deltas
    of :func:`counters`."""
    ms = 1000.0
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)

    def mean_ms(name, self_time=False):
        return ms * _mean(span.self_seconds if self_time else span.seconds
                          for span in spans.get(name, ()))

    requests = spans.get("server.recommend", [])
    backend = ("engine.recommend_many" if system.engine is not None
               else "fleet.recommend_many")
    pairs = _serving_calls(requests, spans.get(backend, []))
    served_s = sum(request.seconds for request, _ in pairs)
    named_s = sum(call.t1 - request.t0 for request, call in pairs)

    http_self_ms = 0.0
    if system.client is not None:
        client_ms = _mean(ms * (s.done - s.sent) for s in client_samples
                          if s.error is None)
        http_self_ms = client_ms - mean_ms("server.recommend")
        served_s += http_self_ms / ms * len(pairs)
        named_s += http_self_ms / ms * len(pairs)

    kernels = spans.get("solver.kernel", [])
    kernel_s = sum(span.seconds for span in kernels)
    kernel_gbps = (sum(span.attrs["bytes"] for span in kernels) / kernel_s
                   / 1e9 if kernel_s else 0.0)
    solves = spans.get("solver.solve_multi", [])
    batches = counts["batches"]
    result_hit_rate = _rate(counts["result_hits"], counts["result_misses"])
    in_process = system.engine is not None

    return {
        "http.self_ms": http_self_ms,
        "server.wait_ms": ms * _mean(call.t0 - request.t0
                                     for request, call in pairs),
        "server.batch_size_mean": (counts["batched"] / batches
                                   if batches else 0.0),
        "server.batches": batches,
        "engine.recommend_many_ms": mean_ms("engine.recommend_many"),
        "engine.assemble_ms": mean_ms("engine.recommend_many", True),
        "engine.result_hit_rate": result_hit_rate if in_process else 0.0,
        "recommender.score_users_ms": mean_ms("recommender.score_users"),
        "recommender.topk_ms": mean_ms("recommender.recommend_batch_arrays",
                                       True),
        "recommender.users_per_call": _mean(
            span.attrs["n_users"]
            for span in spans.get("recommender.recommend_batch_arrays", ())),
        "cache.group_ms": mean_ms("cache.group"),
        "cache.bfs_ms": mean_ms("cache.bfs"),
        "cache.hit_rate": (_rate(counts["cache_hits"], counts["cache_misses"])
                           if in_process else 0.0),
        "subgraph.bfs_ms": mean_ms("subgraph.bfs"),
        "subgraph.nodes_mean": _mean(span.attrs["nodes"]
                                     for span in spans.get("subgraph.bfs", ())),
        "solver.solve_multi_ms": mean_ms("solver.solve_multi"),
        "solver.rhs_per_call": _mean(span.attrs["rhs"] for span in solves),
        "solver.kernel_ms": ms * kernel_s / len(solves) if solves else 0.0,
        "solver.python_ms": mean_ms("solver.solve_multi", True),
        "solver.kernel_gbps": kernel_gbps,
        "solver.roofline_frac": kernel_gbps / stream_copy_gbps,
        "fleet.recommend_many_ms": mean_ms("fleet.recommend_many"),
        "fleet.rpc_wait_ms": ms * _mean(
            span.child_s for span in spans.get("fleet.recommend_many", ())),
        "fleet.route_ms": mean_ms("fleet.recommend_many", True),
        "fleet.apply_updates_ms": mean_ms("fleet.apply_updates"),
        "fleet.wal_fsync_ms": mean_ms("fleet.wal_fsync"),
        "fleet.wal_fsyncs": len(spans.get("fleet.wal_fsync", ())),
        "fleet.rows_evicted": counts["rows_evicted"],
        "fleet.shard_result_hit_rate": 0.0 if in_process else result_hit_rate,
        "trace.overhead_frac": (1.0 - traced_rps / untraced_rps
                                if untraced_rps else 0.0),
        "trace.layer_coverage_frac": named_s / served_s if served_s else 0.0,
    }
