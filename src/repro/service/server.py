"""Async request front end: micro-batching over the multi-RHS solve path.

Everything below the service tier is library-call-shaped — a caller hands
the engine a pre-formed cohort. Production traffic is the opposite shape:
many *concurrent single-user* requests, each wanting an answer now. This
module closes the gap the way GPU/vectorized serving systems do, with
**micro-batching**: concurrent requests land in a bounded admission queue,
a batching loop drains the queue into cohorts (up to ``max_batch_size``
requests, waiting at most ``max_delay_ms`` for stragglers), and each
cohort rides one coalesced :meth:`~repro.service.ServingEngine.recommend_many`
call — the vectorized multi-RHS walk solve the paper's absorbing-cost
model makes cheap — with the results fanned back out to the per-request
futures. Responses are bit-identical to calling ``engine.recommend`` per
request; the batch only changes *when* the solve runs, never what it
computes.

The pieces:

* :class:`BatchingServer` — the asyncio core. Admission is **bounded**:
  when the queue holds ``max_queue`` pending requests, new arrivals are
  shed with a typed :class:`~repro.exceptions.OverloadedError` (count them,
  retry elsewhere — never an unbounded backlog). Each request can carry a
  deadline (``timeout_ms``, per-request or server-default); a miss raises
  :class:`~repro.exceptions.DeadlineExceededError` and the batching loop
  skips the abandoned request before solving. Solves run on a dedicated
  single worker thread so the event loop keeps admitting (and batching)
  traffic *while* a cohort is in flight — that overlap is what fills the
  next batch.
* :class:`ServerReport` — latency percentiles (p50/p95/p99 via
  :func:`percentile`), a batch-size histogram, queue-depth gauges, and
  exact acceptance/rejection counters; JSON-safe ``summary()`` with a
  lossless :meth:`ServerReport.from_summary` round-trip.
* :class:`HttpFrontend` — a plain-asyncio HTTP/1.1 binding
  (``GET /recommend?user=…&k=…``, ``/report``, ``/health``; keep-alive
  connections, typed errors mapped to 4xx/5xx). ``python -m repro.cli
  serve-http`` wires it against a model artifact or a sharded fleet.

Works unchanged over a :class:`~repro.service.ServingEngine` or a
:class:`~repro.service.ShardedEngine` — both implement ``recommend_many``.
The ``read-hot-http`` and ``read-cold`` workloads of ``benchmarks/e2e``
drive the whole stack with seeded open- and closed-loop load, and
``tests/service/test_serving_floors.py`` holds batching to a same-run
floor over the unbatched server.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.exceptions import (
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ShardUnavailableError,
)
from repro.utils.timer import per_second
from repro.utils.validation import (
    as_exclude_array,
    check_non_negative_int,
    check_positive_int,
)

__all__ = ["percentile", "ServerReport", "BatchingServer", "HttpFrontend"]


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile of ``samples`` by linear interpolation.

    Matches numpy's default (``method='linear'``) on sorted data: rank
    ``(n - 1) · q/100`` interpolated between its floor and ceiling
    neighbours — so ``percentile(x, 50)`` of an even-length sample is the
    midpoint of the two central values, and 0/100 are the min/max. Pure
    python on a copied, sorted list; deterministic for any input order.
    Empty input clamps to 0.0 ("not measurable"), mirroring
    :func:`~repro.utils.timer.per_second`.
    """
    if isinstance(q, bool) or not isinstance(q, (int, float, np.floating,
                                                 np.integer)):
        raise ConfigError(f"q must be a number in [0, 100]; got {q!r}")
    q = float(q)
    if not (math.isfinite(q) and 0.0 <= q <= 100.0):
        raise ConfigError(f"q must be in [0, 100]; got {q}")
    data = sorted(float(s) for s in samples)
    if not data:
        return 0.0
    rank = (len(data) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    fraction = rank - low
    return data[low] + (data[high] - data[low]) * fraction


@dataclass
class ServerReport:
    """A snapshot of the front end's lifetime accounting.

    Attributes
    ----------
    n_accepted:
        Requests admitted to the queue (every one of these resolved as
        completed, failed, or deadline-rejected — nothing is dropped
        silently).
    n_completed / n_failed:
        Requests answered with a ranked list / failed with an engine-side
        error fanned back to the caller.
    n_rejected_overload / n_rejected_deadline:
        Typed rejections: shed at admission (queue full) / abandoned on a
        missed deadline. ``n_rejected_deadline`` counts requests that were
        admitted first, so the books balance as
        ``accepted == completed + failed + deadline + in-flight``.
    n_batches / batch_sizes:
        Cohort solves run, and the exact histogram of their sizes
        (``{size: count}``, abandoned requests excluded) — the direct
        evidence of how well arrivals coalesce.
    latency_ms_* :
        Percentiles/mean/max over the completed requests' enqueue→response
        wall-clock, in milliseconds, computed over a bounded window of the
        most recent ``latency_window`` samples.
    queue_depth / max_queue_depth:
        Pending requests at snapshot time, and the high-water mark.
    seconds:
        Server uptime at snapshot time (0.0 before :meth:`~BatchingServer.start`).
    """

    n_accepted: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_rejected_overload: int = 0
    n_rejected_deadline: int = 0
    n_batches: int = 0
    batch_sizes: dict = field(default_factory=dict)
    latency_ms_p50: float = 0.0
    latency_ms_p95: float = 0.0
    latency_ms_p99: float = 0.0
    latency_ms_mean: float = 0.0
    latency_ms_max: float = 0.0
    queue_depth: int = 0
    max_queue_depth: int = 0
    seconds: float = 0.0

    @property
    def requests_per_second(self) -> float:
        """Completed-request throughput over the uptime; clamped to 0.0
        when the clock resolved no time (:func:`~repro.utils.timer.per_second`
        — ``inf`` would corrupt JSON summaries)."""
        return per_second(self.n_completed, self.seconds)

    @property
    def mean_batch_size(self) -> float:
        solved = sum(size * count for size, count in self.batch_sizes.items())
        return solved / self.n_batches if self.n_batches else 0.0

    def summary(self) -> dict:
        """One JSON-safe summary row (histogram keys stringified for JSON)."""
        return {
            "accepted": self.n_accepted,
            "completed": self.n_completed,
            "failed": self.n_failed,
            "rejected_overload": self.n_rejected_overload,
            "rejected_deadline": self.n_rejected_deadline,
            "batches": self.n_batches,
            "mean_batch": round(self.mean_batch_size, 2),
            "batch_sizes": {str(size): count
                            for size, count in sorted(self.batch_sizes.items())},
            "p50_ms": round(self.latency_ms_p50, 3),
            "p95_ms": round(self.latency_ms_p95, 3),
            "p99_ms": round(self.latency_ms_p99, 3),
            "mean_ms": round(self.latency_ms_mean, 3),
            "max_ms": round(self.latency_ms_max, 3),
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "seconds": round(self.seconds, 4),
            "requests_per_sec": round(self.requests_per_second, 1),
        }

    @classmethod
    def from_summary(cls, payload: dict) -> "ServerReport":
        """Rebuild a report from :meth:`summary` output (JSON round-trip).

        ``summary() -> json.dumps -> json.loads -> from_summary -> summary()``
        is lossless up to the rounding ``summary`` itself applies, so the
        JSON that :class:`HttpFrontend`'s ``GET /report`` answers with reads
        back into an equal report.
        """
        return cls(
            n_accepted=int(payload["accepted"]),
            n_completed=int(payload["completed"]),
            n_failed=int(payload["failed"]),
            n_rejected_overload=int(payload["rejected_overload"]),
            n_rejected_deadline=int(payload["rejected_deadline"]),
            n_batches=int(payload["batches"]),
            batch_sizes={int(size): int(count)
                         for size, count in payload["batch_sizes"].items()},
            latency_ms_p50=float(payload["p50_ms"]),
            latency_ms_p95=float(payload["p95_ms"]),
            latency_ms_p99=float(payload["p99_ms"]),
            latency_ms_mean=float(payload["mean_ms"]),
            latency_ms_max=float(payload["max_ms"]),
            queue_depth=int(payload["queue_depth"]),
            max_queue_depth=int(payload["max_queue_depth"]),
            seconds=float(payload["seconds"]),
        )


@dataclass
class _Request:
    """One queued recommend request (internal to the batching loop)."""

    user: int
    k: int
    exclude_rated: bool
    exclude: np.ndarray
    future: asyncio.Future
    enqueued: float


_STOP = object()  # queue sentinel: drain what's left, then exit the loop


def _check_timeout_ms(timeout_ms) -> float | None:
    """``None``, or a deadline as a finite float > 0 (ConfigError if not)."""
    if timeout_ms is None:
        return None
    if isinstance(timeout_ms, bool) or not isinstance(
            timeout_ms, (int, float, np.floating, np.integer)):
        raise ConfigError(
            f"timeout_ms must be a positive number or None; got {timeout_ms!r}"
        )
    timeout_ms = float(timeout_ms)
    if not (math.isfinite(timeout_ms) and timeout_ms > 0):
        raise ConfigError(
            f"timeout_ms must be a finite number > 0; got {timeout_ms}"
        )
    return timeout_ms


class BatchingServer:
    """Coalesce concurrent single-user requests into cohort solves.

    Parameters
    ----------
    engine:
        A :class:`~repro.service.ServingEngine` or
        :class:`~repro.service.ShardedEngine` — anything exposing the
        ``recommend_many`` batch hook (and per-user validation via
        ``_check_user``/``dataset._check_user``).
    max_batch_size:
        Most requests coalesced into one solve. ``1`` disables batching —
        the configuration the bench uses as its baseline.
    max_delay_ms:
        Longest the batching loop waits for stragglers after the first
        request of a batch arrives. ``0`` drains only what is already
        queued. This is the knob trading tail latency (each request can
        wait up to one delay window) for throughput (bigger cohorts per
        solve). A lone request waits the whole window: the loop cannot
        know that no straggler will come, so it solves a batch of one
        only once the window has passed.
    max_queue:
        Bound on pending admitted requests. Arrivals beyond it are shed at
        admission with :class:`~repro.exceptions.OverloadedError` — load
        shedding is explicit and counted, memory stays bounded.
    timeout_ms:
        Default per-request deadline (``None`` = wait forever). A request
        that misses it gets :class:`~repro.exceptions.DeadlineExceededError`;
        if it is still queued it is skipped before the solve.
    latency_window:
        Latency samples kept for percentile reporting (a bounded ring —
        a long-lived server's memory does not grow with traffic).

    Use as an async context manager, or call :meth:`start` / :meth:`stop`.
    All methods must be called from the event loop that started the
    server; the engine solve itself runs on a dedicated worker thread.
    """

    def __init__(self, engine, max_batch_size: int = 32,
                 max_delay_ms: float = 2.0, max_queue: int = 1024,
                 timeout_ms: float | None = None,
                 latency_window: int = 65536):
        if not callable(getattr(engine, "recommend_many", None)):
            raise ConfigError(
                f"{type(engine).__name__} has no recommend_many batch hook; "
                "pass a ServingEngine or ShardedEngine"
            )
        self.engine = engine
        self.max_batch_size = check_positive_int(max_batch_size,
                                                 "max_batch_size")
        if isinstance(max_delay_ms, bool) or not isinstance(
                max_delay_ms, (int, float, np.floating, np.integer)):
            raise ConfigError(
                f"max_delay_ms must be a number >= 0; got {max_delay_ms!r}"
            )
        self.max_delay_ms = float(max_delay_ms)
        if not (math.isfinite(self.max_delay_ms) and self.max_delay_ms >= 0):
            raise ConfigError(
                f"max_delay_ms must be a finite number >= 0; got {max_delay_ms}"
            )
        self.max_queue = check_positive_int(max_queue, "max_queue")
        self.timeout_ms = _check_timeout_ms(timeout_ms)
        self.latency_window = check_positive_int(latency_window,
                                                 "latency_window")
        self._queue: asyncio.Queue | None = None
        self._loop_task: asyncio.Task | None = None
        # The one solve thread, owned by the server between start() and
        # stop(). The loop's default pool would start a second thread
        # whenever a batch is submitted before the last solve's thread
        # has marked itself idle.
        self._executor: ThreadPoolExecutor | None = None
        self._running = False
        self._started_at = 0.0
        self._latencies_s: list[float] = []  # ring-bounded, see _record
        self._latency_cursor = 0
        self.n_accepted = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_rejected_overload = 0
        self.n_rejected_deadline = 0
        self.n_batches = 0
        self.batch_sizes: Counter = Counter()
        self.max_queue_depth = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "BatchingServer":
        """Bind to the running event loop and start the batching loop."""
        if self._running:
            raise ConfigError("server already started")
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="repro-solve")
        self._running = True
        self._started_at = time.perf_counter()
        self._loop_task = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop admitting, drain the queue, then exit.

        Requests admitted before ``stop`` are still solved and answered —
        callers awaiting them never hang; arrivals after ``stop`` are
        rejected with :class:`~repro.exceptions.OverloadedError`.
        """
        if not self._running:
            return
        self._running = False  # admission closes immediately
        self._queue.put_nowait(_STOP)
        await self._loop_task
        self._loop_task = None
        self._queue = None
        self._executor.shutdown()  # idle: the drained loop awaited every solve
        self._executor = None

    async def __aenter__(self) -> "BatchingServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- serving -------------------------------------------------------------

    async def recommend(self, user: int, k: int = 10,
                        exclude_rated: bool = True, exclude=None,
                        timeout_ms: float | None = None):
        """Top-``k`` for one user through the admission queue.

        Validation runs synchronously at admission (a malformed request is
        the caller's error, never the batch's), backpressure is applied
        here (queue full → :class:`~repro.exceptions.OverloadedError`),
        and the returned list is bit-identical to
        ``engine.recommend(user, k, exclude_rated, exclude)``.
        ``timeout_ms`` overrides the server default for this request.
        """
        if not self._running:
            raise OverloadedError("server is not running (start() it first)")
        k = check_positive_int(k, "k")
        timeout_ms = _check_timeout_ms(timeout_ms)
        banned = as_exclude_array(exclude)
        checker = getattr(self.engine, "_check_user", None)
        if checker is None:
            checker = self.engine.dataset._check_user
        checker(user)
        if self._queue.qsize() >= self.max_queue:
            self.n_rejected_overload += 1
            raise OverloadedError(
                f"admission queue is full ({self.max_queue} pending); "
                "request shed — retry later"
            )
        future = asyncio.get_running_loop().create_future()
        request = _Request(user=int(user), k=k, exclude_rated=bool(exclude_rated),
                           exclude=banned, future=future,
                           enqueued=time.perf_counter())
        self.n_accepted += 1
        self._queue.put_nowait(request)
        self.max_queue_depth = max(self.max_queue_depth, self._queue.qsize())
        timeout = self.timeout_ms if timeout_ms is None else timeout_ms
        if timeout is None:
            return await future
        try:
            # wait_for cancels the future on timeout; the batching loop
            # treats a done (cancelled) future as abandoned and skips it.
            return await asyncio.wait_for(future, timeout / 1000.0)
        except asyncio.TimeoutError:
            self.n_rejected_deadline += 1
            raise DeadlineExceededError(
                f"request for user {int(user)} missed its {timeout:g} ms "
                "deadline"
            ) from None

    # -- batching loop -------------------------------------------------------

    async def _batch_loop(self) -> None:
        queue = self._queue
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await queue.get()
            if first is _STOP:
                break
            batch = [first]
            if self.max_batch_size > 1 and self.max_delay_ms > 0:
                deadline = loop.time() + self.max_delay_ms / 1000.0
                while len(batch) < self.max_batch_size:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                    if item is _STOP:
                        stopping = True
                        break
                    batch.append(item)
            # Opportunistic drain: whatever is already queued joins the
            # cohort for free (also the whole strategy when max_delay is 0).
            while len(batch) < self.max_batch_size and not queue.empty():
                item = queue.get_nowait()
                if item is _STOP:
                    stopping = True
                    break
                batch.append(item)
            await self._serve_batch(batch)
        # Drain-after-stop: everything admitted before stop() still gets
        # an answer, in max_batch_size cohorts.
        pending = []
        while not queue.empty():
            item = queue.get_nowait()
            if item is not _STOP:
                pending.append(item)
        for start in range(0, len(pending), self.max_batch_size):
            await self._serve_batch(pending[start:start + self.max_batch_size])

    async def _serve_batch(self, batch: list) -> None:
        """One coalesced solve: group → recommend_many → fan out futures."""
        live = [request for request in batch if not request.future.done()]
        if not live:
            return  # every request abandoned (deadline) while queued
        self.n_batches += 1
        self.batch_sizes[len(live)] += 1
        groups: dict[tuple, list] = {}
        for request in live:
            groups.setdefault((request.k, request.exclude_rated),
                              []).append(request)
        loop = asyncio.get_running_loop()
        for (k, exclude_rated), requests in groups.items():
            users = [request.user for request in requests]
            excludes = [request.exclude for request in requests]
            try:
                ranked_lists = await loop.run_in_executor(
                    self._executor,
                    partial(self.engine.recommend_many, users, k=k,
                            exclude_rated=exclude_rated, excludes=excludes),
                )
            except Exception as exc:  # engine failure fans out per request
                for request in requests:
                    if not request.future.done():
                        self.n_failed += 1
                        request.future.set_exception(exc)
                continue
            now = time.perf_counter()
            for request, ranked in zip(requests, ranked_lists):
                if request.future.done():
                    continue  # deadline fired mid-solve; discard the rows
                if isinstance(ranked, Exception):
                    # Per-position failure (the process fleet's degraded
                    # mode returns ShardUnavailableError at positions a
                    # down shard owns): only those requests fail; the
                    # rest of the cohort completes normally.
                    self.n_failed += 1
                    request.future.set_exception(ranked)
                    continue
                request.future.set_result(ranked)
                self.n_completed += 1
                self._record(now - request.enqueued)

    def _record(self, latency_s: float) -> None:
        """Append to the bounded latency ring (overwrites oldest)."""
        if len(self._latencies_s) < self.latency_window:
            self._latencies_s.append(latency_s)
        else:
            self._latencies_s[self._latency_cursor] = latency_s
            self._latency_cursor = (self._latency_cursor + 1) % self.latency_window

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently pending in the admission queue."""
        return self._queue.qsize() if self._queue is not None else 0

    def report(self) -> ServerReport:
        """Snapshot the lifetime accounting as a :class:`ServerReport`."""
        samples_ms = [1000.0 * s for s in self._latencies_s]
        return ServerReport(
            n_accepted=self.n_accepted,
            n_completed=self.n_completed,
            n_failed=self.n_failed,
            n_rejected_overload=self.n_rejected_overload,
            n_rejected_deadline=self.n_rejected_deadline,
            n_batches=self.n_batches,
            batch_sizes=dict(self.batch_sizes),
            latency_ms_p50=percentile(samples_ms, 50),
            latency_ms_p95=percentile(samples_ms, 95),
            latency_ms_p99=percentile(samples_ms, 99),
            latency_ms_mean=(sum(samples_ms) / len(samples_ms)
                             if samples_ms else 0.0),
            latency_ms_max=max(samples_ms, default=0.0),
            queue_depth=self.queue_depth,
            max_queue_depth=self.max_queue_depth,
            seconds=(time.perf_counter() - self._started_at
                     if self._started_at else 0.0),
        )

    def __repr__(self) -> str:
        return (
            f"BatchingServer(engine={type(self.engine).__name__}, "
            f"max_batch_size={self.max_batch_size}, "
            f"max_delay_ms={self.max_delay_ms}, max_queue={self.max_queue}, "
            f"running={self._running})"
        )


# -- HTTP binding ------------------------------------------------------------

_MAX_HEADER_BYTES = 16384


class HttpFrontend:
    """Minimal plain-asyncio HTTP/1.1 binding over a :class:`BatchingServer`.

    Endpoints (all GET, JSON responses):

    * ``/recommend?user=U[&k=K][&exclude_rated=true|false]``
      ``[&exclude=I1,I2,…][&timeout_ms=T]`` → ``{"user", "k", "items",
      "labels", "scores"}``, bit-identical to ``engine.recommend`` (JSON
      floats round-trip exactly — the parity the CLI self-test asserts).
    * ``/report`` → the server's :meth:`BatchingServer.report` summary.
    * ``/health`` → the engine's ``health()`` payload when it has one
      (per-shard state, restart counters), else ``{"status": "ok"}``.
      Skips the admission queue; answers **503** whenever the engine
      reports anything but ``"ok"`` — a degraded process fleet flips the
      probe while its healthy shards keep serving ``/recommend``.

    Typed errors map to status codes: bad parameters → 400, unknown
    user/path → 404, :class:`~repro.exceptions.OverloadedError` → 429,
    :class:`~repro.exceptions.ShardUnavailableError` → 503 (degraded
    fleet; the payload names the down shard),
    :class:`~repro.exceptions.DeadlineExceededError` → 504, anything
    else → 500. Connections are keep-alive unless the client sends
    ``Connection: close``, or a request declares a body
    (``Content-Length`` other than 0, or any ``Transfer-Encoding``): no
    request body is read, so that request is answered with
    ``Connection: close`` and the connection is closed. So is a header
    block over 16 KiB, with **431**. Deliberately
    stdlib-only: the transport is a demo/bench binding, the batching core
    is the product.
    """

    def __init__(self, server: BatchingServer, host: str = "127.0.0.1",
                 port: int = 0):
        if not isinstance(server, BatchingServer):
            raise ConfigError(
                f"HttpFrontend requires a BatchingServer; "
                f"got {type(server).__name__}"
            )
        self.server = server
        self.host = host
        self.port = check_non_negative_int(port, "port")
        self._asyncio_server: asyncio.AbstractServer | None = None

    async def start(self) -> "HttpFrontend":
        """Bind and listen; ``port=0`` picks an ephemeral port (see
        :attr:`port` afterwards for the actual one)."""
        if self._asyncio_server is not None:
            raise ConfigError("HTTP frontend already started")
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._asyncio_server is None:
            return
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        self._asyncio_server = None

    async def __aenter__(self) -> "HttpFrontend":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except asyncio.LimitOverrunError:
                    # Past the stream's own 64 KiB limit: too large as well.
                    raw = None
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if raw is None or len(raw) > _MAX_HEADER_BYTES:
                    await self._respond(writer, 431, {
                        "error": "request header too large"}, close=True)
                    break
                head = raw.decode("latin-1").split("\r\n")
                parts = head[0].split()
                if len(parts) != 3:
                    await self._respond(writer, 400, {
                        "error": "malformed request line"}, close=True)
                    break
                method, target, _version = parts
                headers = {}
                for line in head[1:]:
                    if ":" in line:
                        name, value = line.split(":", 1)
                        headers[name.strip().lower()] = value.strip()
                close = headers.get("connection", "").lower() == "close"
                # A body is never read, so the next request could not be
                # told from it: answer this one, then drop the connection.
                if ("transfer-encoding" in headers
                        or headers.get("content-length", "0") != "0"):
                    close = True
                if method.upper() != "GET":
                    await self._respond(writer, 405, {
                        "error": f"method {method} not allowed; use GET"},
                        close=close)
                elif not await self._dispatch(writer, target, close):
                    break
                if close:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, writer, target: str, close: bool) -> bool:
        """Route one request; returns False when the connection must drop."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        if path == "/health":
            # Engines with a health hook (sharded tiers, the process
            # fleet) report per-shard state; a degraded fleet answers 503
            # so load balancers stop routing here while healthy shards
            # keep serving the /recommend traffic they own.
            probe = getattr(self.server.engine, "health", None)
            payload = probe() if callable(probe) else {"status": "ok"}
            status = 200 if payload.get("status") == "ok" else 503
            await self._respond(writer, status, payload, close=close)
            return True
        if path == "/report":
            await self._respond(writer, 200, self.server.report().summary(),
                                close=close)
            return True
        if path != "/recommend":
            await self._respond(writer, 404, {
                "error": f"unknown path {split.path!r}; use /recommend, "
                         "/report or /health"}, close=close)
            return True
        try:
            params = self._recommend_params(parse_qs(split.query))
        except ConfigError as exc:
            await self._respond(writer, 400, {"error": str(exc)}, close=close)
            return True
        try:
            ranked = await self.server.recommend(**params)
        except OverloadedError as exc:
            await self._respond(writer, 429, {"error": str(exc)}, close=close)
            return True
        except DeadlineExceededError as exc:
            await self._respond(writer, 504, {"error": str(exc)}, close=close)
            return True
        except ShardUnavailableError as exc:
            await self._respond(writer, 503, {"error": str(exc),
                                              "shard": exc.shard}, close=close)
            return True
        except ReproError as exc:
            status = 404 if "unknown user" in str(exc) else 400
            await self._respond(writer, status, {"error": str(exc)},
                                close=close)
            return True
        except Exception as exc:  # engine-side failure: 500, keep serving
            await self._respond(writer, 500, {"error": str(exc)}, close=close)
            return True
        await self._respond(writer, 200, {
            "user": params["user"],
            "k": params["k"],
            "items": [r.item for r in ranked],
            "labels": [str(r.label) for r in ranked],
            "scores": [r.score for r in ranked],
        }, close=close)
        return True

    @staticmethod
    def _recommend_params(query: dict) -> dict:
        """Parse/validate ``/recommend`` query parameters (ConfigError on bad)."""

        def single(name):
            values = query.get(name)
            if values is None:
                return None
            if len(values) != 1:
                raise ConfigError(f"parameter {name!r} given more than once")
            return values[0]

        raw_user = single("user")
        if raw_user is None:
            raise ConfigError("missing required parameter 'user'")
        try:
            user = int(raw_user)
        except ValueError:
            raise ConfigError(
                f"parameter 'user' must be an integer; got {raw_user!r}"
            ) from None
        params = {"user": user, "k": 10, "exclude_rated": True,
                  "exclude": None, "timeout_ms": None}
        raw_k = single("k")
        if raw_k is not None:
            try:
                params["k"] = int(raw_k)
            except ValueError:
                raise ConfigError(
                    f"parameter 'k' must be an integer; got {raw_k!r}"
                ) from None
        raw_flag = single("exclude_rated")
        if raw_flag is not None:
            flag = raw_flag.lower()
            if flag not in ("true", "false", "1", "0"):
                raise ConfigError(
                    f"parameter 'exclude_rated' must be true/false; "
                    f"got {raw_flag!r}"
                )
            params["exclude_rated"] = flag in ("true", "1")
        raw_exclude = single("exclude")
        if raw_exclude:
            try:
                params["exclude"] = [int(token)
                                     for token in raw_exclude.split(",")]
            except ValueError:
                raise ConfigError(
                    f"parameter 'exclude' must be comma-separated integers; "
                    f"got {raw_exclude!r}"
                ) from None
        raw_timeout = single("timeout_ms")
        if raw_timeout is not None:
            try:
                params["timeout_ms"] = float(raw_timeout)
            except ValueError:
                raise ConfigError(
                    f"parameter 'timeout_ms' must be a number; "
                    f"got {raw_timeout!r}"
                ) from None
        return params

    @staticmethod
    async def _respond(writer, status: int, payload: dict,
                       close: bool = False) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 429: "Too Many Requests",
                   431: "Request Header Fields Too Large",
                   500: "Internal Server Error",
                   503: "Service Unavailable", 504: "Gateway Timeout"}
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    def __repr__(self) -> str:
        return (
            f"HttpFrontend(host={self.host!r}, port={self.port}, "
            f"listening={self._asyncio_server is not None})"
        )
