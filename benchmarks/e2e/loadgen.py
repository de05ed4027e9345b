"""Open- and closed-loop load from one asyncio thread.

Every request goes through a ``send(user)`` coroutine that returns
``(response, sent)``: the response object and the ``perf_counter`` time
the request actually left the client. The generators wrap each call in a
:class:`Sample` and never raise: a failed request is a sample whose
``error`` is set.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Sample:
    """One request: when it was due, sent and answered, and its outcome."""

    user: int
    due: float
    sent: float
    done: float
    response: object = None
    error: Exception | None = None

    @property
    def latency_s(self) -> float:
        """Due-to-answer time: an open-loop stall counts against every
        request that was scheduled behind it."""
        return self.done - self.due


async def _timed(send, user: int, due: float, samples: list) -> None:
    try:
        response, sent = await send(user)
    except Exception as exc:  # a failed request is a result, not a crash
        samples.append(Sample(user, due, due, time.perf_counter(), error=exc))
        return
    samples.append(Sample(user, due, sent, time.perf_counter(), response))


def arrival_offsets(rng: np.random.Generator | None, rate: float,
                    seconds: float, arrivals: str) -> np.ndarray:
    """Send times in ``[0, seconds)`` at ``rate`` per second.

    ``"poisson"`` draws exponential gaps from ``rng``; ``"uniform"`` spaces
    requests evenly (used where each request is so expensive that a run
    holds too few of them for Poisson queueing to repeat from seed to seed).
    """
    if arrivals == "uniform":
        return np.arange(0.0, seconds, 1.0 / rate)
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps) - gaps[0]
    return offsets[offsets < seconds]


async def open_loop(send, users, offsets) -> tuple[list[Sample], list[float]]:
    """Fire ``users[i]`` at ``offsets[i]`` regardless of completions.

    Returns the samples and the generator's lateness per request (how far
    behind its schedule the generator itself launched it).
    """
    samples: list[Sample] = []
    lateness: list[float] = []
    tasks = []
    start = time.perf_counter() + 0.005
    for user, offset in zip(users, offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(_timed(send, int(user), due, samples)))
    await asyncio.gather(*tasks)
    return samples, lateness


async def closed_loop(send, next_user, concurrency: int, *,
                      count: int | None = None,
                      seconds: float | None = None,
                      ) -> tuple[list[Sample], float]:
    """``concurrency`` callers, each sending its next request on an answer.

    Stops issuing after ``count`` requests or ``seconds``; requests already
    in flight are awaited. Returns the samples and the elapsed time up to
    the last answer.
    """
    samples: list[Sample] = []
    issued = 0
    start = time.perf_counter()

    async def caller():
        nonlocal issued
        while ((count is None or issued < count)
               and (seconds is None or time.perf_counter() - start < seconds)):
            issued += 1
            await _timed(send, int(next_user()), time.perf_counter(), samples)

    await asyncio.gather(*(caller() for _ in range(concurrency)))
    last = max((sample.done for sample in samples), default=start)
    return samples, last - start


class HttpClient:
    """Keep-alive HTTP/1.1 connections to the front end, one request at a
    time on each (no pipelining)."""

    def __init__(self, host: str, port: int, n_connections: int):
        self.host = host
        self.port = port
        self.n_connections = n_connections
        self._connections: list = []
        self._next = 0

    async def open(self) -> "HttpClient":
        for _ in range(self.n_connections):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self._connections.append((asyncio.Lock(), reader, writer))
        return self

    async def close(self) -> None:
        """Close every socket (before the front end stops, so its
        connection handlers end on EOF rather than on cancellation)."""
        for _, _, writer in self._connections:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._connections = []

    def _pick(self):
        for connection in self._connections:
            if not connection[0].locked():
                return connection
        self._next = (self._next + 1) % len(self._connections)
        return self._connections[self._next]

    async def recommend(self, user: int, k: int) -> tuple[dict, float]:
        """``GET /recommend``; returns the decoded body (with ``status``)
        and the time the request was written."""
        lock, reader, writer = self._pick()
        async with lock:
            sent = time.perf_counter()
            writer.write(f"GET /recommend?user={user}&k={k} HTTP/1.1\r\n"
                         f"Host: {self.host}\r\n\r\n".encode("latin-1"))
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = json.loads(await reader.readexactly(length))
        body["status"] = int(lines[0].split()[1])
        return body, sent
