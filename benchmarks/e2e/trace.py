"""Spans recorded from outside the program, for the per-layer breakdown.

:class:`Tracer` replaces a callable by ``setattr`` at the name its caller
looks it up under (an instance attribute, a class attribute or a module
global) with a wrapper that records one span per call: name, start, end,
the enclosing span and optional attributes. The enclosing span lives in a
:class:`contextvars.ContextVar`, which is per thread in threads and per
task in asyncio tasks, so concurrent requests on the event loop and solves
on executor threads never adopt each other's spans. Spans stay in memory
and are written as JSON lines at the end; :meth:`Tracer.restore` puts every
original back.

A span's *self time* is its duration minus the time covered by the spans
directly under it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time

_MISSING = object()


class Span:
    """One recorded call (``parent`` is the enclosing :class:`Span`)."""

    __slots__ = ("name", "t0", "t1", "parent", "attrs", "child_s")

    def __init__(self, name: str, t0: float, parent: "Span | None"):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.attrs = None
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """In-memory span recorder that instruments callables by ``setattr``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None)
        self._patches: list[tuple] = []

    def _open(self, name: str) -> tuple[Span, contextvars.Token]:
        span = Span(name, time.perf_counter(), self._current.get())
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: Span, token, attrs, args, kwargs, result) -> None:
        span.t1 = time.perf_counter()
        self._current.reset(token)
        if span.parent is not None:
            span.parent.child_s += span.seconds
        if attrs is not None and result is not _MISSING:
            span.attrs = attrs(args, kwargs, result)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``attrs(args, kwargs, result)`` returns the span's attributes; it
        runs after the call, outside the timed interval.
        """
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, token = self._open(name)
                result = _MISSING
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    self._close(span, token, attrs, args, kwargs, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, token = self._open(name)
                result = _MISSING
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    self._close(span, token, attrs, args, kwargs, result)
        # Remember what the owner itself held (a class attribute reached
        # through an instance was not held by the instance).
        held = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, held))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, held = self._patches.pop()
            if held is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, held)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, ids in recording order."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "parent": (None if span.parent is None
                               else ids.get(id(span.parent))),
                    "name": span.name,
                    "t0": span.t0,
                    "t1": span.t1,
                    "self_s": span.self_seconds,
                    "attrs": span.attrs,
                }) + "\n")
