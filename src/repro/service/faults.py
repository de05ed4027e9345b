"""Deterministic fault injection for the multi-process shard fleet.

Failure-injection tests need crashes that happen at an *exact, repeatable*
point in a worker's request stream — "the worker dies while applying the
second update batch", not "kill it and hope the race lands". A
:class:`FaultSpec` encodes one such scripted failure; the fleet supervisor
hands it to the target shard's worker process at spawn time and the worker
loop (:mod:`repro.service.fleet`) consults it before serving each request:

* ``kill_at_request=N`` — the worker SIGKILLs itself upon receiving its
  N-th *serving* request (``recommend_many``, which a single
  ``recommend`` also sends, or ``serve_cohort``; health pings don't
  count, so supervision traffic never perturbs the script). Models a
  hard crash mid-read.
* ``hang_at_request=N`` — instead of dying, the worker sleeps
  ``hang_seconds`` before answering its N-th serving request, long enough
  to trip the supervisor's per-request timeout. Models a wedged worker
  (deadlock, runaway solve) that is alive but not answering.
* ``crash_mid_update`` — the worker SIGKILLs itself inside
  ``apply_updates``: ``"before-apply"`` dies before mutating any state,
  ``"after-apply"`` mutates the engine and dies *before acknowledging* —
  the hard case, because recovery must not double-apply. Either way the
  supervisor restarts from the artifact and replays the write-ahead log,
  so recovered state is bit-identical to a never-crashed fleet.

By default a spec arms only the worker's **first** incarnation: after the
supervisor restarts the shard, the replacement runs clean (the common
"crash once, recover" scenario). ``persistent=True`` re-arms the spec on
every restart, which — combined with the supervisor's bounded retry
budget — produces a deterministic *down* shard for degraded-serving tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigError

__all__ = ["FaultSpec", "CRASH_POINTS"]

#: Where inside ``apply_updates`` a ``crash_mid_update`` fault fires.
CRASH_POINTS = ("before-apply", "after-apply")


@dataclass(frozen=True)
class FaultSpec:
    """One scripted worker failure (see module docstring for semantics).

    Attributes
    ----------
    kill_at_request:
        1-based serving-request count at which the worker SIGKILLs itself
        (``None`` = never).
    hang_at_request:
        1-based serving-request count at which the worker sleeps
        ``hang_seconds`` before responding (``None`` = never).
    hang_seconds:
        Sleep length for ``hang_at_request`` — pick it longer than the
        supervisor's ``request_timeout_s`` so the hang is detected.
    crash_mid_update:
        ``None``, ``"before-apply"`` or ``"after-apply"``: SIGKILL inside
        the next ``apply_updates`` request, before or after the engine
        mutates.
    persistent:
        Re-arm the spec in every restarted incarnation of the worker
        (default False: only the first incarnation is faulty).
    """

    kill_at_request: int | None = None
    hang_at_request: int | None = None
    hang_seconds: float = 5.0
    crash_mid_update: str | None = None
    persistent: bool = False

    def __post_init__(self):
        for name in ("kill_at_request", "hang_at_request"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value < 1):
                raise ConfigError(
                    f"{name} must be a positive int or None; got {value!r}"
                )
        if not isinstance(self.hang_seconds, (int, float)) \
                or isinstance(self.hang_seconds, bool) \
                or self.hang_seconds < 0:
            raise ConfigError(
                f"hang_seconds must be a number >= 0; got {self.hang_seconds!r}"
            )
        if self.crash_mid_update is not None \
                and self.crash_mid_update not in CRASH_POINTS:
            raise ConfigError(
                f"crash_mid_update must be one of {CRASH_POINTS} or None; "
                f"got {self.crash_mid_update!r}"
            )

    @property
    def is_noop(self) -> bool:
        """True when the spec injects nothing (all triggers disabled)."""
        return (self.kill_at_request is None
                and self.hang_at_request is None
                and self.crash_mid_update is None)
