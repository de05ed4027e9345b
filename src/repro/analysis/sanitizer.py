"""Runtime lock-order sanitizer (TSan-style lock witness).

:func:`instrument` swaps an object's ``threading.Lock``/``RLock``
attributes for :class:`SanitizedLock` proxies that report every
acquire/release to a shared :class:`LockOrderSanitizer`.  The sanitizer
keeps a per-thread stack of held locks (with acquisition call sites)
and, *before* delegating to the real ``acquire``:

* raises :class:`LockOrderViolation` when the acquisition inverts the
  rank order declared in ``analysis.toml`` (the violation surfaces as a
  readable report instead of an eventual deadlock);
* raises on re-acquisition of a non-reentrant lock (self-deadlock);
* records the acquisition edge ``held -> acquiring`` in a global
  witness graph and raises when the reverse edge was ever observed —
  the classic potential-deadlock witness, reported with both threads'
  acquisition stacks even though the run happened not to interleave
  fatally.

Opt-in: the test suite enables it via ``REPRO_SANITIZE_LOCKS=1`` (see
``tests/conftest.py``); production code never pays the overhead.
"""

from __future__ import annotations

import importlib
import threading
import traceback
from dataclasses import dataclass, field

from repro.exceptions import ConfigError, ReproError

_LOCK_TYPE = type(threading.Lock())
_RLOCK_TYPE = type(threading.RLock())
_LOCK_TYPES = (_LOCK_TYPE, _RLOCK_TYPE)

_SANITIZER_FILE = __file__


class LockOrderViolation(ReproError):
    """A lock acquisition broke the declared hierarchy (or witnessed a
    potential deadlock); the message is the full two-sided report."""


@dataclass
class _Held:
    name: str
    obj_id: int
    reentrant: bool
    count: int
    stack: list[str] = field(default_factory=list)


def _call_stack(limit: int = 6) -> list[str]:
    """Short acquisition stack, innermost last, sanitizer frames elided."""
    out = []
    for frame in traceback.extract_stack():
        if frame.filename == _SANITIZER_FILE:
            continue
        out.append(f"{frame.filename}:{frame.lineno} in {frame.name}")
    return out[-limit:]


class LockOrderSanitizer:
    """Shared state for every :class:`SanitizedLock` in a test run."""

    def __init__(self, config=None):
        if config is None:
            from repro.analysis.config import load_config
            try:
                config = load_config()
            except ConfigError:
                config = None
        self.config = config
        self._rank: dict[str, int] = {}
        self._reentrant: dict[str, bool] = {}
        self._by_attr: dict[str, list] = {}
        if config is not None:
            self._rank = {name: i for i, name in enumerate(config.order)}
            for spec in config.locks:
                self._reentrant[spec.name] = spec.reentrant
                self._by_attr.setdefault(spec.attr, []).append(spec)
        self._tls = threading.local()
        self._graph_lock = threading.Lock()
        #: (held key, acquired key) -> {"thread", "stack"} witness
        self._edges: dict[tuple[str, str], dict] = {}
        #: every violation report raised, for post-run inspection
        self.violations: list[str] = []

    # -- naming ---------------------------------------------------------------

    def canonical_name(self, attr: str, owner_type: type) -> str | None:
        """Declared name for ``owner.attr``, resolved through the MRO."""
        candidates = self._by_attr.get(attr, [])
        if not candidates:
            return None
        mro_names = {cls.__name__ for cls in owner_type.__mro__}
        for spec in candidates:
            if spec.klass in mro_names:
                return spec.name
        if len(candidates) == 1 and candidates[0].klass is None:
            return candidates[0].name
        return None

    # -- per-thread state -----------------------------------------------------

    def _held(self) -> list[_Held]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def held_names(self) -> list[str]:
        return [entry.name for entry in self._held()]

    # -- acquire / release ----------------------------------------------------

    def before_acquire(self, name: str, lock, reentrant: bool) -> bool:
        """Validate; returns True when this is a counted re-entry.

        Runs *before* the real ``acquire`` so that a genuine inversion
        raises a readable report instead of deadlocking the test run.
        """
        held = self._held()
        for entry in held:
            if entry.obj_id == id(lock):
                if reentrant:
                    return True
                self._raise(self._self_deadlock_report(name, entry))
        my_rank = self._rank.get(name)
        for entry in held:
            if entry.name == name and entry.obj_id != id(lock):
                self._raise(self._same_rank_report(name, entry))
            other_rank = self._rank.get(entry.name)
            if (my_rank is not None and other_rank is not None
                    and other_rank > my_rank):
                self._raise(self._inversion_report(name, entry))
        # Witness pass: record held -> acquiring edges; a pre-existing
        # reverse edge is a potential deadlock even if ranks were silent.
        acquiring_stack = _call_stack()
        thread = threading.current_thread().name
        with self._graph_lock:
            for entry in held:
                reverse = self._edges.get((name, entry.name))
                if reverse is not None:
                    self._raise(self._witness_report(
                        name, entry, reverse, acquiring_stack))
                self._edges.setdefault((entry.name, name), {
                    "thread": thread,
                    "stack": acquiring_stack,
                    "held": entry.name,
                })
        return False

    def after_acquire(self, name: str, lock, reentrant: bool,
                      reenter: bool) -> None:
        held = self._held()
        if reenter:
            for entry in held:
                if entry.obj_id == id(lock):
                    entry.count += 1
                    return
        held.append(_Held(
            name=name, obj_id=id(lock), reentrant=reentrant, count=1,
            stack=_call_stack()))

    def on_release(self, lock) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index].obj_id == id(lock):
                held[index].count -= 1
                if held[index].count == 0:
                    del held[index]
                return
        # Released a lock this thread never (visibly) acquired — e.g.
        # instrumented mid-flight; nothing to unwind.

    # -- reports --------------------------------------------------------------

    def _raise(self, report: str) -> None:
        self.violations.append(report)
        raise LockOrderViolation(report)

    def _order_line(self) -> str:
        if not self._rank:
            return "declared order: (none configured)"
        ordered = sorted(self._rank, key=self._rank.get)
        return "declared order: " + " < ".join(ordered)

    def _held_lines(self) -> list[str]:
        thread = threading.current_thread().name
        lines = [f"thread {thread!r} currently holds:"]
        for entry in self._held():
            lines.append(f"  {entry.name!r} acquired at:")
            lines.extend(f"    {frame}" for frame in entry.stack)
        return lines

    def _inversion_report(self, name: str, entry: _Held) -> str:
        lines = [
            f"lock-order violation: acquiring {name!r} while holding "
            f"{entry.name!r}, which ranks after it",
            self._order_line(),
            *self._held_lines(),
            "acquisition attempted at:",
            *(f"  {frame}" for frame in _call_stack()),
        ]
        return "\n".join(lines)

    def _self_deadlock_report(self, name: str, entry: _Held) -> str:
        lines = [
            f"lock-order violation: re-acquiring non-reentrant lock "
            f"{name!r} already held by this thread (self-deadlock)",
            *self._held_lines(),
            "re-acquisition attempted at:",
            *(f"  {frame}" for frame in _call_stack()),
        ]
        return "\n".join(lines)

    def _same_rank_report(self, name: str, entry: _Held) -> str:
        lines = [
            f"lock-order violation: acquiring {name!r} while holding a "
            f"different instance of the same lock rank "
            f"(two {name!r} objects nested)",
            *self._held_lines(),
            "acquisition attempted at:",
            *(f"  {frame}" for frame in _call_stack()),
        ]
        return "\n".join(lines)

    def _witness_report(self, name: str, entry: _Held, reverse: dict,
                        acquiring_stack: list[str]) -> str:
        thread = threading.current_thread().name
        lines = [
            f"potential deadlock: thread {thread!r} acquires {name!r} "
            f"while holding {entry.name!r}, but thread "
            f"{reverse['thread']!r} previously acquired {entry.name!r} "
            f"while holding {name!r}",
            f"thread {thread!r} holds {entry.name!r} acquired at:",
            *(f"  {frame}" for frame in entry.stack),
            f"thread {thread!r} now acquiring {name!r} at:",
            *(f"  {frame}" for frame in acquiring_stack),
            f"thread {reverse['thread']!r} earlier acquired "
            f"{entry.name!r} (while holding {name!r}) at:",
            *(f"  {frame}" for frame in reverse["stack"]),
        ]
        return "\n".join(lines)


class SanitizedLock:
    """Drop-in Lock/RLock proxy reporting to a LockOrderSanitizer."""

    def __init__(self, lock, sanitizer: LockOrderSanitizer,
                 name: str | None = None):
        self._lock = lock
        self._sanitizer = sanitizer
        self._reentrant = isinstance(lock, _RLOCK_TYPE)
        self._name = name or f"lock@{id(lock):#x}"

    @property
    def name(self) -> str:
        return self._name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        reenter = self._sanitizer.before_acquire(
            self._name, self._lock, self._reentrant)
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            self._sanitizer.after_acquire(
                self._name, self._lock, self._reentrant, reenter)
        return ok

    def release(self) -> None:
        self._sanitizer.on_release(self._lock)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __getattr__(self, item):
        return getattr(self._lock, item)

    def __repr__(self) -> str:
        return f"SanitizedLock({self._name!r}, {self._lock!r})"


def wrap(lock, sanitizer: LockOrderSanitizer,
         name: str | None = None) -> SanitizedLock:
    """Wrap one bare lock under an explicit canonical name."""
    if isinstance(lock, SanitizedLock):
        return lock
    return SanitizedLock(lock, sanitizer, name)


def instrument(obj, sanitizer: LockOrderSanitizer, _depth: int = 0):
    """Swap ``obj``'s lock attributes for sanitized proxies, in place.

    Descends one level into list/tuple attributes so container objects
    (e.g. the fleet's ``_workers`` list) get their elements' locks
    instrumented too; bare locks held in a list (e.g. the in-process
    fleet's ``_shard_locks``) are wrapped in place under the name the
    list attribute declares.  Returns ``obj``.
    """
    attrs = getattr(obj, "__dict__", None)
    if attrs is None or isinstance(obj, SanitizedLock):
        return obj
    for attr, value in list(attrs.items()):
        name = (sanitizer.canonical_name(attr, type(obj))
                or f"{type(obj).__name__}.{attr}")
        if isinstance(value, _LOCK_TYPES):
            setattr(obj, attr, SanitizedLock(value, sanitizer, name))
        elif _depth == 0 and isinstance(value, (list, tuple)):
            for position, item in enumerate(value):
                if isinstance(item, _LOCK_TYPES) and isinstance(value, list):
                    value[position] = SanitizedLock(item, sanitizer, name)
                else:
                    instrument(item, sanitizer, _depth=1)
    return obj


#: Classes whose instances are instrumented automatically when the
#: pytest fixture flag is on.  (module, class) pairs, resolved lazily.
AUTO_INSTRUMENT_CLASSES = (
    ("repro.service.engine", "ServingEngine"),
    # Both shard fleets subclass the router, whose constructor creates
    # every router lock (and sees the process fleet's worker list).
    ("repro.service.sharding", "ShardRouter"),
    ("repro.service.fleet", "_ShardWorker"),
    ("repro.graph.cache", "TransitionCache"),
    ("repro.core.graph_base", "RandomWalkRecommender"),
    ("repro.solver.operator", "WalkOperator"),
)


def auto_instrument(sanitizer: LockOrderSanitizer):
    """Patch the serving classes so every new instance is instrumented.

    Returns a zero-argument ``restore()`` undoing the patches.
    """
    undo = []
    for module_name, class_name in AUTO_INSTRUMENT_CLASSES:
        module = importlib.import_module(module_name)
        cls = getattr(module, class_name)
        original = cls.__init__

        def wrapped(self, *args, __original=original, **kwargs):
            __original(self, *args, **kwargs)
            instrument(self, sanitizer)

        wrapped.__wrapped__ = original
        cls.__init__ = wrapped
        undo.append((cls, original))

    def restore() -> None:
        for cls, original in undo:
            cls.__init__ = original

    return restore
