"""Declarative configuration for the analysis engine (``analysis.toml``).

The config names every lock in the serving stack, binds it to the
``(attribute, class)`` pair that holds it, and fixes a linear extension
of the documented acquisition order.  Both the static checkers and the
runtime sanitizer consume the same file, so the hierarchy cannot drift
between lint time and test time.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigError

CONFIG_NAME = "analysis.toml"
BASELINE_NAME = "analysis-baseline.json"


@dataclass(frozen=True)
class LockSpec:
    """One declared lock: canonical name plus its resolution anchors."""

    name: str
    attr: str
    klass: str | None = None
    reentrant: bool = False


@dataclass
class AnalysisConfig:
    """Parsed ``analysis.toml``."""

    locks: list[LockSpec] = field(default_factory=list)
    order: list[str] = field(default_factory=list)
    no_blocking_under: list[str] = field(default_factory=list)
    blocking_calls: list[str] = field(default_factory=list)
    taxonomy_allowed: list[str] = field(default_factory=list)
    #: class name -> base variable names that trigger non-self
    #: guarded-attribute matching (e.g. _ShardWorker -> ["worker"])
    guarded_aliases: dict[str, list[str]] = field(default_factory=dict)
    path: Path | None = None

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.locks]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"duplicate lock names in {self.path or CONFIG_NAME}"
            )
        unknown = [n for n in self.order if n not in set(names)]
        if unknown:
            raise ConfigError(
                f"locks.order names undeclared locks {unknown} "
                f"in {self.path or CONFIG_NAME}"
            )
        self._rank = {name: i for i, name in enumerate(self.order)}
        self._by_name = {spec.name: spec for spec in self.locks}

    def rank(self, name: str) -> int | None:
        """Position of ``name`` in the declared order, or None if unranked."""
        return self._rank.get(name)

    def spec(self, name: str) -> LockSpec | None:
        return self._by_name.get(name)

    def resolve(self, attr: str, klass) -> LockSpec | None:
        """Map an attribute access to a declared lock.

        ``klass`` is the class the attribute lives on when known (the
        enclosing class for ``self.X``, None for ``other.X``), either one
        name or a lineage list — the class, then its ancestors — in which
        the first class with an ``(attr, class)`` declaration wins, so a
        lock declared once on a base class covers its subclasses.  With a
        class, only such declarations match; a class-less access matches
        iff exactly one declaration uses the attribute name, so
        ``worker.lock`` resolves while an ambiguous bare ``._lock`` (four
        declarations) stays unresolved.
        """
        candidates = [spec for spec in self.locks if spec.attr == attr]
        if klass is not None:
            for name in ([klass] if isinstance(klass, str) else klass):
                for spec in candidates:
                    if spec.klass == name:
                        return spec
            return None
        if len(candidates) == 1:
            return candidates[0]
        return None


def find_config(start: Path | None = None) -> Path | None:
    """Walk upward from ``start`` (default cwd) looking for analysis.toml."""
    here = (start or Path.cwd()).resolve()
    for directory in [here, *here.parents]:
        candidate = directory / CONFIG_NAME
        if candidate.is_file():
            return candidate
    return None


def load_config(path: str | Path | None = None) -> AnalysisConfig:
    """Load ``analysis.toml`` from ``path`` or the nearest ancestor dir."""
    if path is None:
        found = find_config()
        if found is None:
            raise ConfigError(
                f"no {CONFIG_NAME} found in the current directory or any "
                "parent; pass --config explicitly"
            )
        path = found
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw = tomllib.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"analysis config not found: {path}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"malformed {path}: {exc}") from None

    locks_tbl = raw.get("locks", {})
    declares = []
    for entry in locks_tbl.get("declare", []):
        try:
            declares.append(LockSpec(
                name=entry["name"],
                attr=entry["attr"],
                klass=entry.get("class"),
                reentrant=bool(entry.get("reentrant", False)),
            ))
        except KeyError as exc:
            raise ConfigError(
                f"[[locks.declare]] entry in {path} is missing {exc}"
            ) from None
    blocking = raw.get("blocking", {})
    taxonomy = raw.get("taxonomy", {})
    guarded = raw.get("guarded", {})
    aliases = {
        klass: list(bases)
        for klass, bases in guarded.get("base_aliases", {}).items()
    }
    return AnalysisConfig(
        locks=declares,
        order=list(locks_tbl.get("order", [])),
        no_blocking_under=list(blocking.get("no_blocking_under", [])),
        blocking_calls=list(blocking.get("blocking_calls", [])),
        taxonomy_allowed=list(taxonomy.get("allowed", [])),
        guarded_aliases=aliases,
        path=path,
    )
