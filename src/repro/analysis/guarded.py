"""Guarded-attribute checker.

Attributes declared ``# guarded-by: <lock>`` may only be read or
written while that lock is lexically held (a ``with`` block in the same
function), or inside a method whose name ends in ``_locked`` (the
repo's caller-holds-the-lock convention), or inside ``__init__`` /
``__setstate__`` of the declaring class or a subclass (construction
happens before the object is shared).  Declarations on a base class
cover ``self.X`` accesses in its subclasses' methods.  Everything else is a finding — to be fixed, or
baselined with a written justification when the unlocked access is
benign by design (e.g. monotone reads documented at the site).
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import Program

RULE = "guarded-attribute"

_CONSTRUCTION = {"__init__", "__setstate__", "__getstate__"}


def check(program: Program) -> list[Finding]:
    by_class: dict[tuple[str | None, str], list] = {}
    #: (alias base name, attr) -> decls, per [guarded.base_aliases]
    by_alias: dict[tuple[str, str], list] = {}
    aliases = program.config.guarded_aliases
    for decl in program.guarded:
        by_class.setdefault((decl.klass, decl.attr), []).append(decl)
        for base in aliases.get(decl.klass or "", ()):
            by_alias.setdefault((base, decl.attr), []).append(decl)
    if not by_class:
        return []

    findings: list[Finding] = []
    seen: set[str] = set()
    for func in program.functions:
        lineage = program.lineage(func.klass)
        for access in func.accesses:
            if access.base == "self":
                decls = next((by_class[(klass, access.attr)]
                              for klass in lineage
                              if (klass, access.attr) in by_class), [])
            else:
                decls = by_alias.get((access.base, access.attr), [])
            if not decls:
                continue
            if func.name.endswith("_locked"):
                continue
            if (func.name in _CONSTRUCTION
                    and access.base == "self"
                    and any(d.klass in lineage for d in decls)):
                continue
            held = {h.lock for h in access.held}
            if any(d.lock in held for d in decls):
                continue
            locks = sorted({d.lock for d in decls})
            klass = decls[0].klass or "*"
            key = (f"{RULE}:{func.file}:{func.qualname}:"
                   f"{klass}.{access.attr}")
            if key in seen:
                continue
            seen.add(key)
            kind = "write to" if access.is_write else "read of"
            held_note = (f"holding {sorted(held)}" if held
                         else "holding no lock")
            findings.append(Finding(
                rule=RULE, file=func.file, line=access.line,
                message=(
                    f"{func.qualname}: {kind} "
                    f"{access.base}.{access.attr} (guarded by "
                    f"{', '.join(repr(lk) for lk in locks)}, declared at "
                    f"{decls[0].file}:{decls[0].line}) while {held_note}"
                ),
                key=key,
                chain=[{
                    "file": decls[0].file, "line": decls[0].line,
                    "note": f"guarded-by declaration for {access.attr}",
                }]))
    return findings
