"""Lint findings and the rule registry.

A finding's identity for baseline matching is ``(path, code, message,
occurrence)`` — deliberately *not* the line number, so unrelated edits
moving code around do not invalidate the baseline, while a second
identical violation in the same file still counts as new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Rule registry: code -> one-line description.  ``repro lint --rules``
#: prints this table; tests assert every rule has fixture coverage.
RULES: Dict[str, str] = {
    "DET101": (
        "iteration over an unordered set/frozenset — order follows "
        "PYTHONHASHSEED; wrap in sorted() or deduplicate with dict.fromkeys()"
    ),
    "DET102": (
        "iteration over dict.keys() — iterate the dict itself (insertion "
        "order) or sorted(d) to make the intended order explicit"
    ),
    "DET103": (
        "unseeded randomness — random.Random() without a seed, or a "
        "module-level random.* / numpy.random.* call, draws from global "
        "process state"
    ),
    "DET104": (
        "wall-clock read inside a pure simulation layer — simulated time "
        "comes from Simulator.now, never time.time()/datetime.now()"
    ),
    "DET105": (
        "builtin hash()/id() feeding ordering or keys — hash() of a str "
        "is PYTHONHASHSEED-dependent and id() varies per process; use "
        "hashlib/zlib.crc32 or a stable attribute"
    ),
    "PUR201": (
        "I/O inside a pure simulation layer — print/open/os.environ and "
        "friends belong to the harness layers (experiments/analysis/cli)"
    ),
    "LAY301": (
        "layering violation — module imports a package its layer may not "
        "depend on (see LAYER_DEPS in repro.devtools.layering)"
    ),
    "LAY302": (
        "package-level import cycle — two or more packages import each "
        "other, so no layering order exists for them"
    ),
    "CFG601": (
        "undocumented knob — a registered config dataclass field has no "
        "row in its docs/API.md knob table"
    ),
    "CFG602": (
        "ghost knob — docs/API.md documents a field (or class) the code "
        "no longer defines"
    ),
    "CFG603": (
        "default drift — a knob's default differs between the config "
        "dataclass and docs/API.md or a cli.py flag"
    ),
}

#: Rule family (``--only-family`` filter) -> its code prefixes.
FAMILIES: Dict[str, Tuple[str, ...]] = {
    "det": ("DET", "PUR"),
    "layering": ("LAY",),
    "config": ("CFG",),
}


def family_of(code: str) -> str:
    """The rule family a code belongs to."""
    for family, prefixes in FAMILIES.items():
        if code.startswith(prefixes):
            return family
    raise ValueError(f"unknown rule code {code!r}")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str  # posix path relative to the linted package root
    line: int
    message: str
    #: 0-based index among findings in the same file with the same
    #: (code, message); keeps duplicate violations distinct in baselines
    #: without pinning fragile line numbers.
    occurrence: int = 0

    @property
    def key(self) -> Tuple[str, str, str, int]:
        return (self.path, self.code, self.message, self.occurrence)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "occurrence": self.occurrence,
        }
