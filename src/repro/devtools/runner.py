"""Lint orchestration: file walking, pragmas, reports.

``lint_package`` runs every rule family over a package tree, applies
inline pragmas and the baseline, and returns a :class:`LintReport` that
renders as human text or JSON (for CI).

Every module is read and parsed exactly **once** per run: the
det/purity rules, the layering checker and the CFG6xx drift pass all
share the same :class:`~repro.devtools.modules.ModuleInfo` list.

Rule families (``--only-family``) and individual codes (``--select``)
narrow a run; the baseline is narrowed with them, so selecting only
``CFG601`` never reports unrelated baseline entries as stale.  An entry
whose code is not a known rule can never match and is stale on every
run, filtered or not.

Inline suppression::

    value = risky_thing()  # repro: allow[DET105] reason for the waiver

waives the named rule(s) on that line only.  When the flagged line is
too long to carry the comment, put the pragma on a comment-only line
directly above — it waives the next code line.  Pragmas are for cases the
surrounding code explains; cross-cutting debt belongs in the baseline
file, where a ``reason`` is mandatory.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.devtools.astrules import scan_tree
from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.driftrules import scan_config
from repro.devtools.findings import FAMILIES, RULES, Finding
from repro.devtools.layering import PURE_LAYERS, check_layering, layer_of
from repro.devtools.modules import parse_package

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s]+)\]")


def _pragmas(source: str) -> Dict[int, frozenset]:
    """line number -> rule codes waived on that line.

    A pragma on a comment-only line waives the next code line instead
    (skipping further comment lines), so a long flagged statement can
    carry its waiver — and the reason — on the line above without
    breaking the line-length budget.
    """
    lines = source.splitlines()
    out: Dict[int, frozenset] = {}
    for number, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        codes = frozenset(
            code.strip() for code in match.group(1).split(",")
        )
        target = number
        if text.lstrip().startswith("#"):
            for other in range(number + 1, len(lines) + 1):
                stripped = lines[other - 1].lstrip()
                if stripped and not stripped.startswith("#"):
                    target = other
                    break
        out[target] = out.get(target, frozenset()) | codes
    return out


@dataclass
class LintStats:
    """One run's cost, for the ``--stats`` line."""

    files: int = 0
    rules: int = 0
    findings_total: int = 0
    duration_s: float = 0.0

    def render(self) -> str:
        return (
            f"stats: {self.files} file(s), {self.rules} rule(s), "
            f"{self.findings_total} raw finding(s), "
            f"{self.duration_s * 1000.0:.0f} ms"
        )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    #: Violations not covered by a pragma or the baseline: these fail CI.
    findings: List[Finding] = field(default_factory=list)
    #: Violations waived by an inline ``# repro: allow[...]`` pragma.
    waived: List[Finding] = field(default_factory=list)
    #: Violations matched by a baseline entry.
    suppressed: List[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing: the debt was paid, remove
    #: the entry.  These fail CI too, to keep the baseline exact.
    stale: List[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    stats: LintStats = field(default_factory=LintStats)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.stale

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render_human(self, stats: bool = False) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(finding.render())
        for entry in self.stale:
            lines.append(
                f"{entry.path}: stale baseline entry {entry.code} "
                f"({entry.message!r}) — the violation is gone; remove it"
            )
        lines.append(
            f"{len(self.findings)} finding(s), {len(self.stale)} stale "
            f"baseline entr(ies), {len(self.suppressed)} baselined, "
            f"{len(self.waived)} waived by pragma; "
            f"{self.files_scanned} file(s) scanned"
        )
        if stats:
            lines.append(self.stats.render())
        return "\n".join(lines)

    def render_json(self) -> str:
        payload = {
            "findings": [finding.as_dict() for finding in self.findings],
            "stale_baseline": [entry.as_dict() for entry in self.stale],
            "summary": {
                "findings": len(self.findings),
                "stale_baseline": len(self.stale),
                "suppressed": len(self.suppressed),
                "waived": len(self.waived),
                "files_scanned": self.files_scanned,
                "clean": self.clean,
            },
            "stats": {
                "files": self.stats.files,
                "rules": self.stats.rules,
                "duration_s": round(self.stats.duration_s, 6),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _assign_occurrences(findings: List[Finding]) -> List[Finding]:
    """Number duplicate (path, code, message) findings in source order."""
    counts: Dict[Tuple[str, str, str], int] = {}
    out: List[Finding] = []
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.code)):
        key = (finding.path, finding.code, finding.message)
        index = counts.get(key, 0)
        counts[key] = index + 1
        out.append(
            Finding(
                code=finding.code,
                path=finding.path,
                line=finding.line,
                message=finding.message,
                occurrence=index,
            )
        )
    return out


def resolve_selection(
    select: Optional[Iterable[str]] = None,
    families: Optional[Iterable[str]] = None,
) -> Set[str]:
    """The set of rule codes a run covers.

    ``select`` names codes or code prefixes (``CFG``, ``CFG601``);
    ``families`` names rule families (``det``, ``layering``,
    ``config``).  Both given: the intersection.  Neither: every rule.
    Unknown names raise ``ValueError`` so typos fail loudly instead of
    silently linting nothing.
    """
    codes: Set[str] = set(RULES)
    if families is not None:
        chosen: Set[str] = set()
        for family in families:
            if family not in FAMILIES:
                raise ValueError(
                    f"unknown rule family {family!r} "
                    f"(families: {', '.join(sorted(FAMILIES))})"
                )
            chosen.update(
                code
                for code in RULES
                if code.startswith(FAMILIES[family])
            )
        codes &= chosen
    if select is not None:
        chosen = set()
        for pattern in select:
            matched = {code for code in RULES if code.startswith(pattern)}
            if not matched:
                raise ValueError(
                    f"--select {pattern!r} matches no known rule"
                )
            chosen.update(matched)
        codes &= chosen
    return codes


def _default_docs_text(package_root: Path) -> Optional[str]:
    """docs/API.md relative to the conventional src/<pkg> layout."""
    docs = package_root.parent.parent / "docs" / "API.md"
    if docs.is_file():
        return docs.read_text()
    return None


def lint_package(
    package_root: Path,
    baseline: Optional[Baseline] = None,
    package: str = "repro",
    select: Optional[Iterable[str]] = None,
    families: Optional[Iterable[str]] = None,
    docs_text: Optional[str] = None,
) -> LintReport:
    """Lint every ``*.py`` under ``package_root`` (a package directory).

    Finding paths are posix-relative to ``package_root``; layer purity
    and the layering DAG are derived from the first path segment.
    ``docs_text`` overrides the content of ``docs/API.md`` for the
    CFG6xx pass (default: read from ``<root>/../../docs/API.md`` when
    present, else the docs-side checks are skipped).
    """
    started = time.perf_counter()
    package_root = Path(package_root)
    codes = resolve_selection(select, families)
    report = LintReport()

    modules = parse_package(package_root, package)
    report.files_scanned = len(modules)

    raw: List[Finding] = []
    if any(code.startswith(("DET", "PUR")) for code in codes):
        for info in modules:
            raw.extend(
                scan_tree(
                    info.tree,
                    info.path,
                    pure=layer_of(Path(info.path)) in PURE_LAYERS,
                )
            )
    if any(code.startswith("CFG") for code in codes):
        if docs_text is None:
            docs_text = _default_docs_text(package_root)
        raw.extend(scan_config(modules, docs_text))
    if any(code.startswith("LAY") for code in codes):
        raw.extend(check_layering(package_root, package, modules=modules))

    raw = [finding for finding in raw if finding.code in codes]

    # Inline pragma waivers, against the shared per-module sources.
    pragmas_by_path = {
        info.path: _pragmas(info.source) for info in modules
    }
    kept: List[Finding] = []
    for finding in raw:
        waivers = pragmas_by_path.get(finding.path, {})
        waived_codes = waivers.get(finding.line)
        if waived_codes is not None and (
            finding.code in waived_codes or "ALL" in waived_codes
        ):
            report.waived.append(finding)
        else:
            kept.append(finding)

    numbered = _assign_occurrences(kept)
    # Narrow the baseline to the selected codes: a CFG-only run must
    # not report DET/PUR baseline entries as stale.  Entries for codes
    # no rule emits stay in, so they show up as stale on every run.
    full = baseline or Baseline()
    narrowed = Baseline(
        entries=[
            entry
            for entry in full.entries
            if entry.code in codes or entry.code not in RULES
        ]
    )
    new, suppressed, stale = narrowed.partition(numbered)
    report.findings = new
    report.suppressed = suppressed
    report.stale = stale
    report.stats = LintStats(
        files=len(modules),
        rules=len(codes),
        findings_total=len(raw),
        duration_s=time.perf_counter() - started,
    )
    return report
