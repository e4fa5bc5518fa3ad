"""CFG6xx: config/contract drift between dataclasses, docs, and CLI.

The knob tables in ``docs/API.md`` are a promise: every field on a
registered config dataclass appears in exactly one table, with the
*code's* default.  PR 7 fixed knob/doc drift by hand; this pass makes
the promise machine-checked:

* **CFG601** — a dataclass field (or a whole registered dataclass) with
  no row in its docs knob table: an undocumented knob.
* **CFG602** — a docs row (or registered class) whose field no longer
  exists in code: documentation of a removed knob.
* **CFG603** — both sides exist but the defaults disagree — in docs, or
  between a ``cli.py`` flag and the dataclass it mirrors.

A table is bound to its dataclass by an HTML-comment marker directly
above it::

    <!-- knobs: repro.service.backend.ServiceConfig -->
    | knob | default | meaning |
    | --- | --- | --- |
    | `shards` | `8` | consistent-hash ring geometry (shard count) |

Defaults are compared *semantically*: both sides are parsed and
re-rendered with ``ast.unparse``, so ``100_000`` in docs matches
``100000`` in code and quote style never matters — but any value drift
is bit-for-bit. Fields without a default use the literal cell text
``required``.

The CLI check is narrower by design: ``cli.py`` intentionally exposes a
subset of knobs, so missing flags are fine — but a flag whose ``dest``
names a registered knob and carries an explicit ``default=`` must match
one of the dataclass defaults of that name (CFG603 otherwise).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.devtools.findings import Finding
from repro.devtools.modules import ModuleInfo

#: The registered contract surface: every dataclass here must have a
#: marker-bound knob table in docs/API.md.  BatchScheduler is absent on
#: purpose — it takes plain constructor kwargs, not a config dataclass.
DEFAULT_CONTRACTS: Tuple[str, ...] = (
    "repro.net.http.NetworkConfig",
    "repro.net.faults.FaultPlan",
    "repro.net.faults.ResiliencePolicy",
    "repro.scenario.spec.ScenarioSpec",
    "repro.service.backend.ServiceConfig",
    "repro.service.store.StoreConfig",
    "repro.service.workload.WorkloadConfig",
)

_MARKER = re.compile(r"<!--\s*knobs:\s*([\w.]+)\s*-->")
_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*`([^`]*)`\s*\|")

#: Docs cell text for a field with no default.
REQUIRED = "required"


@dataclass(frozen=True)
class KnobField:
    """One field of a config dataclass, as the code defines it."""

    name: str
    line: int
    #: Normalised default expression text; ``None`` means required.
    default: Optional[str]


@dataclass(frozen=True)
class DocRow:
    """One row of a docs knob table."""

    name: str
    default_text: str
    line: int


def normalize_default(text: str) -> str:
    """Canonical spelling of a default expression (via ast round-trip)."""
    try:
        return ast.unparse(ast.parse(text.strip(), mode="eval"))
    except SyntaxError:
        return text.strip()


def dataclass_fields(node: ast.ClassDef) -> List[KnobField]:
    """The annotated fields of a (data)class, in declaration order."""
    fields: List[KnobField] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = ast.unparse(stmt.annotation)
        if annotation.startswith("ClassVar"):
            continue
        default: Optional[str] = None
        if stmt.value is not None:
            default = normalize_default(ast.unparse(stmt.value))
        fields.append(KnobField(name=name, line=stmt.lineno, default=default))
    return fields


def parse_knob_tables(docs_text: str) -> Dict[str, List[DocRow]]:
    """``<!-- knobs: dotted.Class -->`` marker -> rows of its table."""
    tables: Dict[str, List[DocRow]] = {}
    lines = docs_text.splitlines()
    index = 0
    while index < len(lines):
        match = _MARKER.search(lines[index])
        if not match:
            index += 1
            continue
        dotted = match.group(1)
        rows: List[DocRow] = []
        index += 1
        # Tolerate blank lines between the marker and the table header.
        while index < len(lines) and not lines[index].strip():
            index += 1
        # Consume the table: header, separator, then data rows.
        seen_header = False
        while index < len(lines) and lines[index].lstrip().startswith("|"):
            row = _ROW.match(lines[index].strip())
            if row and seen_header:
                rows.append(
                    DocRow(
                        name=row.group(1),
                        default_text=row.group(2),
                        line=index + 1,
                    )
                )
            else:
                seen_header = True
            index += 1
        tables[dotted] = rows
    return tables


def _find_class(
    modules: List[ModuleInfo], dotted: str
) -> Tuple[Optional[ModuleInfo], Optional[ast.ClassDef]]:
    module_name, _, class_name = dotted.rpartition(".")
    for info in modules:
        if info.module != module_name:
            continue
        for stmt in info.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == class_name:
                return info, stmt
        return info, None
    return None, None


def _argparse_defaults(
    cli: ModuleInfo,
) -> Dict[str, List[Tuple[int, str]]]:
    """dest -> [(line, normalised default text)] for every CLI flag."""
    out: Dict[str, List[Tuple[int, str]]] = {}
    for node in ast.walk(cli.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            continue
        dest: Optional[str] = None
        default: Optional[str] = None
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value.startswith("--"):
                    dest = arg.value.lstrip("-").replace("-", "_")
        for keyword in node.keywords:
            if keyword.arg == "dest" and isinstance(
                keyword.value, ast.Constant
            ):
                dest = str(keyword.value.value)
            elif keyword.arg == "default":
                default = normalize_default(ast.unparse(keyword.value))
        if dest is not None and default is not None:
            out.setdefault(dest, []).append((node.lineno, default))
    return out


def scan_config(
    modules: List[ModuleInfo],
    docs_text: Optional[str],
    contracts: Tuple[str, ...] = DEFAULT_CONTRACTS,
) -> List[Finding]:
    """Cross-check registered dataclasses against docs and the CLI.

    ``docs_text`` is the content of ``docs/API.md``; ``None`` (no docs
    in the linted tree) skips the docs-side checks entirely, so linting
    a bare fixture package stays silent.
    """
    findings: List[Finding] = []
    tables = parse_knob_tables(docs_text) if docs_text is not None else {}

    #: field name -> normalised defaults across every registered class,
    #: for the CLI cross-check (a flag must match *one* of them).
    code_defaults: Dict[str, List[str]] = {}

    for dotted in contracts:
        info, node = _find_class(modules, dotted)
        if info is None:
            continue  # module not part of this tree (fixture package)
        if node is None:
            findings.append(
                Finding(
                    code="CFG602",
                    path=info.path,
                    line=1,
                    message=(
                        f"registered config class `{dotted}` no longer "
                        "exists — remove it from the contract registry "
                        "and its docs/API.md table"
                    ),
                )
            )
            continue
        fields = dataclass_fields(node)
        for knob in fields:
            if knob.default is not None:
                code_defaults.setdefault(knob.name, []).append(knob.default)
        if docs_text is None:
            continue
        rows = tables.get(dotted)
        if rows is None:
            findings.append(
                Finding(
                    code="CFG601",
                    path=info.path,
                    line=node.lineno,
                    message=(
                        f"`{node.name}` has no `<!-- knobs: {dotted} -->` "
                        "table in docs/API.md — document every field"
                    ),
                )
            )
            continue
        by_name = {row.name: row for row in rows}
        for knob in fields:
            row = by_name.pop(knob.name, None)
            if row is None:
                findings.append(
                    Finding(
                        code="CFG601",
                        path=info.path,
                        line=knob.line,
                        message=(
                            f"`{node.name}.{knob.name}` missing from its "
                            "docs/API.md knob table"
                        ),
                    )
                )
                continue
            documented = (
                None
                if row.default_text.strip() == REQUIRED
                else normalize_default(row.default_text)
            )
            if documented != knob.default:
                findings.append(
                    Finding(
                        code="CFG603",
                        path=info.path,
                        line=knob.line,
                        message=(
                            f"`{node.name}.{knob.name}` default drift: "
                            f"code has `{knob.default or REQUIRED}`, "
                            f"docs/API.md line {row.line} says "
                            f"`{row.default_text}`"
                        ),
                    )
                )
        for row in by_name.values():
            findings.append(
                Finding(
                    code="CFG602",
                    path=info.path,
                    line=node.lineno,
                    message=(
                        f"docs/API.md line {row.line} documents "
                        f"`{node.name}.{row.name}` which the class no "
                        "longer defines"
                    ),
                )
            )

    # -- CLI flag surface --------------------------------------------------
    cli = next((info for info in modules if info.path == "cli.py"), None)
    if cli is not None and code_defaults:
        for dest, sites in sorted(_argparse_defaults(cli).items()):
            expected = code_defaults.get(dest)
            if expected is None:
                continue  # flag does not mirror a registered knob
            for line, default in sites:
                if default in expected or default == "None":
                    # ``default=None`` is argparse for "flag not given";
                    # the config's own default then applies downstream.
                    continue
                findings.append(
                    Finding(
                        code="CFG603",
                        path=cli.path,
                        line=line,
                        message=(
                            f"CLI flag `--{dest.replace('_', '-')}` "
                            f"default `{default}` drifts from the config "
                            f"dataclass default(s) "
                            f"{', '.join(f'`{e}`' for e in sorted(set(expected)))}"
                        ),
                    )
                )
    return findings
