"""Import-graph layering checker for the ``repro`` package.

The package forms a DAG; an edge ``A -> B`` below means "modules in A
may import from B".  The transitive closure is spelled out explicitly in
:data:`LAYER_DEPS` so a violation message can name the whole contract:

    audit, calibration        (layer 0: leaf infrastructure)
      ^
    net, pages                (substrate: network + page models)
      ^
    browser, replay           (browser model; record-and-replay)
      ^
    core                      (Vroom itself)
      ^
    baselines                 (strawmen, Polaris, named configs)
      ^
    analysis                  (metrics post-processing)
      ^
    service                   (simulated hint-serving backend)
      ^
    scenario                  (declarative run descriptions)
      ^
    longrun                   (continuous-operation streaming runner)
      ^
    experiments               (figure regeneration, sweeps)
      ^
    cli                       (argparse front end)

``devtools`` sits outside the simulation DAG: it reads source text and
may not import any simulation layer (nor be imported by one).  The
``repro`` package root (``__init__``/``__main__``) is the public facade
and may import everything.

Simulation code can therefore never depend on harness code: ``analysis``,
``experiments``, ``cli``, and ``devtools`` are invisible to every layer
at or below ``baselines``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Protocol, Tuple

from repro.devtools.findings import Finding


class ModuleLike(Protocol):
    """What ``import_edges`` needs from a shared parsed module."""

    path: str
    tree: ast.Module

_LAYER0: FrozenSet[str] = frozenset({"audit", "calibration"})
_SUBSTRATE = _LAYER0 | {"net", "pages"}
_MODELS = _SUBSTRATE | {"browser", "replay"}
_CORE = _MODELS | {"core"}
_SIM = _CORE | {"baselines"}
_ANALYSIS = _SIM | {"analysis"}
_SERVICE = _ANALYSIS | {"service"}
_SCENARIO = _SERVICE | {"scenario"}
_LONGRUN = _SCENARIO | {"longrun"}
_EXPERIMENTS = _LONGRUN | {"experiments"}
_ALL = _EXPERIMENTS | {"cli", "devtools"}

#: layer name -> layers it may import from (its own is always allowed).
LAYER_DEPS: Dict[str, FrozenSet[str]] = {
    "audit": frozenset(),
    "calibration": frozenset(),
    "net": frozenset(_LAYER0),
    "pages": frozenset(_LAYER0),
    "browser": frozenset(_SUBSTRATE),
    "replay": frozenset(_SUBSTRATE),
    "core": frozenset(_MODELS),
    "baselines": frozenset(_CORE),
    "analysis": frozenset(_SIM),
    "service": frozenset(_ANALYSIS),
    "scenario": frozenset(_SERVICE),
    "longrun": frozenset(_SCENARIO),
    "experiments": frozenset(_LONGRUN),
    "cli": frozenset(_EXPERIMENTS | {"devtools"}),
    "devtools": frozenset(),
    "root": frozenset(_ALL),
    "main": frozenset(_ALL | {"root"}),
}

#: Layers whose modules must stay pure (no I/O, no wall clock): everything
#: a simulation result can depend on.
PURE_LAYERS: FrozenSet[str] = frozenset(_SIM)


def layer_of(relative_path: Path) -> str:
    """Map a path inside the package root to its layer name."""
    parts = relative_path.parts
    if len(parts) > 1:
        return parts[0]
    stem = relative_path.stem
    if stem == "__init__":
        return "root"
    if stem == "__main__":
        return "main"
    return stem


def _repro_imports(
    tree: ast.Module, package: str
) -> Iterator[Tuple[int, str]]:
    """(line, imported dotted path) for every intra-package import."""
    prefix = package + "."
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == package or alias.name.startswith(prefix):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                if node.module == package:
                    # ``from repro import audit`` targets the submodule,
                    # not the package facade.
                    for alias in node.names:
                        yield node.lineno, f"{package}.{alias.name}"
                elif node.module.startswith(prefix):
                    yield node.lineno, node.module


def _target_layer(dotted: str, package: str) -> str:
    """Layer of an imported dotted path like ``repro.net.link``."""
    remainder = dotted[len(package):].lstrip(".")
    if not remainder:
        return "root"
    return layer_of(Path(remainder.replace(".", "/") + ".py"))


def import_edges(
    package_root: Path,
    package: str = "repro",
    modules: Optional[List["ModuleLike"]] = None,
) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """(from_layer, to_layer) -> [(path, line), ...] over the package.

    Pass ``modules`` (anything with ``.path`` and ``.tree``, e.g. the
    runner's shared :class:`~repro.devtools.modules.ModuleInfo` list)
    to reuse already-parsed trees instead of re-reading every file.
    """
    edges: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    if modules is None:
        parsed = [
            (
                path.relative_to(package_root),
                ast.parse(path.read_text(), filename=str(path)),
            )
            for path in sorted(package_root.rglob("*.py"))
        ]
    else:
        parsed = [(Path(info.path), info.tree) for info in modules]
    for relative, tree in parsed:
        source_layer = layer_of(relative)
        for line, dotted in _repro_imports(tree, package):
            target = _target_layer(dotted, package)
            if target == source_layer:
                continue
            edges.setdefault((source_layer, target), []).append(
                (relative.as_posix(), line)
            )
    return edges


def check_layering(
    package_root: Path,
    package: str = "repro",
    modules: Optional[List["ModuleLike"]] = None,
) -> List[Finding]:
    """LAY301 for forbidden edges; LAY302 for package-level cycles."""
    findings: List[Finding] = []
    edges = import_edges(package_root, package, modules=modules)
    for (source_layer, target), sites in sorted(edges.items()):
        allowed = LAYER_DEPS.get(source_layer)
        if allowed is None:
            # An unknown top-level module: require an explicit layer
            # assignment rather than silently passing it.
            for path, line in sites:
                findings.append(
                    Finding(
                        code="LAY301",
                        path=path,
                        line=line,
                        message=(
                            f"module in unregistered layer "
                            f"{source_layer!r} — add it to LAYER_DEPS"
                        ),
                    )
                )
            continue
        if target in allowed or target == source_layer:
            continue
        for path, line in sites:
            findings.append(
                Finding(
                    code="LAY301",
                    path=path,
                    line=line,
                    message=(
                        f"layer {source_layer!r} may not import "
                        f"{package}.{target} (allowed: "
                        f"{', '.join(sorted(allowed)) or 'nothing'})"
                    ),
                )
            )
    findings.extend(_cycle_findings(edges))
    return findings


def _cycle_findings(
    edges: Dict[Tuple[str, str], List[Tuple[str, int]]]
) -> List[Finding]:
    """Detect package-level cycles in the *observed* import graph."""
    graph: Dict[str, set] = {}
    for source_layer, target in edges:
        if source_layer in ("root", "main"):
            continue  # the facade legitimately imports everything
        graph.setdefault(source_layer, set()).add(target)
    findings: List[Finding] = []
    visiting: List[str] = []
    done = set()

    def walk(node: str) -> None:
        if node in done:
            return
        if node in visiting:
            cycle = visiting[visiting.index(node):] + [node]
            source_layer, target = cycle[0], cycle[1]
            path, line = edges[(source_layer, target)][0]
            findings.append(
                Finding(
                    code="LAY302",
                    path=path,
                    line=line,
                    message=(
                        "package import cycle: " + " -> ".join(cycle)
                    ),
                )
            )
            return
        visiting.append(node)
        for successor in sorted(graph.get(node, ())):
            walk(successor)
        visiting.pop()
        done.add(node)

    for node in sorted(graph):
        walk(node)
    return findings
