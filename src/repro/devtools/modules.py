"""The parsed package every rule family reads.

``lint_package`` reads and parses each module exactly once per run;
the det/purity rules, the layering checker and the CFG6xx drift pass
all share the one :class:`ModuleInfo` list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List


@dataclass
class ModuleInfo:
    """One parsed module, shared by every rule family."""

    path: str  # posix path relative to the package root
    module: str  # dotted module name, e.g. ``repro.net.link``
    source: str
    tree: ast.Module


def parse_package(package_root: Path, package: str = "repro") -> List[ModuleInfo]:
    """Parse every module under ``package_root`` exactly once."""
    package_root = Path(package_root)
    modules: List[ModuleInfo] = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        dotted = relative[:-3].replace("/", ".")
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        module = package if dotted == "__init__" else f"{package}.{dotted}"
        source = path.read_text()
        modules.append(
            ModuleInfo(
                path=relative,
                module=module,
                source=source,
                tree=ast.parse(source, filename=relative),
            )
        )
    return modules
