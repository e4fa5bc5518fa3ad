"""Project-wide, import-resolved call graph with hot-region propagation.

The PERF4xx rules need to know *where the engine spends its time* before
they can complain about an allocation: a comprehension in a report
formatter is fine, the same comprehension inside the link's refresh tick
is a per-tick allocation.  "Hot" is therefore a property of the call
graph, not of a single module:

1. **Seeds.**  A function or method whose ``def`` line (or the line
   directly above it) carries a ``# repro: hotpath`` pragma is a hot
   seed.  The pragma is a *contract*: the author promises the function
   runs on the per-event/per-lookup path, and in exchange every function
   it can reach inherits the hot-path rules (see ARCHITECTURE.md, "The
   hot-path contract").
2. **Edges.**  Calls are resolved statically, best-effort, never by
   executing code: plain names to module functions (through ``import``
   / ``from .. import`` aliases), ``self.method()`` / ``cls.method()``
   to the enclosing class, ``Class()`` to ``Class.__init__``, and
   ``module.func()`` through module aliases.
3. **Dynamic dispatch fallback.**  ``obj.method()`` with an unknown
   receiver falls back to *every* project class method of that name —
   hotness must over-approximate or a one-line indirection would hide a
   hot callee.  Ubiquitous container-method names (``get``, ``pop``,
   ``append``, ...) are excluded from the fallback, or every dict
   lookup in the tree would pull unrelated classes into the hot set.
4. **Propagation.**  Hotness is the transitive closure of the seeds
   over the edges; cycles are fine (the walk is a plain BFS with a
   visited set) and each hot function remembers the chain that heated
   it, so a finding can say *why* the region is hot.

Graphs are cached in-process keyed on every source file's
``(path, mtime, size)``: rule families and repeated ``lint_package``
calls (the test suite runs dozens) share one build per tree state.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

_HOTPATH_PRAGMA = re.compile(r"#\s*repro:\s*hotpath\b")

#: Method names too generic for the dynamic-dispatch fallback: they are
#: overwhelmingly builtin container/str operations, and linking every
#: ``d.get(...)`` to every project class that happens to define ``get``
#: would melt the hot set into "everything".
UBIQUITOUS_METHODS = frozenset(
    {
        "add", "append", "clear", "copy", "count", "discard", "extend",
        "get", "index", "insert", "items", "join", "keys", "pop",
        "popitem", "remove", "replace", "setdefault", "sort", "split",
        "start", "startswith", "endswith", "strip", "update", "values",
        "write", "read", "close", "encode", "decode", "format", "lower",
        "upper", "run",
    }
)


@dataclass
class ModuleInfo:
    """One parsed module, shared by every rule family."""

    path: str  # posix path relative to the package root
    module: str  # dotted module name, e.g. ``repro.net.link``
    source: str
    tree: ast.Module


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # ``module:func`` or ``module:Class.method``
    path: str
    line: int
    node: ast.AST
    class_name: Optional[str] = None
    hot_seed: bool = False


@dataclass
class ClassInfo:
    """One class definition (for PERF405's ``__slots__`` check)."""

    qualname: str  # ``module:Class``
    name: str
    path: str
    has_slots: bool
    is_exception: bool
    #: Decorator spelling like ``dataclass`` / ``dataclass(frozen=True)``.
    is_dataclass: bool = False


@dataclass
class CallGraph:
    """The resolved project call graph plus the propagated hot set."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: caller qualname -> callee qualnames (deterministic order).
    edges: Dict[str, List[str]] = field(default_factory=dict)
    #: hot qualname -> human chain, e.g. ``seeded`` or ``via A <- B``.
    hot: Dict[str, str] = field(default_factory=dict)
    #: class simple name -> [class qualnames] (dispatch fallback index).
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: module -> local alias -> dotted module (``import x.y as z``).
    module_aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module -> local name -> (module, symbol) (``from m import s``).
    from_imports: Dict[str, Dict[str, Tuple[str, str]]] = field(
        default_factory=dict
    )
    #: module -> class simple name -> class qualname (locally defined).
    classes_by_module: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def is_hot(self, qualname: str) -> bool:
        return qualname in self.hot

    def hot_functions(self) -> List[FunctionInfo]:
        # Hot names can include bare class qualnames (``Class()`` calls
        # on classes with no explicit ``__init__``) — only function
        # bodies are scannable.
        return [
            self.functions[name]
            for name in sorted(self.hot)
            if name in self.functions
        ]

    def resolve_class(
        self, module: str, func: ast.expr
    ) -> Optional[ClassInfo]:
        """The project class a call target names, if any.

        Handles local classes, ``from``-imported classes, and
        ``module.Class`` through import aliases.  Returns ``None`` for
        anything that is not (knowably) a project class.
        """
        local_classes = self.classes_by_module.get(module, {})
        from_imports = self.from_imports.get(module, {})
        aliases = self.module_aliases.get(module, {})

        def lookup(target_module: str, symbol: str) -> Optional[ClassInfo]:
            qualname = self.classes_by_module.get(target_module, {}).get(
                symbol
            )
            return self.classes.get(qualname) if qualname else None

        if isinstance(func, ast.Name):
            if func.id in local_classes:
                return self.classes.get(local_classes[func.id])
            if func.id in from_imports:
                return lookup(*from_imports[func.id])
            return None
        dotted = _dotted(func)
        if dotted is None or "." not in dotted:
            return None
        base, _, symbol = dotted.rpartition(".")
        head, _, rest = base.partition(".")
        if head in aliases:
            target_module = aliases[head] + (f".{rest}" if rest else "")
            return lookup(target_module, symbol)
        if head in from_imports and not rest:
            origin_module, origin_symbol = from_imports[head]
            return lookup(f"{origin_module}.{origin_symbol}", symbol)
        return lookup(base, symbol)


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


def _pragma_lines(source: str) -> Set[int]:
    """Line numbers carrying a ``# repro: hotpath`` pragma."""
    out: Set[int] = set()
    for number, text in enumerate(source.splitlines(), start=1):
        if _HOTPATH_PRAGMA.search(text):
            out.add(number)
    return out


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class _ModuleCollector(ast.NodeVisitor):
    """First pass over one module: definitions, imports, pragma seeds."""

    def __init__(self, info: ModuleInfo, hot_lines: Set[int]):
        self.info = info
        self.hot_lines = hot_lines
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: local alias -> dotted module (``import repro.net.link as l``).
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, symbol) (``from repro.net import link``).
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        self._class_stack: List[str] = []

    def _is_hot_def(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return line in self.hot_lines or (line - 1) in self.hot_lines

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        if node.level:
            # Relative import: anchor it at this module's package.
            parts = self.info.module.split(".")
            base = ".".join(parts[: len(parts) - node.level])
            module = f"{base}.{node.module}" if base else node.module
        else:
            module = node.module
        for alias in node.names:
            self.from_imports[alias.asname or alias.name] = (module, alias.name)

    def _visit_def(self, node) -> None:
        if self._class_stack:
            name = f"{self._class_stack[-1]}.{node.name}"
            class_name: Optional[str] = self._class_stack[-1]
        else:
            name = node.name
            class_name = None
        qualname = f"{self.info.module}:{name}"
        # First definition wins (redefinitions are vanishingly rare and
        # keeping the first matches source order everywhere else).
        if qualname not in self.functions:
            self.functions[qualname] = FunctionInfo(
                qualname=qualname,
                path=self.info.path,
                line=node.lineno,
                node=node,
                class_name=class_name,
                hot_seed=self._is_hot_def(node),
            )
        # Do not recurse: nested defs belong to their enclosing function's
        # region and are scanned as part of its body.

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._class_stack:
            return  # nested classes: out of scope
        has_slots = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            )
            for stmt in node.body
        )
        is_dataclass = False
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = _dotted(target) or ""
            if name.split(".")[-1] == "dataclass":
                is_dataclass = True
                if isinstance(decorator, ast.Call):
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            has_slots = True
        base_names = [_dotted(base) or "" for base in node.bases]
        is_exception = any(
            name.endswith("Error") or name.endswith("Exception")
            or name.endswith("Warning")
            for name in base_names
        )
        qualname = f"{self.info.module}:{node.name}"
        self.classes[qualname] = ClassInfo(
            qualname=qualname,
            name=node.name,
            path=self.info.path,
            has_slots=has_slots,
            is_exception=is_exception,
            is_dataclass=is_dataclass,
        )
        self._class_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()


def _collect_calls(node: ast.AST) -> List[ast.Call]:
    """Every call expression inside a function body, nested defs included.

    Nested functions and lambdas stay in their enclosing function's
    region: a closure scheduled from a hot function runs on the hot path.
    """
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)]


def build_call_graph(
    modules: List[ModuleInfo], package: str = "repro"
) -> CallGraph:
    """Resolve definitions, edges and hotness over parsed modules."""
    graph = CallGraph()
    collectors: List[_ModuleCollector] = []
    for info in modules:
        collector = _ModuleCollector(info, _pragma_lines(info.source))
        collector.visit(info.tree)
        collectors.append(collector)
        graph.functions.update(collector.functions)
        graph.classes.update(collector.classes)
        graph.module_aliases[info.module] = collector.module_aliases
        graph.from_imports[info.module] = collector.from_imports
        graph.classes_by_module[info.module] = {
            cls.name: cls.qualname for cls in collector.classes.values()
        }

    #: simple function name -> qualnames, per module, for local calls.
    module_functions: Dict[str, Dict[str, str]] = {}
    module_classes: Dict[str, Dict[str, str]] = {}
    for info, collector in zip(modules, collectors):
        module_functions[info.module] = {
            fn.qualname.partition(":")[2]: fn.qualname
            for fn in collector.functions.values()
            if fn.class_name is None
        }
        module_classes[info.module] = {
            cls.name: cls.qualname for cls in collector.classes.values()
        }
    for name, info in graph.functions.items():
        if info.class_name is not None:
            method = name.rpartition(".")[2]
            # Dunders are excluded too: ``super().__init__`` would
            # otherwise dispatch to every constructor in the project.
            if method not in UBIQUITOUS_METHODS and not method.startswith(
                "__"
            ):
                graph.methods_by_name.setdefault(method, []).append(name)

    def resolve_symbol(module: str, symbol: str) -> Optional[str]:
        """A ``module.symbol`` reference to a function/class qualname."""
        functions = module_functions.get(module, {})
        if symbol in functions:
            return functions[symbol]
        classes = module_classes.get(module, {})
        if symbol in classes:
            qualname = classes[symbol]
            if graph.classes[qualname].is_exception:
                # Constructing an exception is the raise path — cold by
                # definition; do not let it heat the handler machinery.
                return None
            init = f"{qualname.partition(':')[0]}:{symbol}.__init__"
            return init if init in graph.functions else qualname
        return None

    for info, collector in zip(modules, collectors):
        local_functions = module_functions[info.module]
        local_classes = module_classes[info.module]
        for fn in collector.functions.values():
            callees: List[str] = []
            seen: Set[str] = set()

            def link(target: Optional[str]) -> None:
                if target is not None and target not in seen:
                    seen.add(target)
                    callees.append(target)

            for call in _collect_calls(fn.node):
                func = call.func
                if isinstance(func, ast.Name):
                    symbol = func.id
                    if symbol in collector.from_imports:
                        module, name = collector.from_imports[symbol]
                        link(resolve_symbol(module, name))
                    elif symbol in local_functions:
                        link(local_functions[symbol])
                    elif symbol in local_classes:
                        link(resolve_symbol(info.module, symbol))
                elif isinstance(func, ast.Attribute):
                    base = _dotted(func.value)
                    method = func.attr
                    if base in ("self", "cls") and fn.class_name is not None:
                        target = (
                            f"{info.module}:{fn.class_name}.{method}"
                        )
                        if target in graph.functions:
                            link(target)
                            continue
                    if base is not None:
                        # ``module.func()`` through an import alias, or
                        # ``pkg.mod.func()`` spelled in full.
                        head, _, rest = base.partition(".")
                        dotted_module = None
                        if head in collector.module_aliases:
                            dotted_module = collector.module_aliases[head]
                            if rest:
                                dotted_module += f".{rest}"
                        elif head in collector.from_imports and not rest:
                            module, name = collector.from_imports[head]
                            dotted_module = f"{module}.{name}"
                        elif base.startswith(package + "."):
                            dotted_module = base
                        if dotted_module is not None:
                            resolved = resolve_symbol(dotted_module, method)
                            if resolved is not None:
                                link(resolved)
                                continue
                        if base in ("self", "cls"):
                            continue
                    # Unknown receiver: dynamic dispatch fallback.
                    for target in graph.methods_by_name.get(method, ()):
                        link(target)
            graph.edges[fn.qualname] = callees

    # -- propagate hotness (BFS; cycles terminate via the visited set) ----
    frontier: List[str] = []
    for name in sorted(graph.functions):
        if graph.functions[name].hot_seed:
            graph.hot[name] = "seeded by # repro: hotpath"
            frontier.append(name)
    while frontier:
        next_frontier: List[str] = []
        for caller in frontier:
            for callee in graph.edges.get(caller, ()):
                if callee in graph.hot:
                    continue
                graph.hot[callee] = f"called from {_short(caller)}"
                next_frontier.append(callee)
        frontier = next_frontier
    return graph


def _short(qualname: str) -> str:
    """``repro.net.link:AccessLink._tick`` -> ``AccessLink._tick``."""
    return qualname.partition(":")[2]


# -- caching ----------------------------------------------------------------

_CacheKey = Tuple[Tuple[str, int, int], ...]
_GRAPH_CACHE: Dict[str, Tuple[_CacheKey, List[ModuleInfo], CallGraph]] = {}

#: Cache outcomes of the most recent :func:`cached_project` call, for
#: the runner's ``--stats`` line.
LAST_CACHE_HIT = False


def _tree_signature(package_root: Path) -> _CacheKey:
    entries: List[Tuple[str, int, int]] = []
    for path in sorted(package_root.rglob("*.py")):
        stat = path.stat()
        entries.append(
            (path.relative_to(package_root).as_posix(), stat.st_mtime_ns,
             stat.st_size)
        )
    return tuple(entries)


def cached_project(
    package_root: Path, package: str = "repro"
) -> Tuple[List[ModuleInfo], CallGraph]:
    """Parsed modules + call graph, rebuilt only when sources change."""
    global LAST_CACHE_HIT
    package_root = Path(package_root)
    key = str(package_root.resolve())
    signature = _tree_signature(package_root)
    cached = _GRAPH_CACHE.get(key)
    if cached is not None and cached[0] == signature:
        LAST_CACHE_HIT = True
        return cached[1], cached[2]
    LAST_CACHE_HIT = False
    modules = parse_package(package_root, package)
    graph = build_call_graph(modules, package)
    _GRAPH_CACHE[key] = (signature, modules, graph)
    return modules, graph
