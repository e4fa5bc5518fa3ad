"""PERF4xx: allocation and construction rules for hot regions.

These rules only run inside the *hot region* of the call graph — the
transitive closure of the ``# repro: hotpath`` pragma seeds (see
:mod:`repro.devtools.callgraph`).  A comprehension in a report formatter
is idiomatic Python; the same comprehension inside the link's refresh
tick allocates on every simulated event, and PRs 5–6 spent most of
their profile wins removing exactly that class of code by hand.

The rules, in increasing order of judgement required:

* **PERF401** — per-iteration container allocation: comprehensions and
  container-constructor calls inside a loop of a hot function, plus
  constant-element ``set``/``list`` displays anywhere in a hot function
  (those can always be hoisted to a module constant).
* **PERF402** — per-call construction of engine objects that are meant
  to be built once: ``random.Random``, ``re.compile`` (or implicit
  compilation via module-level ``re.match`` and friends), ``datetime``
  constructors.  Reseeding an RNG (``rng.seed(x)``, ``random.seed(x)``)
  counts too: it re-initialises the whole generator state, so it costs
  as much as constructing one.
* **PERF403** — the same attribute chain loaded repeatedly inside one
  loop: CPython resolves ``self.queue.heap`` on every load, so invariant
  chains belong in a local before the loop.
* **PERF404** — ``try``/``except`` inside a loop of a hot function:
  zero-cost until it isn't (the handler path allocates a traceback per
  iteration), and it usually hides an LBYL check that would be cheaper.
* **PERF405** — instantiating a project class with no ``__slots__``
  inside a hot region: each instance carries a dict; hot-path object
  churn is exactly where ``__slots__`` pays.

Each rule is a heuristic, not a proof — the triage contract from
CONTRIBUTING.md applies: fix it, waive the line with
``# repro: allow[PERF40x] reason``, or baseline it with a reason.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.devtools.callgraph import CallGraph, FunctionInfo, ModuleInfo
from repro.devtools.findings import Finding

#: Container constructors whose call-with-arguments inside a loop means
#: a fresh allocation (and usually a full copy) per iteration.
_CONTAINER_CALLS = frozenset(
    {"list", "dict", "set", "frozenset", "tuple", "sorted"}
)

#: ``re`` module functions that compile their pattern on every call.
_RE_IMPLICIT = frozenset(
    {"match", "fullmatch", "search", "sub", "subn", "split", "findall",
     "finditer", "compile"}
)

#: ``datetime`` constructors / wall-clock-ish factories.
_DATETIME_CALLS = frozenset(
    {
        "datetime.datetime", "datetime.date", "datetime.time",
        "datetime.timedelta", "datetime.datetime.now",
        "datetime.datetime.utcnow", "datetime.datetime.today",
        "datetime.date.today", "datetime.datetime.fromtimestamp",
    }
)

#: Minimum loads of one attribute chain in one loop before PERF403 fires.
_HOIST_THRESHOLD = 3


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _describe(node: ast.expr, limit: int = 48) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _is_static_element(node: ast.expr) -> bool:
    """Constant, or a dotted chain like ``FaultKind.SERVER_ERROR``.

    Bare names do not count: ``{start}`` with a local ``start`` is a
    legitimate per-call set.  Depth-2+ chains are module-level enums and
    constants in this codebase, so a display built only from them can be
    hoisted to a module constant.
    """
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Attribute):
        return _dotted(node) is not None
    return False


class _HotFunctionVisitor(ast.NodeVisitor):
    """Scan one hot function's body for PERF4xx violations."""

    def __init__(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        graph: CallGraph,
        chain: str,
    ):
        self.info = info
        self.fn = fn
        self.graph = graph
        self.chain = chain  # why this function is hot, for messages
        self.findings: List[Finding] = []
        self._loop_depth = 0
        #: attribute chains assigned anywhere in the function: a chain
        #: that is ever a Store target is not loop-invariant.
        self._stored_chains = {
            _dotted(node)
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
        }
        self._stored_chains.discard(None)

    # -- plumbing ----------------------------------------------------------

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=code,
                path=self.fn.path,
                line=getattr(node, "lineno", self.fn.line),
                message=f"{message} [hot: {self.chain}]",
            )
        )

    @property
    def _in_loop(self) -> bool:
        return self._loop_depth > 0

    # -- loops -------------------------------------------------------------

    def _visit_loop(self, node) -> None:
        if isinstance(node, ast.For):
            # The iterable expression evaluates once per loop *entry*.
            self.visit(node.iter)
            for target in (
                [node.target] if not isinstance(node.target, ast.Tuple)
                else node.target.elts
            ):
                self.visit(target)
        self._loop_depth += 1
        if self._loop_depth == 1:
            self._check_hoistable_chains(node)
        try:
            if isinstance(node, ast.While):
                self.visit(node.test)
            for stmt in node.body:
                self.visit(stmt)
        finally:
            self._loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    visit_For = _visit_loop
    visit_While = _visit_loop

    def _check_hoistable_chains(self, loop: ast.AST) -> None:
        """PERF403: one chain loaded >= threshold times in one loop."""
        # Names (re)bound inside the loop — loop targets, assignments,
        # walrus bindings: a chain hanging off one changes per trip and
        # cannot be hoisted.
        loop_bound = {
            node.id
            for node in ast.walk(loop)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Store, ast.Del))
        }
        counts: Dict[str, Tuple[int, int]] = {}  # chain -> (count, line)
        for node in ast.walk(loop):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            chain = _dotted(node)
            if chain is None or "." not in chain:
                continue
            if chain.partition(".")[0] in loop_bound:
                continue
            # Only count the full chain, not its prefixes: walking also
            # yields ``self.queue`` inside ``self.queue.heap``.
            parent_chains = counts.get(chain)
            count, line = parent_chains if parent_chains else (0, node.lineno)
            counts[chain] = (count + 1, min(line, node.lineno))
        inner = {
            chain.rpartition(".")[0] for chain in counts if chain.count(".") > 1
        }
        for chain in sorted(counts):
            count, line = counts[chain]
            if count < _HOIST_THRESHOLD:
                continue
            if chain in inner:
                continue  # reported via the longer chain (or below noise)
            if chain in self._stored_chains:
                continue
            prefix = chain.rpartition(".")[0]
            if prefix in self._stored_chains:
                continue
            self._emit(
                "PERF403",
                _Anchor(line),
                f"`{chain}` loaded {count}x inside one loop — hoist to a "
                "local before the loop if invariant",
            )

    # -- allocation rules --------------------------------------------------

    def _visit_comprehension_node(self, node) -> None:
        if self._in_loop and not isinstance(node, ast.GeneratorExp):
            kind = type(node).__name__
            self._emit(
                "PERF401",
                node,
                f"{kind} `{_describe(node)}` allocates per loop iteration",
            )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_SetComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    def _visit_display(self, node) -> None:
        elements = getattr(node, "elts", None)
        if elements is None:  # ast.Dict
            elements = [k for k in node.keys if k is not None] + node.values
        # Single-element lists/dicts are dominated by ``[0] * n`` seed
        # patterns where the display itself is not the cost; sets keep
        # the threshold at one (``{FaultKind.X}`` membership sets are
        # exactly the target).
        minimum = 1 if isinstance(node, ast.Set) else 3
        if (
            len(elements) >= minimum
            and not isinstance(node, ast.Tuple)
            and all(_is_static_element(element) for element in elements)
        ):
            # A constant-element display rebuilds the same container on
            # every execution — hoistable regardless of loop nesting.
            self._emit(
                "PERF401",
                node,
                f"constant {type(node).__name__.lower()} display "
                f"`{_describe(node)}` rebuilt per call — hoist to a "
                "module-level constant",
            )
        self.generic_visit(node)

    visit_Set = _visit_display
    visit_List = _visit_display
    visit_Dict = _visit_display
    visit_Tuple = _visit_display  # constant tuples are folded by CPython

    # -- try/except --------------------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        if self._in_loop:
            self._emit(
                "PERF404",
                node,
                "try/except inside a hot loop — the handler path builds "
                "a traceback per trip; prefer an explicit check",
            )
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def _canonical(self, node: ast.expr) -> Optional[str]:
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, sep, rest = dotted.partition(".")
        from_imports = self.graph.from_imports.get(self.info.module, {})
        aliases = self.graph.module_aliases.get(self.info.module, {})
        if head in from_imports:
            module, symbol = from_imports[head]
            head = f"{module}.{symbol}"
        elif head in aliases:
            head = aliases[head]
        return head + sep + rest if sep else head

    def visit_Call(self, node: ast.Call) -> None:
        canon = self._canonical(node.func)
        if canon is not None:
            self._check_per_call_construction(node, canon)
            if (
                self._in_loop
                and canon in _CONTAINER_CALLS
                and (node.args or node.keywords)
            ):
                self._emit(
                    "PERF401",
                    node,
                    f"`{canon}(...)` call allocates a container per loop "
                    "iteration",
                )
        cls = self.graph.resolve_class(self.info.module, node.func)
        if cls is not None and not cls.has_slots and not cls.is_exception:
            self._emit(
                "PERF405",
                node,
                f"instantiates `{cls.name}` ({cls.path}) which "
                "has no __slots__ — hot-path instances carry a dict each",
            )
        self.generic_visit(node)

    def _check_per_call_construction(
        self, node: ast.Call, canon: str
    ) -> None:
        if canon == "random.Random" or canon == "numpy.random.default_rng":
            self._emit(
                "PERF402",
                node,
                f"`{canon}(...)` constructed per call — build the RNG "
                "once and thread it through",
            )
        elif (
            canon.startswith("re.")
            and canon.partition(".")[2] in _RE_IMPLICIT
        ):
            self._emit(
                "PERF402",
                node,
                f"`{canon}(...)` compiles its pattern per call — hoist a "
                "module-level re.compile()",
            )
        elif canon in _DATETIME_CALLS:
            self._emit(
                "PERF402",
                node,
                f"`{canon}(...)` constructed per call in a hot region",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "seed"
            and (node.args or node.keywords)
        ):
            self._emit(
                "PERF402",
                node,
                f"`{canon}(...)` reseeds an RNG per call — as costly as "
                "constructing one; memoise the draws or thread one "
                "generator through",
            )


class _Anchor:
    """A minimal lineno carrier for findings not tied to one node."""

    def __init__(self, lineno: int):
        self.lineno = lineno


def scan_perf(
    modules: List[ModuleInfo], graph: CallGraph
) -> List[Finding]:
    """Run the PERF4xx rules over every hot function in the project."""
    by_path = {info.path: info for info in modules}
    findings: List[Finding] = []
    for fn in graph.hot_functions():
        info = by_path.get(fn.path)
        if info is None:
            continue
        visitor = _HotFunctionVisitor(
            info, fn, graph, chain=graph.hot[fn.qualname]
        )
        # Visit statements, not the def node itself: decorators and
        # default expressions evaluate at definition time, not per call.
        for stmt in fn.node.body:
            visitor.visit(stmt)
        findings.extend(visitor.findings)
    return findings
