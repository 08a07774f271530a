"""LAY rules: the import DAG the architecture is built on, enforced.

The repository layers bottom-up — ``crypto`` (pure math, stdlib only),
``adversary``/``network`` (the simulated world), ``proxcensus``/``core``
(the paper's protocols), ``analysis`` (reporting), ``obs`` (streaming
trace sinks and telemetry — the one layer allowed wall clocks),
``engine`` (parallel execution) and the CLI on top.  Determinism
audits depend on this: the DET rules can scope to the four protocol
layers only because nothing below them reaches up into code that may
time, randomize or fork.

Both rules build edges from the AST alone (absolute and relative imports,
including function-local ones), at *module* granularity — package-level
aliasing (``adversary.base`` ↔ ``network.simulator``) is legal precisely
because the module graph stays acyclic.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from .framework import Finding, Rule, SourceModule, register_rule

__all__ = ["ALLOWED_IMPORTS"]

#: importer layer → internal layers it may import.  Layers absent from
#: the map (top-level modules like ``cli``, new packages) are
#: unconstrained by LAY201 but still participate in LAY202 cycles.
ALLOWED_IMPORTS: Dict[str, Set[str]] = {
    "crypto": set(),  # foundation: stdlib only
    "adversary": {"crypto", "network"},
    "network": {"crypto", "adversary"},  # simulator drives adversary.base
    "proxcensus": {"crypto", "network"},
    "core": {"crypto", "network", "proxcensus"},
    "analysis": {"crypto", "network", "adversary", "proxcensus", "core"},
    # Observability: wall clocks and filesystem live here, above the
    # DET-scoped protocol layers — which must never import it back.
    "obs": {"crypto", "network"},
    "engine": {
        "crypto", "network", "adversary", "proxcensus", "core", "analysis", "obs",
    },
    "checks": set(),  # the analyzer itself: stdlib only, imports nothing it checks
}

#: Absolute-import prefixes treated as package-internal.
_INTERNAL_ROOTS = ("repro",)

#: Calls that import a module named at run time: no edge the AST shows.
_DYNAMIC_IMPORTS = {"importlib.import_module", "importlib.__import__", "__import__"}


def _walk_imports(tree: ast.Module, include_deferred: bool) -> Iterator[ast.stmt]:
    """Import statements, optionally skipping function-local (deferred) ones.

    A deferred import inside a function body runs at call time, not at
    module-import time — it is the standard way to *break* a cycle, so
    the cycle rule must not count it; the layering rule still does (a
    lazy upward import is an upward import).
    """
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        if not include_deferred and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _iter_import_edges(
    module: SourceModule, include_deferred: bool = True
) -> Iterator[Tuple[str, ast.stmt]]:
    """Yield ``(target_dotted, stmt)`` for every package-internal import."""
    for node in _walk_imports(module.tree, include_deferred):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] in _INTERNAL_ROOTS and len(parts) > 1:
                    yield ".".join(parts[1:]), node
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] not in _INTERNAL_ROOTS:
                    continue
                base = ".".join(parts[1:])
            else:
                base = module.resolve_from(node)
            for alias in node.names:
                if alias.name == "*" or not base:
                    yield base or alias.name, node
                else:
                    # `from X import name` may bind a submodule X.name or
                    # an attribute of X; emit the longer candidate — the
                    # cycle rule snaps it to a real module, the layer
                    # rule only reads the first component (identical).
                    yield f"{base}.{alias.name}", node


def _export_resolutions(function: ast.FunctionDef) -> Iterator[ast.Call]:
    """Calls ``f(key, __name__)`` in ``function`` whose ``key`` is the loop
    variable of a ``for key, ... in _EXPORTS.items()``."""
    keys = set()
    for loop in ast.walk(function):
        if isinstance(loop, ast.For) and ast.unparse(loop.iter) == "_EXPORTS.items()":
            target = loop.target.elts[0] if isinstance(loop.target, ast.Tuple) else loop.target
            keys.add(ast.unparse(target))
    for call in ast.walk(function):
        if isinstance(call, ast.Call) and len(call.args) == 2:
            key, package = (ast.unparse(arg) for arg in call.args)
            if key in keys and package == "__name__":
                yield call


def _hidden_imports(module: SourceModule) -> Iterator[Tuple[ast.AST, str]]:
    """Imports no import statement shows, as ``(node, message)`` pairs.

    One dynamic import is allowed: a package ``__init__``'s module-level
    ``__getattr__`` calling ``import_module(key, __name__)`` with ``key``
    drawn from its ``_EXPORTS`` table, whose every key must be a direct
    submodule (``".plan"``), so an intra-layer edge.
    """
    resolver: Set[ast.AST] = set()
    for node in module.tree.body if module.is_package else ():
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            resolver.update(_export_resolutions(node))
        elif isinstance(node, ast.Assign) and "_EXPORTS" in {
            getattr(target, "id", None) for target in node.targets
        }:
            for key in getattr(node.value, "keys", [node.value]):
                text = getattr(key, "value", None)
                if not (isinstance(text, str) and re.fullmatch(r"\.[A-Za-z_]\w*", text)):
                    yield key or node, "export table key is not a direct submodule"
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        called = module.resolve_call_target(node.func)
        if called in _DYNAMIC_IMPORTS and not (
            node in resolver and called == "importlib.import_module"
        ):
            yield node, "dynamic import hides its target from the layer map"


@register_rule
class LayeringRule(Rule):
    """Cross-layer import that reaches outside the importer's allowance.

    The allowance table is the architecture (see module docstring):
    e.g. ``crypto`` imports nothing internal, ``core``/``proxcensus``
    never import ``engine``/``analysis``/``cli``.  Intra-layer imports
    are always fine.  An import the edge walk cannot see — a dynamic
    import call, an export-table key past the package's own submodules —
    is flagged in every module (see :func:`_hidden_imports`).
    """

    id = "LAY201"
    title = "import violates the layer map"
    hint = "depend downward only; move shared code into the lower layer"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node, message in _hidden_imports(module):
            yield self.finding(module, node, message)
        allowed = ALLOWED_IMPORTS.get(module.top)
        if allowed is None:
            return
        for target, node in _iter_import_edges(module):
            target_top = target.split(".")[0]
            if target_top != module.top and target_top not in allowed:
                yield self.finding(
                    module,
                    node,
                    f"layer {module.top!r} must not import "
                    f"{target_top!r} (via {target})",
                )


@register_rule
class ImportCycleRule(Rule):
    """Module-level import cycles.

    A cycle makes import order load-bearing and is how layering erodes:
    the first module to sneak an upward import usually "works" because
    of ``sys.modules`` timing, until a refactor reorders imports and it
    doesn't.  Detected over the whole tree (Tarjan SCCs) after all
    modules are parsed; one finding per cycle, anchored at the
    lexicographically-first module's offending import.
    """

    id = "LAY202"
    title = "import cycle between modules"
    hint = "break the cycle: extract the shared piece into a lower module"

    def __init__(self) -> None:
        # module name → {target name: (path, line)}
        self._edges: Dict[str, Dict[str, Tuple[str, int]]] = {}
        self._modules: Set[str] = set()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        self._modules.add(module.name)
        edges = self._edges.setdefault(module.name, {})
        # Only imports executed at module-import time create cycles;
        # function-local imports are the sanctioned deferral idiom.
        for target, node in _iter_import_edges(module, include_deferred=False):
            edges.setdefault(target, (module.rel, node.lineno))
        return iter(())

    def _resolved_edges(self) -> Dict[str, Dict[str, Tuple[str, int]]]:
        """Snap each raw target to a module that was actually scanned.

        ``from .plan import TrialSpec`` recorded ``engine.plan.TrialSpec``;
        the longest scanned prefix (``engine.plan``) is the real edge.
        Targets with no scanned prefix (unresolvable) are dropped.
        """
        resolved: Dict[str, Dict[str, Tuple[str, int]]] = {}
        for source, targets in self._edges.items():
            out = resolved.setdefault(source, {})
            for target, where in targets.items():
                parts = target.split(".")
                while parts:
                    name = ".".join(parts)
                    if name in self._modules:
                        if name != source:
                            out.setdefault(name, where)
                        break
                    parts.pop()
        return resolved

    def finalize(self) -> Iterator[Finding]:
        graph = self._resolved_edges()
        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            cycle = sorted(component)
            first = cycle[0]
            # Anchor the finding at first's import of another cycle member.
            where = ("", 1)
            for target, location in graph.get(first, {}).items():
                if target in component:
                    where = location
                    break
            path, line = where
            yield Finding(
                rule=self.id,
                path=path or f"{first.replace('.', '/')}.py",
                line=line,
                col=1,
                message="import cycle: " + " -> ".join(cycle + [cycle[0]]),
                hint=self.hint,
            )


def _strongly_connected(
    graph: Dict[str, Dict[str, Tuple[str, int]]]
) -> List[Set[str]]:
    """Tarjan's algorithm, iterative (no recursion-limit surprises)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Set[str]] = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (start, iter(sorted(graph.get(start, ()))))
        ]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in graph:
                    continue
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(graph.get(successor, ()))))
                    )
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components
