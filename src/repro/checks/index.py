"""Phase-1 project index: the whole-tree symbol model cross-module rules read.

``run_check`` used to parse one file, dispatch it, and forget it.  The
cross-module OBS rules need to *see the whole tree at once*: what value
``TRACE_RECORD_TYPES`` holds in ``obs/`` while a writer in ``engine/``
spells a record type.  :class:`ProjectIndex` is that view — built once
per run from the already-parsed :class:`SourceModule` list (phase 1),
then handed to every rule via ``Rule.bind`` before dispatch (phase 2).

Everything here is AST-only.  The checks layer never imports the code it
checks (see the LAY map: ``"checks": set()``), so constants like the obs
vocabularies are recovered by *evaluating literal assignments*, not by
importing ``repro.obs``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Sequence

from .framework import SourceModule

__all__ = ["ProjectIndex"]


def _literal_value(node: ast.AST) -> Any:
    """Evaluate a module-level constant expression, or raise ValueError.

    Handles everything :func:`ast.literal_eval` does plus the
    ``frozenset({...})`` / ``set(...)`` / ``tuple(...)`` call spellings
    used for module-level vocabularies.
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set", "tuple", "list", "dict")
        and not node.keywords
        and len(node.args) <= 1
    ):
        builder = {"frozenset": frozenset, "set": set, "tuple": tuple,
                   "list": list, "dict": dict}[node.func.id]
        if not node.args:
            return builder()
        return builder(_literal_value(node.args[0]))
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.Add)):
        left = _literal_value(node.left)
        right = _literal_value(node.right)
        if isinstance(node.op, ast.BitOr):
            return left | right
        return left + right
    return ast.literal_eval(node)


def _module_constants(module: SourceModule) -> Dict[str, Any]:
    """The values of ``module``'s top-level literal assignments."""
    constants: Dict[str, Any] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            try:
                constants[target.id] = _literal_value(stmt.value)
            except (ValueError, TypeError, SyntaxError, KeyError):
                pass
    return constants


class ProjectIndex:
    """Whole-tree symbol table built in phase 1, read by rules in phase 2."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.by_name: Dict[str, SourceModule] = {m.name: m for m in modules}
        self.constants: Dict[str, Dict[str, Any]] = {
            m.name: _module_constants(m) for m in modules
        }

    def constant(self, top: str, name: str) -> Any:
        """First module-level constant ``name`` in layer ``top``, else None.

        Modules are searched in sorted dotted-name order, so the lookup
        is deterministic when a name is (wrongly) defined twice.
        """
        for module_name in sorted(self.by_name):
            if self.by_name[module_name].top != top:
                continue
            value = self.constants[module_name].get(name)
            if value is not None:
                return value
        return None
