"""Static-analysis framework: one AST walk, pluggable invariant rules.

The engine's headline guarantee is that serial, parallel and vector
runs are *byte-identical* for any worker count.  That property is easy
to destroy silently — iterate a ``set`` into a message payload, call
``time.time()`` in protocol code — and nothing at runtime complains
until the numbers drift.  This package is the static safety net: a
dependency-free ``ast`` pass (``python -m repro check``) that walks the
source tree once and dispatches every parsed module to a set of rules
enforcing the determinism and layering invariants the engine's
guarantees rest on.

Architecture (one pass)
-----------------------
* Every ``*.py`` under the root is read and parsed exactly once into a
  :class:`SourceModule` (path, dotted module name, AST, lazily-built
  import-origin map).
* Each rule's ``check(module)`` yields :class:`Finding`\\ s per module,
  and ``finalize()`` yields whole-tree findings (import cycles) after
  every module has been visited.  Rules are registered with
  :func:`register_rule` and instantiated fresh per run, so cross-module
  state never leaks between invocations.
* :func:`run_check` — discovery, dispatch and the :class:`Report`
  (text or ``--json``).  Nothing waives a finding: it is fixed, or the
  rule's scope changes.

Every rule carries an ``id`` (``DET101`` …), a one-line ``title`` and a
``hint`` (how to fix); ``--json`` emits all three so CI artifacts are
self-describing.  See ``docs/static-analysis.md`` for the catalogue.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

__all__ = [
    "CheckError",
    "Finding",
    "Report",
    "Rule",
    "SourceModule",
    "all_rule_classes",
    "register_rule",
    "run_check",
]


class CheckError(Exception):
    """Unusable invocation (bad root, unknown rule selector)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix path relative to the scanned root
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self, root: str = "") -> str:
        where = f"{root}/{self.path}" if root else self.path
        text = f"{where}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text


class SourceModule:
    """One parsed source file plus everything rules need to inspect it."""

    def __init__(self, path: Path, rel: Path, tree: ast.Module):
        self.path = path
        self.rel = rel.as_posix()
        self.tree = tree
        parts = list(rel.with_suffix("").parts)
        self.is_package = bool(parts) and parts[-1] == "__init__"
        if self.is_package:
            parts = parts[:-1]
        self.name = ".".join(parts)
        self.parts: Tuple[str, ...] = tuple(parts)
        # Layer = first dotted component ("core", "crypto", …); top-level
        # modules (cli, __main__) are their own single-component layer.
        self.top = parts[0] if parts else ""
        self._origins: Optional[Dict[str, str]] = None

    @property
    def origins(self) -> Dict[str, str]:
        """Local name → dotted origin for every import binding.

        ``import time as t`` maps ``t -> time``; ``from os import urandom``
        maps ``urandom -> os.urandom``.  Relative (package-internal)
        imports are mapped to their resolved internal dotted name, which
        never collides with the stdlib names the DET rules match on.
        """
        if self._origins is None:
            origins: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        origins[bound] = alias.name if alias.asname else bound
                elif isinstance(node, ast.ImportFrom):
                    base = self.resolve_from(node)
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        bound = alias.asname or alias.name
                        origins[bound] = f"{base}.{alias.name}" if base else alias.name
            self._origins = origins
        return self._origins

    def resolve_from(self, node: ast.ImportFrom) -> str:
        """Dotted target of a ``from … import`` statement.

        Relative imports resolve against this module's package path (the
        returned name is root-relative, e.g. ``network.messages``);
        absolute imports return ``node.module`` unchanged.
        """
        if not node.level:
            return node.module or ""
        base = list(self.parts if self.is_package else self.parts[:-1])
        for _ in range(node.level - 1):
            if base:
                base.pop()
        if node.module:
            base.extend(node.module.split("."))
        return ".".join(base)

    def resolve_call_target(self, func: ast.AST) -> Optional[str]:
        """Dotted origin of a call target, or ``None`` if not name-rooted.

        ``t.perf_counter()`` with ``import time as t`` resolves to
        ``time.perf_counter``; ``self.rng.random()`` resolves to
        ``self.rng.random`` (an instance call, which DET rules ignore).
        """
        chain: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.append(self.origins.get(node.id, node.id))
        return ".".join(reversed(chain))


class Rule:
    """Base class: one enforced invariant.

    Subclasses set ``id`` / ``title`` / ``hint`` and override
    :meth:`check` (per module) and optionally :meth:`finalize` (after the
    whole tree).  ``scope`` restricts a rule to the named top-level
    subpackages; ``None`` means the whole tree.
    """

    id: str = ""
    title: str = ""
    hint: str = ""
    scope: Optional[frozenset] = None

    def applies(self, module: SourceModule) -> bool:
        return self.scope is None or module.top in self.scope

    def check(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint,
        )


_RULE_CLASSES: List[Type[Rule]] = []


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the default rule set."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if any(existing.id == cls.id for existing in _RULE_CLASSES):
        raise ValueError(f"duplicate rule id {cls.id}")
    _RULE_CLASSES.append(cls)
    return cls


def all_rule_classes() -> List[Type[Rule]]:
    """Every registered rule class, in id order."""
    _load_builtin_rules()
    return sorted(_RULE_CLASSES, key=lambda cls: cls.id)


def _load_builtin_rules() -> None:
    # Imported for their @register_rule side effects; local to avoid a
    # circular import at package-load time.
    from . import dataflow, det, lay  # noqa: F401


def _matches(rule_id: str, selectors: Sequence[str]) -> bool:
    return any(rule_id == s or rule_id.startswith(s) for s in selectors)


def build_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh rule instances honoring ``--select``.

    Selectors are full ids (``DET104``) or family prefixes (``DET``).
    Unknown selectors raise :class:`CheckError` — a typo'd ``--select``
    must not silently check nothing.
    """
    classes = all_rule_classes()
    known = {cls.id for cls in classes}
    families = {cls.id.rstrip("0123456789") for cls in classes}
    for selector in select or []:
        if selector not in known and selector not in families:
            raise CheckError(
                f"unknown rule selector {selector!r}; "
                f"known: {sorted(families)} + {sorted(known)}"
            )
    return [cls() for cls in classes if not select or _matches(cls.id, select)]


@dataclass
class Report:
    """Outcome of one check run, renderable as text or JSON."""

    root: str
    files: int
    findings: List[Finding]
    rules: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> str:
        payload = {
            "root": self.root,
            "files_scanned": self.files,
            "rules": self.rules,
            "ok": self.ok,
            "counts_by_rule": self.counts_by_rule(),
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                    "hint": f.hint,
                }
                for f in self.findings
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def render(self) -> str:
        out = [finding.render(self.root) for finding in self.findings]
        verdict = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        out.append(f"repro check: {verdict} in {self.files} file(s)")
        return "\n".join(out)


def _iter_source_files(root: Path) -> Iterable[Path]:
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def run_check(root, select: Optional[Sequence[str]] = None) -> Report:
    """Walk every ``*.py`` under ``root`` once and apply all rules.

    ``root`` must be the *package root* (the directory holding ``core/``,
    ``crypto/`` …): layer scoping and relative-import resolution are
    computed from paths relative to it.

    Each file is parsed and dispatched to every rule that applies to it,
    then every rule is finalized.  Findings come back sorted by (path,
    line, col, rule).
    """
    given = str(root)
    root = Path(root)
    if not root.is_dir():
        raise CheckError(f"not a directory: {given}")
    rules = build_rules(select)

    findings: List[Finding] = []
    files = 0
    for path in _iter_source_files(root):
        files += 1
        rel = path.relative_to(root)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise CheckError(f"cannot read {path}: {error}")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as error:
            findings.append(
                Finding(
                    rule="CHK001",
                    path=rel.as_posix(),
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    message=f"syntax error: {error.msg}",
                    hint="fix the file so it parses; nothing else was checked",
                )
            )
            continue
        module = SourceModule(path, rel, tree)
        for rule in rules:
            if rule.applies(module):
                findings.extend(rule.check(module))
    for rule in rules:
        findings.extend(rule.finalize())

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return Report(
        root=given,
        files=files,
        findings=findings,
        rules=[rule.id for rule in rules],
    )
