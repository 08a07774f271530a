"""DET2xx rules: intraprocedural RNG taint tracking.

The DET1xx family bans *call sites* (wall clocks, global RNG draws).
This family follows *values*: where an RNG object comes from and where
it goes.  The engine's replay contract requires every
``random.Random``/numpy ``Generator`` in scope to be (a) constructed
from a seed-derived expression, (b) threaded explicitly through
parameters, and (c) never parked in module-level state where two trials
sharing a worker process would interleave draws from it.

The analysis is deliberately intraprocedural and conservative: each
function body is scanned in statement order with a taint set for local
names.  Two taints are tracked — *nondeterministic* values (anything
touched by a wall-clock/entropy/``id()`` call, propagated through
assignments and calls) and *RNG* values (constructor results and
``rng``-named parameters).  Whatever the analysis cannot prove it lets
pass; the DET1xx rules still catch the raw call sites.

Scope: the four protocol layers plus ``engine`` — the vector backend
made the engine part of the deterministic replay surface.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .det import PROTOCOL_SCOPE, _GLOBAL_RNG_FUNCS, _NUMPY_RNG_CONSTRUCTORS
from .framework import Finding, Rule, SourceModule, register_rule

__all__: List[str] = []

_DATAFLOW_SCOPE = PROTOCOL_SCOPE | frozenset({"engine"})

#: Resolved call targets that construct an owned RNG stream.
_RNG_CONSTRUCTORS = frozenset({"random.Random"}) | frozenset(
    f"numpy.random.{name}" for name in _NUMPY_RNG_CONSTRUCTORS
)

#: Resolved call targets whose *result* can never be seed-derived.
_NONDET_EXACT = frozenset(
    {"os.urandom", "os.getrandom", "random.SystemRandom", "id"}
)
_NONDET_PREFIXES = ("time.", "uuid.", "secrets.", "datetime.datetime.now",
                    "datetime.datetime.utcnow", "datetime.date.today")


def _is_rng_param(name: str) -> bool:
    return name == "rng" or name.endswith("_rng")


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _rng_constructor_target(
    module: SourceModule, node: ast.AST
) -> Optional[str]:
    """The resolved constructor name if ``node`` builds an RNG, else None."""
    if not isinstance(node, ast.Call):
        return None
    target = module.resolve_call_target(node.func)
    if target in _RNG_CONSTRUCTORS:
        return target
    return None


def _is_nondet_call(module: SourceModule, node: ast.Call) -> bool:
    target = module.resolve_call_target(node.func)
    if target is None:
        return False
    return target in _NONDET_EXACT or any(
        target.startswith(prefix) for prefix in _NONDET_PREFIXES
    )


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression/statement without entering nested scopes.

    Each function body is analyzed as its own scope, so descending into
    a nested ``def``/``lambda`` here would double-report its findings
    (and leak the outer scope's taint into it).
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def _expr_nondet(
    module: SourceModule, node: ast.AST, tainted: Set[str]
) -> bool:
    """True if any part of the expression is nondeterministic."""
    for inner in _walk_shallow(node):
        if isinstance(inner, ast.Call) and _is_nondet_call(module, inner):
            return True
        if isinstance(inner, ast.Name) and inner.id in tainted:
            return True
    return False


def _expr_rng(module: SourceModule, node: ast.AST, rng_names: Set[str]) -> bool:
    """True if the expression yields (or contains) an RNG value."""
    for inner in _walk_shallow(node):
        if _rng_constructor_target(module, inner) is not None:
            return True
        if isinstance(inner, ast.Name) and inner.id in rng_names:
            return True
    return False


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Shallow-walk a statement's *own* expressions only.

    ``_iter_statements`` already yields nested statements individually;
    descending into a compound statement's body here would visit the
    same expression twice (once via the ``If``, once via the assignment
    inside it).
    """
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, (ast.stmt, ast.excepthandler)):
            continue
        yield from _walk_shallow(child)


def _iter_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one function in source order, descending into
    control flow but *not* into nested function/class scopes."""
    for stmt in body:
        yield stmt
        for child_body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if isinstance(child_body, list) and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from _iter_statements(child_body)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_statements(handler.body)


def _assign_targets(stmt: ast.stmt) -> Tuple[List[str], Optional[ast.AST]]:
    """Simple-name targets and the value expression of an assignment."""
    if isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        return names, stmt.value
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name) and stmt.value is not None:
            return [stmt.target.id], stmt.value
    return [], None


def _function_defs(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register_rule
class RngNonSeedConstructionRule(Rule):
    """An RNG built from something that is not a seed cannot be replayed.

    ``random.Random()`` (and argless ``default_rng()``/``SeedSequence()``)
    pulls ambient entropy; ``random.Random(time.time())`` launders a
    wall-clock read through a local.  Either way the stream differs
    between runs, so nothing downstream of it is reproducible.  The
    taint pass follows nondeterministic values through locals and calls:
    ``x = time.time(); rng = random.Random(int(x))`` is flagged at the
    construction site.  Constructions from constants, parameters, spec
    fields and other RNG draws all pass — only *provably* nondetermistic
    seeds (and no seed at all) are findings.
    """

    id = "DET201"
    title = "RNG constructed from a non-seed expression"
    hint = "seed it: random.Random(derived_seed) — never argless or clock-fed"
    scope = _DATAFLOW_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        scopes: List[Tuple[Sequence[ast.stmt], Set[str]]] = [
            (module.tree.body, set())
        ]
        for func in _function_defs(module.tree):
            scopes.append((func.body, set()))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                scopes.append((node.body, set()))
        for body, tainted in scopes:
            for stmt in _iter_statements(body):
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue  # nested scopes are analyzed on their own
                names, value = _assign_targets(stmt)
                if value is not None and names:
                    if _expr_nondet(module, value, tainted) and not any(
                        _rng_constructor_target(module, inner)
                        for inner in _walk_shallow(value)
                        if isinstance(inner, ast.Call)
                    ):
                        tainted.update(names)
                for node in _stmt_exprs(stmt):
                    target = _rng_constructor_target(module, node)
                    if target is None:
                        continue
                    assert isinstance(node, ast.Call)
                    seed_args = list(node.args) + [
                        kw.value for kw in node.keywords
                    ]
                    if not seed_args:
                        yield self.finding(
                            module,
                            node,
                            f"{target}() constructed without a seed "
                            "(ambient entropy)",
                        )
                    elif any(
                        _expr_nondet(module, arg, tainted)
                        for arg in seed_args
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"{target}(...) seeded from a nondeterministic "
                            "expression",
                        )


@register_rule
class RngSilentFallbackRule(Rule):
    """An ``rng`` parameter that quietly falls back to fresh entropy.

    ``def f(..., rng=None): rng = rng or random.Random()`` advertises a
    deterministic interface and then ignores it whenever the caller
    forgets to pass the stream — the worst failure mode, because every
    test that *does* pass an rng stays green.  Flagged: rebinding an
    ``rng``-named parameter to an argless constructor or to a
    module-level ``random.*``/``numpy.random`` draw.  A *seeded*
    fallback (``rng or random.Random(0xC0FFEE ^ n)``) passes — it is
    deterministic, just defaulted.
    """

    id = "DET202"
    title = "rng parameter silently falls back to a global/unseeded RNG"
    hint = "raise on rng=None, or fall back to a seed-derived constructor"
    scope = _DATAFLOW_SCOPE

    def _unseeded_fallback(self, module: SourceModule, value: ast.AST) -> bool:
        for inner in _walk_shallow(value):
            if not isinstance(inner, ast.Call):
                continue
            target = module.resolve_call_target(inner.func)
            if target in _RNG_CONSTRUCTORS and not (
                inner.args or inner.keywords
            ):
                return True
            if target is not None:
                parts = target.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _GLOBAL_RNG_FUNCS
                ):
                    return True
                if (
                    len(parts) == 3
                    and parts[:2] == ["numpy", "random"]
                    and parts[2] not in _NUMPY_RNG_CONSTRUCTORS
                ):
                    return True
        return False

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _function_defs(module.tree):
            rng_params = {
                name for name in _param_names(func) if _is_rng_param(name)
            }
            if not rng_params:
                continue
            for stmt in _iter_statements(func.body):
                names, value = _assign_targets(stmt)
                if value is None:
                    continue
                rebound = [name for name in names if name in rng_params]
                if rebound and self._unseeded_fallback(module, value):
                    yield self.finding(
                        module,
                        stmt,
                        f"parameter {rebound[0]!r} rebound to an unseeded "
                        "fallback RNG",
                    )


@register_rule
class RngModuleStateRule(Rule):
    """An RNG parked in module-level state is shared across trials.

    Worker processes are reused: a module-level ``random.Random`` (even a
    seeded one) interleaves draws from every trial the process executes,
    so results depend on scheduling — the exact failure DET103 bans for
    the stdlib global RNG, recreated one level up.  Flagged: module-level
    assignments whose value constructs an RNG, ``global``-declared names
    rebound to RNG values inside functions, and RNG values stored into
    module-level containers (``_CACHE[key] = rng``).
    """

    id = "DET203"
    title = "RNG value smuggled into module-level state"
    hint = "keep RNG streams trial-local; pass them down, never park them in a module"
    scope = _DATAFLOW_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        module_names: Set[str] = set()
        for stmt in module.tree.body:
            names, value = _assign_targets(stmt)
            module_names.update(names)
            if value is not None and names and _expr_rng(module, value, set()):
                yield self.finding(
                    module,
                    stmt,
                    f"module-level {names[0]!r} holds an RNG "
                    "(shared across trials in a worker)",
                )

        for func in _function_defs(module.tree):
            rng_names = {
                name for name in _param_names(func) if _is_rng_param(name)
            }
            globals_declared: Set[str] = set()
            for stmt in _iter_statements(func.body):
                if isinstance(stmt, ast.Global):
                    globals_declared.update(stmt.names)
                    continue
                names, value = _assign_targets(stmt)
                if value is None:
                    continue
                is_rng_value = _expr_rng(module, value, rng_names)
                if is_rng_value:
                    rng_names.update(names)
                    leaked = [n for n in names if n in globals_declared]
                    if leaked:
                        yield self.finding(
                            module,
                            stmt,
                            f"global {leaked[0]!r} rebound to an RNG value",
                        )
                # Stores into module-level containers: X[k] = rng, X.attr = rng
                if isinstance(stmt, ast.Assign) and is_rng_value:
                    for target in stmt.targets:
                        base = target
                        while isinstance(base, (ast.Subscript, ast.Attribute)):
                            base = base.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in module_names
                            and base is not target
                        ):
                            yield self.finding(
                                module,
                                stmt,
                                f"RNG value stored into module-level "
                                f"{base.id!r}",
                            )
