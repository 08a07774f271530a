"""VEC rules: vector-backend contract coherence, cross-module.

The vector backend (PR 6/8) rests on contracts the runtime can
only fail *late*: a ``register_vector_model`` pair naming a protocol
that was never registered silently demotes every matching spec to the
object path; a model body that touches wall-clock or per-trial RNG
breaks the config-invariance assumption bit-identity is pinned on; a
probe-cache key that forgets to strip ``seed``/``session`` poisons the
cross-batch cache with per-trial identity.  These rules read the
phase-1 :class:`~repro.checks.index.ProjectIndex` to check all of it
statically, across modules — the registries live in
``engine/registry.py``, the models and vocabulary in
``engine/vectorized.py``, the ``vectorizable`` flag in
``engine/plan.py``.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Optional, Set, Tuple

from .det import _GLOBAL_RNG_FUNCS, _NUMPY_RNG_CONSTRUCTORS
from .framework import Finding, Rule, SourceModule, register_rule
from .index import NON_LITERAL, ProjectIndex

__all__: List[str] = []

#: Exact reason strings and f-string prefixes are read from these
#: module-level constants in the ``engine`` layer (AST-extracted — the
#: checks layer never imports the code it checks).
_VOCAB_EXACT = "FALLBACK_REASONS"
_VOCAB_PREFIXES = "FALLBACK_REASON_PREFIXES"
_OPT_OUT_REASON = "spec opted out (vectorizable=False)"


class _IndexedRule(Rule):
    """Shared shape: finalize-phase rules driven by the project index."""

    def __init__(self) -> None:
        self.index: Optional[ProjectIndex] = None

    def bind(self, index: Any) -> None:
        self.index = index

    def index_finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return self.finding(module, node, message)


@register_rule
class VectorRegistrationRule(_IndexedRule):
    """Every ``register_vector_model`` pair must resolve, once, to real
    registry entries.

    A typo'd protocol or adversary name is invisible at runtime: the
    lookup in ``vector_model_for`` simply misses and every spec falls
    back to the object simulator — correct results, silently 10x slower.
    Cross-checked against the literal names passed to
    ``register_protocol``/``register_adversary`` anywhere in the tree;
    non-literal names and duplicate pairs are also findings (mirroring
    API402 for the base registries).
    """

    id = "VEC501"
    title = "register_vector_model pair does not resolve to registry entries"
    hint = "register the (protocol, adversary) names first; use string literals, each pair once"

    def finalize(self) -> Iterator[Finding]:
        index = self.index
        if index is None:
            return
        protocols = index.registered_names("register_protocol")
        adversaries = index.registered_names("register_adversary")
        seen: Set[Tuple[Any, Any]] = set()
        for call in index.registrations.get("register_vector_model", []):
            protocol, adversary = call.arg(0), call.arg(1)
            if protocol is NON_LITERAL or adversary is NON_LITERAL:
                yield self.index_finding(
                    call.module,
                    call.node,
                    "register_vector_model needs literal names "
                    "(a string protocol, a string-or-None adversary)",
                )
                continue
            if (protocol, adversary) in seen:
                yield self.index_finding(
                    call.module,
                    call.node,
                    f"duplicate vector model for ({protocol!r}, {adversary!r})",
                )
            seen.add((protocol, adversary))
            if protocol not in protocols:
                yield self.index_finding(
                    call.module,
                    call.node,
                    f"vector model registered for unknown protocol "
                    f"{protocol!r}",
                )
            if adversary is not None and adversary not in adversaries:
                yield self.index_finding(
                    call.module,
                    call.node,
                    f"vector model registered for unknown adversary "
                    f"{adversary!r}",
                )


@register_rule
class VectorModelPurityRule(_IndexedRule):
    """Vector-model bodies must not touch clocks or per-trial RNG.

    The whole point of a vector model is that one probe trial pins the
    dynamics for every trial in the batch — valid only if the model is a
    pure function of the spec and seed arrays.  A ``time.*`` call, a
    global ``random.*``/``numpy.random`` draw, an ``rng`` attribute read
    (a party's or adversary's live stream) or a fresh ``random.Random``
    inside a registered model class would make batch results depend on
    when/where the batch ran.  Model classes are resolved from the
    third ``register_vector_model`` argument via the index.
    """

    id = "VEC502"
    title = "vector model body touches wall-clock or party/adversary RNG"
    hint = "models derive everything from (spec, seed arrays); no clocks, no live RNG"

    def finalize(self) -> Iterator[Finding]:
        index = self.index
        if index is None:
            return
        checked: Set[Tuple[str, str]] = set()
        for call in index.registrations.get("register_vector_model", []):
            model_arg = (
                call.node.args[2] if len(call.node.args) > 2 else None
            )
            if not isinstance(model_arg, ast.Name):
                continue
            resolved = index.resolve_class(call.module, model_arg.id)
            if resolved is None:
                continue
            module, class_def = resolved
            key = (module.name, class_def.name)
            if key in checked:
                continue
            checked.add(key)
            yield from self._check_class(module, class_def)

    def _check_class(
        self, module: SourceModule, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        for node in ast.walk(class_def):
            if isinstance(node, ast.Attribute) and node.attr == "rng":
                yield self.finding(
                    module,
                    node,
                    f"vector model {class_def.name} reads a live .rng stream",
                )
            elif isinstance(node, ast.Call):
                target = module.resolve_call_target(node.func)
                if target is None:
                    continue
                parts = target.split(".")
                if target == "time" or target.startswith("time."):
                    yield self.finding(
                        module,
                        node,
                        f"vector model {class_def.name} reads the wall clock "
                        f"({target})",
                    )
                elif target == "random.Random":
                    yield self.finding(
                        module,
                        node,
                        f"vector model {class_def.name} constructs a "
                        "per-trial RNG",
                    )
                elif (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _GLOBAL_RNG_FUNCS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"vector model {class_def.name} draws from the "
                        "global RNG",
                    )
                elif (
                    len(parts) == 3
                    and parts[:2] == ["numpy", "random"]
                    and parts[2] not in _NUMPY_RNG_CONSTRUCTORS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"vector model {class_def.name} draws from numpy's "
                        "global RNG",
                    )


def _constant_str_returns(
    func: ast.AST,
) -> Iterator[Tuple[ast.Return, Optional[str], Optional[str]]]:
    """Yield ``(return_stmt, exact_string, fstring_head)`` per return.

    ``exact_string`` is set for ``return "literal"``; ``fstring_head``
    for ``return f"prefix {x}"`` (the leading constant part, or ``""``
    when the f-string opens with an interpolation).  Plain non-string
    returns yield ``(stmt, None, None)`` and are ignored by the caller.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            yield node, value.value, None
        elif isinstance(value, ast.JoinedStr):
            head = ""
            if value.values and isinstance(value.values[0], ast.Constant):
                head = str(value.values[0].value)
            yield node, None, head
        else:
            yield node, None, None


@register_rule
class FallbackVocabularyRule(_IndexedRule):
    """Fallback reasons must come from the exported vocabulary.

    The per-reason fallback tallies (telemetry's ``fallback_reasons``,
    the ``repro error-sweep --vector`` audit, perfbench's
    ``engine.vectorized.fallback_trials``) and the docs treat reason
    strings as a closed vocabulary; an ``unsupported_reason`` branch that invents a
    new spelling silently escapes every tally.  The engine exports
    ``FALLBACK_REASONS`` (exact strings) and ``FALLBACK_REASON_PREFIXES``
    (for parameterized f-string reasons); every constant return in a
    ``*_reason`` function must be in the former, every f-string return
    must start with one of the latter.  ``vectorizable=False`` forcing
    sites (``TrialSpec.__post_init__`` on faulted specs) stay in sync
    because the opt-out reason itself must be in the vocabulary.
    """

    id = "VEC503"
    title = "fallback reason missing from the exported vocabulary"
    hint = "add the string to FALLBACK_REASONS (or a prefix to FALLBACK_REASON_PREFIXES) in engine/vectorized.py"

    def finalize(self) -> Iterator[Finding]:
        index = self.index
        if index is None:
            return
        reason_funcs = [
            (module, func)
            for module, func in index.iter_functions(top="engine")
            if func.name == "unsupported_reason"
            or func.name.endswith("_reason")
        ]
        if not reason_funcs:
            return
        exact = index.constant("engine", _VOCAB_EXACT)
        prefixes = index.constant("engine", _VOCAB_PREFIXES)
        if not isinstance(exact, (frozenset, set)) or not isinstance(
            prefixes, (tuple, list)
        ):
            module, func = reason_funcs[0]
            yield self.finding(
                module,
                func,
                f"no {_VOCAB_EXACT}/{_VOCAB_PREFIXES} vocabulary exported "
                "by the engine layer",
            )
            return
        for module, func in reason_funcs:
            for stmt, literal, head in _constant_str_returns(func):
                if literal is not None and literal not in exact:
                    yield self.finding(
                        module,
                        stmt,
                        f"reason {literal!r} not in {_VOCAB_EXACT}",
                    )
                elif head is not None and not any(
                    head.startswith(prefix) for prefix in prefixes
                ):
                    yield self.finding(
                        module,
                        stmt,
                        f"f-string reason starting {head!r} matches no "
                        f"{_VOCAB_PREFIXES} entry",
                    )
        # vectorizable=False forcing sites require the opt-out reason.
        if _OPT_OUT_REASON in exact:
            return
        for module in index.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                forced = any(
                    kw.arg == "vectorizable"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                )
                if not forced and (
                    module.resolve_call_target(node.func)
                    == "object.__setattr__"
                    and len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "vectorizable"
                    and isinstance(node.args[2], ast.Constant)
                    and node.args[2].value is False
                ):
                    forced = True
                if forced:
                    yield self.finding(
                        module,
                        node,
                        "vectorizable=False forced here, but "
                        f"{_OPT_OUT_REASON!r} is missing from "
                        f"{_VOCAB_EXACT}",
                    )


#: ``batch_key``'s module declares the fields it leaves out of the key
#: in this module-level literal.
_PER_TRIAL_LITERAL = "PER_TRIAL_FIELDS"
_PER_TRIAL_REQUIRED = frozenset({"seed", "session"})


def _field_read(node: ast.AST, spec: Optional[str]) -> Optional[str]:
    """The field name ``node`` reads off ``spec``: ``spec.f`` or
    ``getattr(spec, "f")``; ``None`` for anything else."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == spec
    ):
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == spec
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    return None


@register_rule
class ProbeKeySeedStripRule(_IndexedRule):
    """Probe/batch cache keys must erase per-trial identity.

    The cross-batch probe cache is keyed by ``batch_key(spec)``; if that
    key ever carries ``seed`` or ``session``, cache hits stop happening
    (worst case) or two *different* sessions share a probe (worse).  The
    key is every spec field except those named in the module-level
    ``PER_TRIAL_FIELDS`` literal beside ``batch_key``, so that literal
    must name both fields, and ``batch_key`` itself must read neither
    off the spec.
    """

    id = "VEC504"
    title = "batch_key does not strip seed/session from the spec"
    hint = (
        'name both in PER_TRIAL_FIELDS = ("seed", "session", ...) beside '
        "batch_key, and read neither field inside it"
    )

    def finalize(self) -> Iterator[Finding]:
        index = self.index
        if index is None:
            return
        for module, func in index.iter_functions(top="engine"):
            if func.name != "batch_key":
                continue
            symbols = index.symbols[module.name]
            excluded = symbols.constants.get(_PER_TRIAL_LITERAL)
            if not isinstance(excluded, (tuple, list, set, frozenset)):
                yield self.finding(
                    module,
                    func,
                    f"no literal {_PER_TRIAL_LITERAL} beside batch_key "
                    "declaring the fields it strips",
                )
            elif not _PER_TRIAL_REQUIRED <= set(excluded):
                missing = sorted(_PER_TRIAL_REQUIRED - set(excluded))
                yield self.finding(
                    module,
                    symbols.assignments[_PER_TRIAL_LITERAL],
                    f"{_PER_TRIAL_LITERAL} does not exclude {missing}",
                )
            spec = func.args.args[0].arg if func.args.args else None
            for node in ast.walk(func):
                field = _field_read(node, spec)
                if field in _PER_TRIAL_REQUIRED:
                    yield self.finding(
                        module,
                        node,
                        f"batch_key reads {field!r} off the spec",
                    )
