"""DET rules: nondeterminism sources banned from protocol code.

Scope: ``core``, ``proxcensus``, ``crypto``, ``network`` — the packages
whose behavior must be a pure function of ``(TrialSpec, seeds)``.  A
wall-clock read, an ambient-entropy draw, a shared-global-RNG call or an
unordered iteration in any of them silently breaks the engine's
"byte-identical for any worker count" guarantee; the analysis/engine/cli
layers may time and randomize freely (they report, they don't decide).

Every rule here is syntactic and conservative: instance RNGs
(``self.rng.random()``), seeded ``random.Random(seed)`` construction and
``sorted(...)``-wrapped set iteration all pass.  Known-safe exceptions
are annotated in-source with ``# repro: noqa[DETxxx]`` plus a
justification, so each suppression documents itself.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .framework import Finding, Rule, SourceModule, register_rule

__all__ = ["PROTOCOL_SCOPE"]

#: The deterministic layers (see module docstring).
PROTOCOL_SCOPE = frozenset({"core", "proxcensus", "crypto", "network"})

# Module-level functions of `random` that draw from the process-shared
# global RNG.  `random.Random` (a seeded instance) is the sanctioned way.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "getrandbits", "seed", "betavariate",
        "expovariate", "triangular", "normalvariate", "lognormvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate", "randbytes",
    }
)

# numpy.random names that construct *explicit* generator state instead
# of drawing from (or reseeding) the module-level legacy RNG: what the
# RNG dataflow (DET2xx) and the vector-model purity rule (VEC502) accept
# as an owned stream, like `random.Random(seed)` on the stdlib side.
_NUMPY_RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
    }
)

_WALL_CLOCK_TARGETS = (
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

_ENTROPY_EXACT = frozenset({"os.urandom", "os.getrandom", "random.SystemRandom"})
_ENTROPY_PREFIXES = ("uuid.", "secrets.")


class _CallRule(Rule):
    """Shared shape: flag calls whose resolved dotted target matches."""

    scope = PROTOCOL_SCOPE

    def match(self, target: str) -> Optional[str]:
        raise NotImplementedError

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call_target(node.func)
            if target is None:
                continue
            message = self.match(target)
            if message is not None:
                yield self.finding(module, node, message)


@register_rule
class WallClockRule(_CallRule):
    """Wall-clock reads make protocol behavior depend on *when* it runs.

    Any call into the ``time`` module (``time.time``, ``perf_counter``,
    ``monotonic``, ``sleep`` …) or a ``datetime`` "now" constructor from
    inside the deterministic layers is flagged.  Timing belongs in the
    engine/analysis layers, which measure runs rather than participate
    in them.
    """

    id = "DET101"
    title = "wall-clock read in deterministic protocol code"
    hint = "move timing to the engine/analysis layer; protocol code gets rounds, not clocks"

    def match(self, target: str) -> Optional[str]:
        if target == "time" or target.startswith("time."):
            return f"call to {target}() reads the wall clock"
        if target in _WALL_CLOCK_TARGETS:
            return f"call to {target}() reads the wall clock"
        return None


@register_rule
class AmbientEntropyRule(_CallRule):
    """OS entropy and uuids can never be replayed from a seed.

    ``os.urandom``, ``uuid.*``, ``secrets.*`` and ``random.SystemRandom``
    produce values no ``TrialSpec`` seed can reproduce, so a trial that
    touches them is unreplayable by construction.
    """

    id = "DET102"
    title = "ambient entropy source in deterministic protocol code"
    hint = "derive randomness from the per-trial random.Random(seed) stream"

    def match(self, target: str) -> Optional[str]:
        if target in _ENTROPY_EXACT or any(
            target.startswith(prefix) for prefix in _ENTROPY_PREFIXES
        ):
            return f"call to {target}() draws ambient entropy"
        return None


@register_rule
class GlobalRngRule(_CallRule):
    """The module-level ``random.*`` functions share one process-global RNG.

    Two trials running in one worker process would interleave draws from
    it, making results depend on scheduling.  Seeded ``random.Random``
    instances (one stream per trial) are the sanctioned alternative and
    pass this rule.
    """

    id = "DET103"
    title = "module-level random.* call (process-shared RNG state)"
    hint = "use a seeded random.Random instance passed down from the TrialSpec"

    def match(self, target: str) -> Optional[str]:
        parts = target.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _GLOBAL_RNG_FUNCS:
            return f"call to {target}() uses the process-global RNG"
        return None


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically-certain set expressions (literals, set(), set ops)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return True
    return False


@register_rule
class SetIterationRule(Rule):
    """Set iteration order is arbitrary; anything built from it diverges.

    A ``for`` loop, comprehension, ``list()``/``tuple()``/``enumerate()``
    conversion or ``join`` over a set feeds hash-order data into whatever
    it constructs — and a message or signature built that way is
    different between runs and interpreters.  Wrap the set in
    ``sorted(...)`` to pin the order (order-insensitive reductions like
    ``len``/``sum``/``min``/``max``/``any`` are naturally exempt: they
    never appear as iteration contexts here).
    """

    id = "DET104"
    title = "iteration over an unordered set"
    hint = "iterate sorted(<set>) so downstream construction is order-stable"
    scope = PROTOCOL_SCOPE

    _CONVERTERS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                yield self.finding(
                    module, node.iter, "for-loop over an unordered set expression"
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield self.finding(
                            module,
                            generator.iter,
                            "comprehension over an unordered set expression",
                        )
            elif isinstance(node, ast.Call) and node.args:
                head = node.args[0]
                if not _is_set_expr(head):
                    continue
                if isinstance(node.func, ast.Name) and node.func.id in self._CONVERTERS:
                    yield self.finding(
                        module,
                        head,
                        f"{node.func.id}() over an unordered set expression",
                    )
                elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
                    yield self.finding(
                        module, head, "join() over an unordered set expression"
                    )


def _is_keys_call(node: ast.AST) -> bool:
    """``<expr>.keys()`` — the syntactic marker for a mapping view."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


def _is_dict_expr(node: ast.AST) -> bool:
    """Syntactically-certain mapping expressions (literals, dict(), .keys())."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    ):
        return True
    return _is_keys_call(node)


@register_rule
class DictOrderingRule(Rule):
    """Dict iteration order is insertion order — which is arrival order.

    In protocol code the dicts are tallies keyed by received values, so
    their insertion order encodes *message arrival order*.  A tie-break
    that reads it — ``next(iter(tally.keys()))`` grabbing "the" key, or
    ``min``/``max`` with a ``key=`` function over ``.keys()`` (ties
    between equal-key elements resolve to whichever arrived first) —
    silently couples the decision to delivery scheduling.  Pin the order
    instead: ``next(iter(sorted(tally)))``, or fold the element into the
    comparison key so no tie is left to iteration order (the
    ``max(tally.items(), key=lambda kv: (kv[1], repr(kv[0])))`` idiom).
    Order-insensitive reductions — ``len``/``sum``/``any``, ``min``/
    ``max`` *without* ``key=`` — pass.
    """

    id = "DET107"
    title = "tie-break fed by dict iteration order"
    hint = "sort the keys first, or make the comparison key total so no tie remains"
    scope = PROTOCOL_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Name
            ):
                continue
            if node.func.id == "next" and node.args:
                inner = node.args[0]
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "iter"
                    and inner.args
                    and _is_dict_expr(inner.args[0])
                ):
                    yield self.finding(
                        module,
                        node,
                        "next(iter(...)) over a mapping reads insertion "
                        "(= arrival) order",
                    )
            elif node.func.id in ("min", "max") and node.args:
                if _is_keys_call(node.args[0]) and any(
                    keyword.arg == "key" for keyword in node.keywords
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{node.func.id}(.keys(), key=...) breaks ties by "
                        "dict insertion (= arrival) order",
                    )


@register_rule
class IdOrderingRule(Rule):
    """``id()`` values vary per process, so ordering by them is random.

    Flags ``sorted``/``min``/``max``/``.sort`` with ``key=id`` (or a key
    lambda calling ``id``) and ``id(...)`` comparisons.  Identity-keyed
    *caches* (``cache[id(obj)]``) are deterministic in effect and pass.
    """

    id = "DET105"
    title = "ordering derived from id() values"
    hint = "sort by a stable key (party id, tuple of fields), never id()"
    scope = PROTOCOL_SCOPE

    _ORDER_FUNCS = frozenset({"sorted", "min", "max"})
    _COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

    @staticmethod
    def _is_id_key(value: ast.AST) -> bool:
        if isinstance(value, ast.Name) and value.id == "id":
            return True
        if isinstance(value, ast.Lambda):
            return any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "id"
                for inner in ast.walk(value.body)
            )
        return False

    @staticmethod
    def _is_id_call(value: ast.AST) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "id"
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                ordered = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self._ORDER_FUNCS
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"
                )
                if ordered:
                    for keyword in node.keywords:
                        if keyword.arg == "key" and self._is_id_key(keyword.value):
                            yield self.finding(
                                module, node, "sort key derived from id()"
                            )
            elif isinstance(node, ast.Compare):
                sides = [node.left] + list(node.comparators)
                if any(isinstance(op, self._COMPARE_OPS) for op in node.ops) and any(
                    self._is_id_call(side) for side in sides
                ):
                    yield self.finding(
                        module, node, "ordering comparison of id() values"
                    )
