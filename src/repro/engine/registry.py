"""Name → builder registries for picklable trial specifications.

A :class:`~repro.engine.plan.TrialSpec` must cross a process boundary, so
it cannot carry closures.  Instead it names its protocol and adversary;
worker processes resolve the names through these registries and build the
actual program factory / adversary instance locally.

All three registries are extensible: library users register their own
programs, adversaries and fault scenarios with :func:`register_protocol`
/ :func:`register_adversary` / :func:`register_fault_plan` before
building a plan.  (With ``fork``-start process pools the registrations are
inherited by workers; under ``spawn``, register at module import time.)

Protocol builders have signature ``builder(**params) -> ProgramFactory``.
Adversary builders have signature ``builder(factory, **params) ->
Adversary`` — the resolved protocol factory is passed in because generic
adversaries like ``two_face`` simulate honest behavior and need it; most
builders ignore it.  Fault-plan builders have signature
``builder(**params) -> FaultPlan`` (see :mod:`repro.network.faults`) —
fault scenarios name adversarial *network* behavior the same way
adversary names describe adversarial *parties*.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional

from ..adversary.base import Adversary
from ..adversary.coin_bias import WithholdingCoinAdversary
from ..adversary.straddle import (
    BareLinearHalfStraddleAdversary,
    LinearHalfStraddleAdversary,
    OneThirdStraddleAdversary,
)
from ..adversary.strategies import (
    CrashAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)
from ..adversary.termination import GradeSplitAdversary
from ..core.ablation import ba_one_half_generalized, ba_one_third_chunked
from ..core.ba import BA_BY_REGIME, ba_one_half_program, ba_one_third_program
from ..core.dolev_strong import dolev_strong_ba_program
from ..core.feldman_micali import feldman_micali_program
from ..core.micali_vaikuntanathan import (
    micali_vaikuntanathan_program,
    mv_pki_program,
)
from ..core.probabilistic import fm_probabilistic_program
from ..core.turpin_coan import (
    multivalued_ba_program,
    turpin_coan_classic_program,
)
from ..crypto.coin import threshold_coin_program
from ..crypto.vrf_coin import vrf_coin_program
from ..network.faults import Crash, FaultPlan, Partition
from ..network.party import ProgramFactory
from ..proxcensus.gradecast_cert import certificate_gradecast_program
from ..proxcensus.linear_half import prox_linear_half_program
from ..proxcensus.one_third import (
    prox_expand_once_program,
    prox_one_third_program,
)
from ..proxcensus.proxcast import proxcast_program
from ..proxcensus.quadratic_half import prox_quadratic_half_program

__all__ = [
    "build_adversary",
    "build_fault_plan",
    "build_protocol_factory",
    "protocol_names",
    "adversary_names",
    "fault_plan_names",
    "register_adversary",
    "register_fault_plan",
    "register_protocol",
]

ProtocolBuilder = Callable[..., ProgramFactory]
AdversaryBuilder = Callable[..., Adversary]
FaultPlanBuilder = Callable[..., FaultPlan]

_PROTOCOLS: Dict[str, ProtocolBuilder] = {}
_ADVERSARIES: Dict[str, AdversaryBuilder] = {}
_FAULT_PLANS: Dict[str, FaultPlanBuilder] = {}


def _claim(table: Dict[str, Any], kind: str, name: str, builder: Any) -> None:
    """Bind ``name`` to ``builder`` in ``table``, at most once.

    Re-registering the *same* builder is a no-op (module re-imports
    must stay idempotent); a *different* builder for a claimed name
    raises ``ValueError`` — a silent overwrite would let import order
    decide which code a plan naming ``name`` runs.
    """
    if not callable(builder):
        raise TypeError(f"{kind} builder for {name!r} is not callable")
    existing = table.get(name)
    if existing is not None and existing is not builder:
        raise ValueError(
            f"{kind} {name!r} is already registered as {existing!r}; "
            f"register {builder!r} under another name"
        )
    table[name] = builder


def register_protocol(name: str, builder: ProtocolBuilder) -> None:
    """Register ``builder(**params) -> factory(ctx, value)`` under ``name``."""
    _claim(_PROTOCOLS, "protocol", name, builder)


def register_adversary(name: str, builder: AdversaryBuilder) -> None:
    """Register ``builder(factory, **params) -> Adversary`` under ``name``."""
    _claim(_ADVERSARIES, "adversary", name, builder)


def register_fault_plan(name: str, builder: FaultPlanBuilder) -> None:
    """Register ``builder(**params) -> FaultPlan`` under ``name``."""
    _claim(_FAULT_PLANS, "fault-plan", name, builder)


def protocol_names() -> List[str]:
    """Registered protocol names, sorted."""
    return sorted(_PROTOCOLS)


def adversary_names() -> List[str]:
    """Registered adversary names, sorted."""
    return sorted(_ADVERSARIES)


def fault_plan_names() -> List[str]:
    """Registered fault-scenario names, sorted."""
    return sorted(_FAULT_PLANS)


def build_protocol_factory(name: str, params: Dict[str, Any]) -> ProgramFactory:
    """Resolve a protocol name to a ``factory(ctx, value)`` callable."""
    try:
        builder = _PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; registered: {protocol_names()}"
        ) from None
    return builder(**params)


def build_adversary(
    name: Optional[str], params: Dict[str, Any], factory: ProgramFactory
) -> Optional[Adversary]:
    """Resolve an adversary name (or ``None``) to a fresh instance."""
    if name is None:
        return None
    try:
        builder = _ADVERSARIES[name]
    except KeyError:
        raise KeyError(
            f"unknown adversary {name!r}; registered: {adversary_names()}"
        ) from None
    return builder(factory, **params)


def build_fault_plan(
    name: Optional[str], params: Dict[str, Any]
) -> Optional[FaultPlan]:
    """Resolve a fault-scenario name (or ``None``) to a fresh plan.

    ``KeyError`` for an unregistered name; ``ValueError`` naming the
    scenario and the parameters it takes when the builder rejects
    ``params`` (chained from what the builder raised).
    """
    if name is None:
        return None
    try:
        builder = _FAULT_PLANS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault scenario {name!r}; registered: {fault_plan_names()}"
        ) from None
    try:
        return builder(**params)
    except (TypeError, ValueError) as error:
        signature = inspect.signature(builder)
        reason = str(error)
        try:
            signature.bind(**params)
        except TypeError as mismatch:
            # A bad keyword: say which, without the builder's own name.
            reason = str(mismatch)
        raise ValueError(
            f"fault scenario {name!r} takes ({', '.join(signature.parameters)}): "
            f"{reason}"
        ) from error


# ── Built-in protocols ───────────────────────────────────────────────────
# Every program the stock benchmarks sweep.  Builders close over only
# module-level callables, so the returned factories are fork-safe.

register_protocol(
    "ba_one_third",
    lambda kappa: (lambda ctx, bit: ba_one_third_program(ctx, bit, kappa)),
)
register_protocol(
    "ba_one_half",
    lambda kappa: (lambda ctx, bit: ba_one_half_program(ctx, bit, kappa)),
)
register_protocol(
    "feldman_micali",
    lambda kappa: (lambda ctx, bit: feldman_micali_program(ctx, bit, kappa)),
)
register_protocol(
    "micali_vaikuntanathan",
    lambda kappa: (
        lambda ctx, bit: micali_vaikuntanathan_program(ctx, bit, kappa)
    ),
)
register_protocol(
    "mv_pki",
    lambda kappa: (lambda ctx, bit: mv_pki_program(ctx, bit, kappa)),
)
register_protocol(
    "dolev_strong",
    lambda: (lambda ctx, value: dolev_strong_ba_program(ctx, value)),
)
register_protocol(
    "fm_probabilistic",
    lambda: (lambda ctx, bit: fm_probabilistic_program(ctx, bit)),
)
register_protocol(
    "prox_one_third",
    lambda rounds: (
        lambda ctx, value: prox_one_third_program(ctx, value, rounds=rounds)
    ),
)
register_protocol(
    "prox_linear_half",
    lambda rounds: (
        lambda ctx, value: prox_linear_half_program(ctx, value, rounds=rounds)
    ),
)
register_protocol(
    "prox_quadratic_half",
    lambda rounds: (
        lambda ctx, value: prox_quadratic_half_program(ctx, value, rounds=rounds)
    ),
)
register_protocol(
    # One expansion step Prox_s -> Prox_{2s-1}: inputs are (value, grade)
    # pairs (the state a party carries between rounds), `slots` the
    # *source* slot count.  Used by the FIG2 expansion benchmark.
    "prox_expand_once",
    lambda slots: (
        lambda ctx, pair: prox_expand_once_program(ctx, pair[0], pair[1], slots)
    ),
)
register_protocol(
    # Lemma 1 proxcast: only the dealer's input is read.
    "proxcast",
    lambda slots, dealer, default=0: (
        lambda ctx, value: proxcast_program(ctx, value, slots, dealer, default)
    ),
)
register_protocol(
    "certificate_gradecast",
    lambda dealer, default=0: (
        lambda ctx, value: certificate_gradecast_program(
            ctx, value, dealer, default
        )
    ),
)
register_protocol(
    # Ablation axes (docs/EXPERIMENTS FIG-ABL): chunked Prox expansion
    # for t<n/3 and the generalized Prox_{2r-1} family for t<n/2.
    "ba_one_third_chunked",
    lambda kappa, chunk: (
        lambda ctx, bit: ba_one_third_chunked(ctx, bit, kappa, chunk)
    ),
)
register_protocol(
    "ba_one_half_generalized",
    lambda kappa, prox_rounds=3, family="linear": (
        lambda ctx, bit: ba_one_half_generalized(
            ctx, bit, kappa, prox_rounds, family
        )
    ),
)


def _binary_for(regime: str, kappa: int) -> ProgramFactory:
    """The binary BA matching a multivalued lift's corruption regime (the
    lift's prefix rejects an unknown regime before it runs)."""
    return lambda ctx, bit: BA_BY_REGIME[regime].program(ctx, bit, kappa)


#: What a multivalued lift outputs when its binary BA decides 0, unless
#: the spec's ``default`` param names another value.
LIFT_DEFAULT = "∅"

register_protocol(
    "turpin_coan_classic",
    lambda kappa, default=LIFT_DEFAULT: (
        lambda ctx, value: turpin_coan_classic_program(
            ctx, value, _binary_for("one_third", kappa), default=default
        )
    ),
)
register_protocol(
    "multivalued_ba",
    lambda kappa, regime="one_third", default=LIFT_DEFAULT: (
        lambda ctx, value: multivalued_ba_program(
            ctx, value, _binary_for(regime, kappa), regime=regime, default=default
        )
    ),
)


def _vrf_coin_factory(index=0, low=0, high=1):
    """Factory for one VRF common-coin flip (inputs are ignored)."""

    def factory(ctx, _value):
        value = yield from vrf_coin_program(ctx, index, low, high)
        return value

    return factory


def _threshold_coin_factory(index=0, low=0, high=1):
    """Factory for one threshold-signature coin flip (inputs ignored)."""

    def factory(ctx, _value):
        value = yield from threshold_coin_program(ctx, index, low, high)
        return value

    return factory


register_protocol("vrf_coin", _vrf_coin_factory)
register_protocol("threshold_coin", _threshold_coin_factory)


# ── Built-in adversaries ─────────────────────────────────────────────────

register_adversary(
    "straddle13",
    lambda factory, victims, down_group=None: OneThirdStraddleAdversary(
        list(victims), set(down_group) if down_group is not None else None
    ),
)
register_adversary(
    "straddle12",
    lambda factory, victims, iteration_rounds=3: LinearHalfStraddleAdversary(
        list(victims), iteration_rounds
    ),
)
register_adversary(
    "bare_straddle12",
    lambda factory, victims, iteration_rounds=3: BareLinearHalfStraddleAdversary(
        list(victims), iteration_rounds
    ),
)
register_adversary(
    "crash",
    lambda factory, victims, crash_round=1: CrashAdversary(
        list(victims), crash_round
    ),
)
register_adversary(
    "malformed",
    lambda factory, victims: MalformedAdversary(list(victims)),
)
register_adversary(
    "two_face",
    lambda factory, victims: TwoFaceAdversary(list(victims), factory=factory),
)
register_adversary(
    "grade_split",
    lambda factory, victims, target=0, boost_value=0: GradeSplitAdversary(
        list(victims), target=target, boost_value=boost_value
    ),
)
register_adversary(
    "withhold_coin",
    lambda factory, victims, index=0, low=0, high=1, preferred=1,
    session=None: WithholdingCoinAdversary(
        list(victims), index=index, low=low, high=high,
        preferred=preferred, session=session,
    ),
)


# ── Built-in fault scenarios ─────────────────────────────────────────────
# Adversarial networks, named like adversaries so TrialSpec can carry
# them across process boundaries.  Params arrive as plain values or the
# frozen-tuple form TrialSpec normalizes to; FaultPlan re-freezes them.


def _as_crashes(crashes) -> tuple:
    return tuple(Crash(pid=p, down=d, up=u) for p, d, u in crashes)


register_fault_plan(
    "lossy",
    lambda rate=0.1: FaultPlan(loss=rate),
)
register_fault_plan(
    "delaying",
    lambda rate=0.1, max_delay=2: FaultPlan(delay=rate, max_delay=max_delay),
)
register_fault_plan(
    "partitioned",
    lambda groups, start=1, heal=None: FaultPlan(
        partitions=(
            Partition(
                groups=tuple(tuple(g) for g in groups), start=start, heal=heal
            ),
        )
    ),
)
register_fault_plan(
    "crash_recover",
    lambda crashes: FaultPlan(crashes=_as_crashes(crashes)),
)
register_fault_plan(
    "rotating_membership",
    lambda epoch_length, disabled: FaultPlan(
        epoch_length=epoch_length,
        disabled=tuple(tuple(g) for g in disabled),
    ),
)
register_fault_plan(
    "degraded",
    # The benchmark composite: background loss/delay plus one healing
    # split (bench_fault_tolerance sweeps rate × partition length).
    lambda rate=0.05, max_delay=2, split=(), heal=None: FaultPlan(
        loss=rate,
        delay=rate,
        max_delay=max_delay,
        partitions=(
            (Partition(groups=(tuple(split),), start=1, heal=heal),)
            if split
            else ()
        ),
    ),
)
