"""Trial plans: declarative, picklable Monte-Carlo experiment descriptions.

A :class:`TrialSpec` is one simulated execution, fully determined by plain
data — protocol name + params, inputs, corruption budget, adversary name +
params, seeds, session tag.  A :class:`TrialPlan` is an ordered collection
of specs.  Both are frozen and picklable, which is what lets the
:class:`~repro.engine.runner.ParallelRunner` ship them to worker
processes.

Determinism is the load-bearing property:

* Per-trial seeds come from :func:`derive_trial_seed` — a pure function of
  ``(base seed, trial index)``, an affine map that has never changed, so
  every committed experiment number stays reproducible bit for bit
  (``tests/engine/test_determinism.py`` pins the whole schedule against
  a hand-written serial loop).
* Per-trial sessions come from :func:`derive_trial_session`.  Distinct
  sessions per trial are **mandatory**: coin values are deterministic in
  (key material, session, index), and session reuse would replay
  identical coins across trials.
* Key material derives from ``setup_seed`` alone (dealt as
  ``random.Random(setup_seed + 0x5E7)`` by
  :func:`repro.engine.runner.deal_suite`), so every worker deals the
  same keys without shipping key material across process boundaries.

Nothing here depends on the executing process: running a plan with 1
worker or 16 yields byte-identical results (see
``tests/engine/test_determinism.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import types
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ..crypto.random_oracle import exact_key

__all__ = [
    "TrialPlan",
    "TrialSpec",
    "derive_trial_seed",
    "derive_trial_session",
]

# The affine seed schedule.  1_000_003 is prime and far larger than any
# trial count in use, so per-base-seed streams never collide for
# trials < 1_000_003.
_SEED_STRIDE = 1_000_003


def derive_trial_seed(base_seed: int, index: int) -> int:
    """Simulator seed for trial ``index`` of a plan seeded ``base_seed``."""
    return base_seed * _SEED_STRIDE + index


def derive_trial_session(base_seed: int, index: int) -> str:
    """Session tag for trial ``index`` (unique per trial — coins depend on it)."""
    return f"exp{base_seed}/{index}"


#: Behaviour, not data: a function does not pickle to a worker unless it
#: is importable, a generator or coroutine is spent by its first reader,
#: and none of them means the same thing in a replayed spec.
_NOT_DATA = (types.FunctionType, types.GeneratorType, types.CoroutineType)


def _freeze_value(value: Any, key: str = "") -> Any:
    """Hashable form of one param value (lists/dicts become tuples).

    ``TypeError`` naming ``key`` if the value holds a function,
    generator or coroutine anywhere inside it.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze_value(v, key)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item, key) for item in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze_value(item, key) for item in value))
    if isinstance(value, _NOT_DATA):
        raise TypeError(
            f"param {key!r} holds a {type(value).__name__}: params must be "
            "plain data (ints, strings, tuples); register the behaviour "
            "under a name and pass the name"
        )
    return value


def _freeze_params(params: Optional[Dict[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical, hashable form of a params dict (sorted key/value pairs)."""
    if not params:
        return ()
    return tuple(
        sorted((key, _freeze_value(value, key)) for key, value in params.items())
    )


#: The JSON types :meth:`TrialSpec.to_json` writes for each field, which
#: are the only ones :meth:`TrialSpec.from_json` reads (``bool`` is no
#: int there, and ``None`` is ``null``).
_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "protocol": (str,),
    "inputs": (list,),
    "max_faulty": (int,),
    "params": (dict,),
    "adversary": (str, type(None)),
    "adversary_params": (dict,),
    "seed": (int,),
    "session": (str,),
    "setup_seed": (int,),
    "backend": (str,),
    "max_rounds": (int,),
    "collect_signatures": (bool,),
    "config": (str,),
    "rsa_bits": (int,),
    "faults": (str, type(None)),
    "fault_params": (dict,),
}
_JSON_WORDS = {
    str: "a string", int: "an int", bool: "a bool", list: "a list",
    dict: "an object", type(None): "null",
}


def _coerce_params(value: Any, label: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a params field to the canonical frozen tuple form.

    Accepts ``None``, a mapping, or an iterable of ``(key, value)``
    pairs (the already-frozen form); anything else is rejected loudly —
    a spec that silently carried dict params would be unhashable and
    break the frozen/picklable contract the runner depends on.  So is a
    value that is behaviour rather than data (see :func:`_freeze_value`).
    """
    if value is None:
        return ()
    if isinstance(value, Mapping):
        return _freeze_params(dict(value))
    if isinstance(value, (tuple, list)):
        pairs = list(value)
        if not all(
            isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in pairs
        ):
            raise TypeError(
                f"{label} must be a mapping or (key, value) pairs, "
                f"got {value!r}"
            )
        return _freeze_params({key: item for key, item in pairs})
    raise TypeError(
        f"{label} must be a mapping or (key, value) pairs, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class TrialSpec:
    """One simulated execution, described by plain picklable data."""

    protocol: str
    inputs: Tuple[Any, ...]
    max_faulty: int
    params: Tuple[Tuple[str, Any], ...] = ()
    adversary: Optional[str] = None
    adversary_params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    session: str = "trial"
    setup_seed: int = 0
    backend: str = "ideal"
    max_rounds: int = 4096
    collect_signatures: bool = True
    config: str = ""
    # Modulus size for backend="real" threshold-RSA dealing.  Part of
    # suite_key: suites dealt at different sizes are different keys.
    rsa_bits: int = 256
    # Fault-injection scenario: a registry name
    # (repro.engine.registry.fault_plan_names) resolved by workers to a
    # repro.network.faults.FaultPlan, like protocol/adversary names.
    # None = the clean synchronous network.  Vector models simulate the
    # fault-free lockstep dynamics only, so the vector backend runs a
    # faulted spec on the object simulator.
    faults: Optional[str] = None
    fault_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "params", _coerce_params(self.params, "params"))
        object.__setattr__(
            self,
            "adversary_params",
            _coerce_params(self.adversary_params, "adversary_params"),
        )
        object.__setattr__(
            self,
            "fault_params",
            _coerce_params(self.fault_params, "fault_params"),
        )
        if self.fault_params and self.faults is None:
            raise ValueError("fault_params given without a faults scenario name")
        if self.backend not in ("ideal", "real"):
            raise ValueError(f"unknown crypto backend {self.backend!r}")
        if self.backend == "real" and self.rsa_bits < 64:
            raise ValueError(
                f"real backend needs rsa_bits >= 64, got {self.rsa_bits}"
            )
        if not (0 <= self.max_faulty < len(self.inputs)):
            raise ValueError(
                f"need 0 <= t < n, got t={self.max_faulty}, n={len(self.inputs)}"
            )

    @property
    def num_parties(self) -> int:
        return len(self.inputs)

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def adversary_param_dict(self) -> Dict[str, Any]:
        return dict(self.adversary_params)

    @property
    def fault_param_dict(self) -> Dict[str, Any]:
        return dict(self.fault_params)

    @functools.cached_property
    def batch_key(self) -> Tuple[Any, ...]:
        """The spec's fields minus per-trial identity: equal keys ⇒ one batch.

        Trials agreeing on everything but :data:`PER_TRIAL_FIELDS` share
        dynamics, so the vector backend groups a chunk by this key and
        keys its configuration tables by it.  The fields' type-exact
        :func:`~repro.crypto.random_oracle.exact_key` (``kappa=True`` is
        not ``kappa=1``), read off the spec once and kept: derived data,
        so ``__getstate__`` drops it and a copy, ``dataclasses.replace``
        or an unpickled spec reads it afresh, while every spec
        :meth:`TrialPlan.monte_carlo` stamps shares its template's one
        key object.
        """
        return exact_key(_batch_fields(self))

    def __getstate__(self) -> Dict[str, Any]:
        # Fields only: a pickle or copy reads the cached key afresh.
        state = vars(self)
        if "batch_key" in state:
            state = dict(state)
            del state["batch_key"]
        return state

    @property
    def suite_key(self) -> Tuple[str, int, int, int, int]:
        """Cache key for dealt key material — all trials sharing it reuse
        one :class:`~repro.crypto.keys.CryptoSuite` per worker process.
        :func:`repro.engine.runner.deal_suite` deals from this key alone."""
        return (
            self.backend,
            self.num_parties,
            self.max_faulty,
            self.setup_seed,
            self.rsa_bits,
        )

    @property
    def config_key(self) -> str:
        """Name of the configuration this trial repeats.

        ``TrialPlan.monte_carlo`` stamps its plan name onto every spec
        (the ``config`` field); specs built by hand fall back to a key
        derived from everything but the per-trial seed/session, so
        repetitions of one configuration always group together.
        """
        if self.config:
            return self.config
        key = (
            f"{self.protocol}{dict(self.params)}"
            f"|n{self.num_parties}t{self.max_faulty}"
            f"|{self.adversary}{dict(self.adversary_params)}"
            f"|{self.backend}"
        )
        if self.faults is not None:
            key += f"|{self.faults}{dict(self.fault_params)}"
        return key

    def to_json(self) -> str:
        """The fields that differ from their defaults, as one JSON object.

        What ``repro run --spec`` takes to run this one trial again;
        :meth:`from_json` inverts it for specs made of JSON's own types
        and tuples.  Raises ``TypeError`` for anything else (``bytes``
        inputs, say).
        """
        document = {}
        for spec_field in dataclasses.fields(self):
            name, value = spec_field.name, getattr(self, spec_field.name)
            if value != spec_field.default:  # required fields have none
                document[name] = dict(value) if name.endswith("params") else value
        return json.dumps(document, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrialSpec":
        """The spec :meth:`to_json` wrote (JSON lists become tuples).

        ``ValueError`` naming the field for an unknown field or a value
        of a JSON type ``to_json`` never writes there.
        """
        document = json.loads(text)
        if not isinstance(document, dict):
            raise ValueError("a trial spec is a JSON object")
        for name, value in document.items():
            if name not in _JSON_TYPES:
                raise ValueError(f"unknown field {name!r}")
            if type(value) not in _JSON_TYPES[name]:
                expected = " or ".join(_JSON_WORDS[kind] for kind in _JSON_TYPES[name])
                raise ValueError(f"field {name!r} is {value!r}, not {expected}")
        if "inputs" in document:
            document["inputs"] = _freeze_value(document["inputs"])
        return cls(**document)


#: The fields that tell one trial of a configuration from the next.
#: Every other ``TrialSpec`` field — including any added later — is part
#: of :attr:`TrialSpec.batch_key`; ``TestBatchKey`` pins both.
PER_TRIAL_FIELDS = ("seed", "session", "config")

_batch_fields = operator.attrgetter(
    *(
        field.name
        for field in dataclasses.fields(TrialSpec)
        if field.name not in PER_TRIAL_FIELDS
    )
)


def _stamp_trial(template: TrialSpec, seed: int, session: str) -> TrialSpec:
    """``replace(template, seed=seed, session=session)`` without re-validating.

    ``__post_init__`` inspects neither field, so a copy of the
    already-validated template with the two stamped on equals (and
    hashes and pickles like) the spec ``TrialSpec(...)`` would build.
    Neither field is in the batch key, so the copy keeps the template's
    cached one, if it has read it.
    """
    spec = object.__new__(TrialSpec)
    vars(spec).update(vars(template), seed=seed, session=session)
    return spec


@dataclass(frozen=True)
class TrialPlan:
    """An ordered, immutable batch of independent trials."""

    name: str
    trials: Tuple[TrialSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.trials, tuple):
            object.__setattr__(self, "trials", tuple(self.trials))

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> Iterator[TrialSpec]:
        return iter(self.trials)

    @classmethod
    def monte_carlo(
        cls,
        name: str,
        protocol: str,
        inputs: Sequence[Any],
        max_faulty: int,
        trials: int,
        params: Optional[Dict[str, Any]] = None,
        adversary: Optional[str] = None,
        adversary_params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        setup_seed: int = 0,
        backend: str = "ideal",
        max_rounds: int = 4096,
        collect_signatures: bool = True,
        rsa_bits: int = 256,
        faults: Optional[str] = None,
        fault_params: Optional[Dict[str, Any]] = None,
    ) -> "TrialPlan":
        """``trials`` independent repetitions of one configuration.

        Trial ``i`` gets :func:`derive_trial_seed` / :func:`derive_trial_session`
        of ``(seed, i)`` — the engine's one seed schedule (see module
        docstring), on which the committed experiment numbers rest.
        """
        if trials < 1:
            raise ValueError("need at least one trial")
        template = TrialSpec(
            protocol=protocol,
            inputs=tuple(inputs),
            max_faulty=max_faulty,
            params=_freeze_params(params),
            adversary=adversary,
            adversary_params=_freeze_params(adversary_params),
            setup_seed=setup_seed,
            backend=backend,
            max_rounds=max_rounds,
            collect_signatures=collect_signatures,
            config=name,
            rsa_bits=rsa_bits,
            faults=faults,
            fault_params=_freeze_params(fault_params),
        )
        template.batch_key  # read once: every stamped copy shares it
        return cls(
            name=name,
            trials=tuple(
                _stamp_trial(
                    template,
                    derive_trial_seed(seed, index),
                    derive_trial_session(seed, index),
                )
                for index in range(trials)
            ),
        )

    @classmethod
    def concat(cls, name: str, plans: Iterable["TrialPlan"]) -> "TrialPlan":
        """Fuse several plans into one (e.g. a κ-sweep of monte-carlo plans)."""
        trials: Tuple[TrialSpec, ...] = ()
        for plan in plans:
            trials += plan.trials
        return cls(name=name, trials=trials)

    def configs(self) -> "OrderedDict[str, Tuple[int, ...]]":
        """Plan indices grouped by configuration, in first-seen order.

        A configuration is a set of repetitions of one experimental
        setting (see :attr:`TrialSpec.config_key`); the metrics artifact
        merges its registries per configuration.
        """
        groups: "OrderedDict[str, list]" = OrderedDict()
        last = current = None
        for index, spec in enumerate(self.trials):
            key = spec.config_key
            if key != last:  # once per run of one configuration
                current = groups.setdefault(key, [])
                last = key
            current.append(index)
        return OrderedDict(
            (name, tuple(indices)) for name, indices in groups.items()
        )

    def describe(self) -> Dict[str, Any]:
        """Human/JSON-facing summary (protocols, adversaries, sizes)."""
        protocols = sorted({spec.protocol for spec in self.trials})
        adversaries = sorted(
            {spec.adversary for spec in self.trials if spec.adversary is not None}
        )
        summary = {
            "name": self.name,
            "trials": len(self.trials),
            "protocols": protocols,
            "adversaries": adversaries,
            "num_parties": sorted({spec.num_parties for spec in self.trials}),
        }
        fault_names = sorted(
            {spec.faults for spec in self.trials if spec.faults is not None}
        )
        if fault_names:
            summary["faults"] = fault_names
        return summary
