"""Static analysis enforcing the repo's determinism/layering/serialization
invariants (``python -m repro check``).

Dependency-free, stdlib-``ast`` only, and now *whole-program*: phase 1
parses every module and builds a :class:`ProjectIndex` (every module's
constant assignments); phase 2 binds the index to every rule and
dispatches per module, so rules can resolve constants across module
boundaries without importing anything they check.  Rule families:

* **DET1xx** — nondeterminism sources banned from protocol code
  (``core``/``proxcensus``/``crypto``/``network``): wall clocks, ambient
  entropy, the process-global RNG, unordered set iteration, id() ordering.
* **DET2xx** — RNG provenance dataflow: generators must be constructed
  from seed-derived expressions, ``rng`` parameters must not silently
  fall back to ambient state, RNG values must not be parked in
  module-level state.
* **LAY** — the import layer map and module-level cycle detection.
* **SER** — pickle/deep-freeze safety of everything crossing a process
  boundary (TrialSpec params, pool submissions).
* **API** — registry and adversary-hook contract coherence.
* **OBS** — trace/telemetry string literals pinned to the schema
  vocabularies exported by ``repro.obs``.
* **SUP** — meta: stale ``# repro: noqa[...]`` suppressions.

See ``docs/static-analysis.md`` for the rule catalogue and suppression
syntax (``# repro: noqa[RULE]``).
"""

from .framework import (
    CheckError,
    Finding,
    Report,
    Rule,
    SourceModule,
    all_rule_classes,
    register_rule,
    run_check,
)
from .index import ProjectIndex

__all__ = [
    "CheckError",
    "Finding",
    "ProjectIndex",
    "Report",
    "Rule",
    "SourceModule",
    "all_rule_classes",
    "register_rule",
    "run_check",
]
