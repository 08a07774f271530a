"""Static analysis enforcing the repo's determinism and layering
invariants (``python -m repro check``).

Dependency-free, stdlib-``ast`` only, one pass: every module is parsed
once and dispatched to every rule, and whole-tree rules report in
``finalize``.  These are the invariants a test can only sample; the
contracts the runtime checks on every call (registries, telemetry and
metric vocabularies, picklable params) are enforced where they live.
Rule families:

* **DET1xx** — nondeterminism sources banned from protocol code
  (``core``/``proxcensus``/``crypto``/``network``): wall clocks, ambient
  entropy, the process-global RNG, unordered set iteration, id() ordering.
* **DET2xx** — RNG provenance dataflow: generators must be constructed
  from seed-derived expressions, ``rng`` parameters must not silently
  fall back to ambient state, RNG values must not be parked in
  module-level state.
* **LAY** — the import layer map and module-level cycle detection.

There are no waivers: a finding is fixed, or the rule's scope changes.
See ``docs/static-analysis.md`` for the rule catalogue.
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
