"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run``
    Execute one protocol on a simulated network and print the outcome
    (optionally with a full message trace and an adversary attached;
    ``--trace-jsonl`` additionally streams the trace to a
    schema-versioned JSONL file).
``trace``
    Replay a streamed JSONL trace file through the round-timeline
    renderer, with ``--round`` / ``--party`` / ``--corrupt-only``
    filters and ``--stats`` per-round tallies.  Malformed, truncated or
    wrong-schema files exit 2.
``compare``
    The §3.5 efficiency comparison, measured live for chosen κ values.
``tables``
    Regenerate the paper's condition tables / extraction figure.
``error-sweep``
    Monte-Carlo disagreement rates vs the 2^-κ bound under the worst-case
    straddle adversaries.
``bench``
    The same sweep through the parallel experiment engine: runs it
    serially and with ``--workers`` processes, checks the two are
    bit-identical, reports wall times and writes a machine-readable
    ``BENCH_engine.json``.
    ``--adaptive`` adds the early-stopping leg: the sweep re-run under
    :class:`repro.engine.AdaptiveRunner` with a total budget equal to the
    fixed run, verdict-checked against it config for config.
    ``--telemetry DIR`` streams engine scheduling spans (chunk dispatch,
    worker busy time, setup, adaptive allocations) to
    ``DIR/telemetry.jsonl`` and fails if they don't sum consistently
    with the reported wall times.
``check``
    Two-phase whole-program static analysis enforcing the repo's
    determinism, layering, serialization and observability invariants
    (rule families DET/LAY/SER/API/VEC/OBS/SUP; see
    ``docs/static-analysis.md``).  Exit 1 on findings; ``--json`` /
    ``--sarif`` write CI artifacts, ``--baseline`` demotes known
    findings, ``--fix`` applies the whitelisted mechanical rewrites
    (``--diff`` previews them), and per-line ``# repro: noqa[RULE]``
    suppressions are themselves checked for staleness (SUP901).

Examples::

    python -m repro run --protocol one_third --kappa 8 --inputs 1,0,1,0 --t 1
    python -m repro run --protocol one_half --kappa 4 --inputs 1,0,1,0,1 \\
        --t 2 --adversary straddle --trace
    python -m repro run --protocol one_third --kappa 4 --inputs 1,0,1,0 \\
        --t 1 --adversary crash --trace-jsonl run.trace.jsonl
    python -m repro trace run.trace.jsonl --stats
    python -m repro trace run.trace.jsonl --round 1,2 --corrupt-only
    python -m repro compare --kappas 4,8,16,32
    python -m repro tables --which table2
    python -m repro error-sweep --protocol one_half --kappas 1,2,4 --trials 200
    python -m repro bench --workers 4 --trials 300 --json BENCH_engine.json
    python -m repro bench --adaptive --max-trials 600 --trials 300
    python -m repro check --json check-report.json --sarif check-report.sarif
    python -m repro check --select DET,LAY src/repro
    python -m repro check --fix
    python -m repro check --diff
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .adversary.base import Adversary
from .adversary.straddle import (
    LinearHalfStraddleAdversary,
    OneThirdStraddleAdversary,
)
from .adversary.strategies import (
    CrashAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)
from .analysis.experiments import ExperimentSetup, disagreement_rate, run_trials
from .analysis.report import format_table
from .analysis.tables import render_fig3, render_table1, render_table2
from .analysis.theory import rounds_for_error
from .core.ba import ba_one_half_program, ba_one_third_program
from .core.dolev_strong import dolev_strong_ba_program
from .core.feldman_micali import feldman_micali_program
from .core.micali_vaikuntanathan import micali_vaikuntanathan_program
from .crypto.keys import CryptoSuite
from .network.simulator import SyncSimulator
from .network.trace import Tracer

__all__ = ["main"]

PROTOCOLS = {
    "one_third": (ba_one_third_program, "n/3"),
    "one_half": (ba_one_half_program, "n/2"),
    "feldman_micali": (feldman_micali_program, "n/3"),
    "micali_vaikuntanathan": (micali_vaikuntanathan_program, "n/2"),
}


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_adversary(name: str, victims: List[int], factory) -> Optional[Adversary]:
    if name == "none":
        return None
    if name == "crash":
        return CrashAdversary(victims, crash_round=2)
    if name == "malformed":
        return MalformedAdversary(victims)
    if name == "two_face":
        return TwoFaceAdversary(victims, factory=factory)
    if name == "straddle13":
        return OneThirdStraddleAdversary(victims)
    if name == "straddle12":
        return LinearHalfStraddleAdversary(victims)
    raise argparse.ArgumentTypeError(f"unknown adversary {name!r}")


def _replay_spec(text: str) -> int:
    """``repro run --spec``: one engine trial, exactly as a sweep ran it."""
    from .engine import TrialSpec, run_trial

    try:
        spec = TrialSpec.from_json(text)
    except (TypeError, ValueError) as error:
        print(f"repro run: --spec is not a trial spec: {error}", file=sys.stderr)
        return 2
    result = run_trial(spec)
    print(f"protocol   : {spec.protocol} {spec.param_dict or ''}".rstrip())
    print(f"adversary  : {spec.adversary or '-'}")
    print(f"session    : {spec.session} (seed {spec.seed}, {spec.backend})")
    _print_outcome(spec.inputs, result)
    return 0 if result.honest_agree() else 1


def _print_outcome(inputs, result) -> None:
    print(f"inputs     : {list(inputs)}")
    print(f"corrupted  : {sorted(result.corrupted) or '-'}")
    print(f"outputs    : {result.outputs}")
    print(f"agreement  : {result.honest_agree()}")
    print(f"rounds     : {result.metrics.rounds}")
    print(f"messages   : {result.metrics.total_messages}")
    print(f"signatures : {result.metrics.total_signatures}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.spec is not None:
        return _replay_spec(args.spec)
    if args.protocol == "dolev_strong":
        factory = lambda ctx, v: dolev_strong_ba_program(ctx, v)
    else:
        program, _regime = PROTOCOLS[args.protocol]
        factory = lambda ctx, b: program(ctx, b, args.kappa)
    inputs = args.inputs
    n, t = len(inputs), args.t
    if args.adversary == "straddle":
        args.adversary = "straddle13" if args.protocol == "one_third" else "straddle12"
    victims = args.victims or list(range(n - t, n))
    adversary = _build_adversary(args.adversary, victims, factory)
    faults = None
    if args.faults:
        import json as _json

        from .engine import build_fault_plan, fault_plan_names

        try:
            fault_params = (
                _json.loads(args.fault_params) if args.fault_params else {}
            )
        except ValueError as error:
            print(
                f"repro run: --fault-params is not valid JSON: {error}",
                file=sys.stderr,
            )
            return 2
        try:
            faults = build_fault_plan(args.faults, fault_params)
        except (KeyError, TypeError, ValueError) as error:
            print(
                f"repro run: bad fault scenario: {error}\n"
                f"usage: --faults takes one of {fault_plan_names()}",
                file=sys.stderr,
            )
            return 2
    tracer = None
    memory_sink = None
    jsonl_sink = None
    if args.trace or args.trace_jsonl:
        from .network.trace import MemoryTraceSink

        sinks = []
        if args.trace:
            memory_sink = MemoryTraceSink()
            sinks.append(memory_sink)
        if args.trace_jsonl:
            from .obs import FanoutSink, JsonlTraceSink

            jsonl_sink = JsonlTraceSink(
                args.trace_jsonl,
                meta={
                    "protocol": args.protocol,
                    "kappa": args.kappa,
                    "adversary": args.adversary,
                    "n": n,
                    "t": t,
                    "seed": args.seed,
                    "session": f"cli{args.seed}",
                },
            )
            sinks.append(jsonl_sink)
        tracer = Tracer(sinks[0] if len(sinks) == 1 else FanoutSink(sinks))
    import random as _random

    simulator = SyncSimulator(
        num_parties=n,
        max_faulty=t,
        crypto=CryptoSuite.ideal(n, t, _random.Random(args.seed + 0x5E7)),
        adversary=adversary,
        seed=args.seed,
        session=f"cli{args.seed}",
        observers=() if tracer is None else (tracer,),
        faults=faults,
    )
    try:
        result = simulator.run(factory, inputs)
    finally:
        if tracer is not None:
            tracer.close()
    print(f"protocol   : {args.protocol} (kappa={args.kappa})")
    _print_outcome(inputs, result)
    if faults is not None and simulator.last_fault_counts is not None:
        counts = simulator.last_fault_counts
        print(
            f"faults     : {args.faults} "
            f"(lost={counts.lost} delayed={counts.delayed} "
            f"late={counts.delivered_late} partitioned={counts.partitioned} "
            f"offline={counts.offline} stale={counts.stale})"
        )
    if memory_sink is not None:
        print("\ntranscript:")
        print(memory_sink.render())
    if jsonl_sink is not None:
        print(
            f"\nwrote trace: {args.trace_jsonl} "
            f"({jsonl_sink.events_written} events, "
            f"{jsonl_sink.corruptions_written} corruptions)"
        )
    return 0 if result.honest_agree() else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Replay a streamed JSONL trace through the timeline renderer."""
    from .obs import (
        ObsFormatError,
        diff_traces,
        filter_trace,
        load_trace,
        trace_metrics,
    )

    try:
        loaded = load_trace(args.file)
    except (ObsFormatError, OSError) as error:
        print(f"repro trace: {error}", file=sys.stderr)
        return 2
    if args.diff is not None:
        try:
            other = load_trace(args.diff)
        except (ObsFormatError, OSError) as error:
            print(f"repro trace: {error}", file=sys.stderr)
            return 2
        divergence = diff_traces(loaded, other)
        if divergence is None:
            print(
                f"traces identical: {args.file} == {args.diff} "
                f"({loaded.events} events, {loaded.tracer.rounds} rounds)"
            )
            return 0
        print(f"- {args.file}\n+ {args.diff}")
        print(divergence.render())
        return 1
    tracer = loaded.tracer
    # Validate filters against what the trace actually contains before
    # filtering: a bad --round/--party silently matching nothing would
    # render an empty timeline indistinguishable from a quiet execution.
    if args.round is not None:
        total_rounds = tracer.rounds
        bad = sorted({r for r in args.round if r < 1 or r > total_rounds})
        if bad:
            print(
                f"repro trace: --round value(s) {','.join(map(str, bad))} "
                f"out of range\nusage: --round takes round indices from 1 "
                f"to {total_rounds} (this trace)",
                file=sys.stderr,
            )
            return 2
    if args.party is not None:
        num_parties = loaded.meta.get("n")
        if not isinstance(num_parties, int):
            seen = {event.sender for event in tracer.events}
            seen.update(event.recipient for event in tracer.events)
            seen.update(pid for _, pid in tracer.corruptions)
            num_parties = max(seen, default=-1) + 1
        if not (0 <= args.party < num_parties):
            print(
                f"repro trace: --party {args.party} out of range\n"
                f"usage: --party takes a party id from 0 to "
                f"{num_parties - 1} (this trace)",
                file=sys.stderr,
            )
            return 2
    if args.round is not None or args.party is not None or args.corrupt_only:
        tracer = filter_trace(
            tracer,
            rounds=args.round,
            party=args.party,
            corrupt_only=args.corrupt_only,
        )
    if loaded.meta:
        described = ", ".join(
            f"{key}={value}" for key, value in sorted(loaded.meta.items())
        )
        print(f"trace: {args.file} ({described})\n")
    print(tracer.render(max_payload_width=args.width))
    if args.stats:
        from .obs import metrics_from_trace

        metrics = trace_metrics(tracer)
        rows = []
        for round_index in sorted(metrics.per_round):
            stats = metrics.per_round[round_index]
            rows.append(
                [
                    round_index,
                    stats.honest_messages,
                    stats.corrupt_messages,
                    stats.honest_signatures,
                    stats.corrupt_signatures,
                ]
            )
        # Column headers and counter names below come from the pinned
        # repro-metrics/1 vocabulary (METRIC_NAMES), so `--stats` output
        # cross-references directly against `repro report` tables.
        print("\nper-round tallies (replayed from the trace)\n")
        print(
            format_table(
                ["round", "messages_honest", "messages_corrupt",
                 "signatures_honest", "signatures_corrupt"],
                rows,
            )
        )
        print()
        print(f"{'events':22s}: {len(tracer.events)}")
        print(f"{'corruptions':22s}: {len(tracer.corruptions)}")
        registry = metrics_from_trace(tracer.events, tracer.faults)
        names = sorted({name for name, _ in registry.counters})
        for name in names:
            if name == "round_messages":
                continue  # the per-round table above already shows these
            print(f"{name:22s}: {registry.counter_total(name)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for kappa in args.kappas:
        rows.append(
            [
                kappa,
                rounds_for_error("ours_one_third", kappa),
                rounds_for_error("feldman_micali", kappa),
                rounds_for_error("ours_one_half", kappa),
                rounds_for_error("micali_vaikuntanathan", kappa),
            ]
        )
    print("rounds to reach error 2^-kappa\n")
    print(
        format_table(
            ["kappa", "ours t<n/3", "FM t<n/3", "ours t<n/2", "MV t<n/2"], rows
        )
    )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    renderers = {
        "table1": lambda: render_table1(3),
        "table2": lambda: render_table2(6),
        "fig3": lambda: render_fig3(10),
    }
    which = list(renderers) if args.which == "all" else [args.which]
    for name in which:
        print(f"── {name} " + "─" * 50)
        print(renderers[name]())
        print()
    return 0


def _cmd_error_sweep(args: argparse.Namespace) -> int:
    if args.protocol == "one_third":
        setup = ExperimentSetup(num_parties=4, max_faulty=1)
        inputs = [0, 0, 1, 1]
        adversary_factory = lambda: OneThirdStraddleAdversary([3])
        program = ba_one_third_program
    else:
        setup = ExperimentSetup(num_parties=5, max_faulty=2)
        inputs = [0, 0, 1, 1, 1]
        adversary_factory = lambda: LinearHalfStraddleAdversary([3, 4])
        program = ba_one_half_program
    rows = []
    for kappa in args.kappas:
        factory = lambda c, b, k=kappa: program(c, b, k)
        rate = disagreement_rate(
            run_trials(
                setup, factory, inputs, trials=args.trials,
                adversary_factory=adversary_factory, seed=args.seed + kappa,
            )
        )
        rows.append([kappa, f"{2.0 ** -kappa:.4f}", f"{rate:.4f}"])
    print(
        f"{args.protocol}: disagreement under worst-case straddle attack "
        f"({args.trials} trials)\n"
    )
    print(format_table(["kappa", "bound 2^-k", "measured"], rows))
    return 0


def _build_sweep_plan(
    args: argparse.Namespace,
    trials: Optional[int] = None,
    kappas: Optional[List[int]] = None,
    collect_signatures: bool = False,
):
    """The error-probability sweep as one engine plan (see `bench`).

    ``collect_signatures`` defaults off — disagreement rates don't need
    signature tallies, so the per-payload walk stays off the hot path —
    and is flipped on for the signature-heavy payload-measurement slice.
    """
    from .engine import TrialPlan

    configs = []
    if args.protocol in ("one_third", "both"):
        configs.append(
            ("ba_one_third", (0, 0, 1, 1), 1, "straddle13", {"victims": (3,)})
        )
    if args.protocol in ("one_half", "both"):
        configs.append(
            ("ba_one_half", (0, 0, 1, 1, 1), 2, "straddle12", {"victims": (3, 4)})
        )
    plans = []
    for protocol, inputs, max_faulty, adversary, adversary_params in configs:
        for kappa in kappas if kappas is not None else args.kappas:
            plans.append(
                TrialPlan.monte_carlo(
                    name=f"{protocol}-k{kappa}",
                    protocol=protocol,
                    inputs=inputs,
                    max_faulty=max_faulty,
                    trials=trials if trials is not None else args.trials,
                    params={"kappa": kappa},
                    adversary=adversary,
                    adversary_params=adversary_params,
                    seed=args.seed + kappa,
                    backend=args.backend,
                    rsa_bits=args.rsa_bits,
                    collect_signatures=collect_signatures,
                )
            )
    return TrialPlan.concat(f"error-sweep-{args.protocol}", plans)


def _sweep_bounds(plan, expression: str) -> dict:
    """Per-config target bounds for an error sweep.

    ``expression`` is either the default ``"2**-k"`` / ``"2^-k"`` — the
    paper's Corollary 2 bound, evaluated per config from its κ — or a
    literal float applied to every config.
    """
    bounds = {}
    if expression.replace("^", "**") in ("2**-k", "2**-kappa"):
        for name, indices in plan.configs().items():
            kappa = plan.trials[indices[0]].param_dict["kappa"]
            bounds[name] = 2.0 ** -kappa
        return bounds
    try:
        value = float(expression)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--bound must be '2**-k' or a float, got {expression!r}"
        )
    return {name: value for name in plan.configs()}


def _run_adaptive_leg(
    args: argparse.Namespace, serial, workers: int, telemetry=None
) -> dict:
    """The ``--adaptive`` leg of `bench`: early-stopping vs fixed budget.

    Runs the same sweep through :class:`AdaptiveRunner` with a total
    budget equal to the fixed run's trial count (per-config cap
    ``--max-trials``), checks the accept/reject verdicts agree with the
    fixed-budget run config for config, and returns the JSON payload.
    """
    from .analysis.stats import format_rate
    from .engine import AdaptiveRunner

    cap = args.max_trials or args.trials
    plan = _build_sweep_plan(args, trials=cap)
    bounds = _sweep_bounds(plan, args.bound)
    budget = args.trials * len(plan.configs())
    runner = AdaptiveRunner(
        workers=workers, batch_size=args.batch, telemetry=telemetry
    )
    adaptive = runner.run(plan, bounds, budget=budget)

    # Fixed-budget verdicts: the same classifier fed the full counts.
    fixed_groups = serial.plan.configs()
    rows = []
    matches = True
    for name, outcome in adaptive.configs.items():
        fixed_indices = fixed_groups[name]
        fixed_estimate = runner.estimate_for(name, bounds)
        fixed_hits = sum(
            1
            for index in fixed_indices
            if not serial.results[index].honest_agree()
        )
        fixed_estimate.update(fixed_hits, len(fixed_indices))
        matches = matches and (outcome.accepted == fixed_estimate.accepted)
        rows.append(
            {
                "config": name,
                "bound": outcome.bound,
                "fixed_trials": len(fixed_indices),
                "fixed_rate": format_rate(fixed_hits, len(fixed_indices)),
                "fixed_accepted": fixed_estimate.accepted,
                "adaptive_trials": outcome.executed,
                "adaptive_rate": (
                    format_rate(outcome.hits, outcome.executed)
                    if outcome.executed
                    else None
                ),
                "adaptive_status": outcome.status,
                "adaptive_accepted": outcome.accepted,
                "stopped_early": outcome.stopped_early,
            }
        )

    print(
        f"\nadaptive allocation (budget {budget}, per-config cap {cap}, "
        f"batch {args.batch})\n"
    )
    print(
        format_table(
            ["config", "bound", "fixed n", "adaptive n", "status", "early"],
            [
                [
                    row["config"],
                    f"{row['bound']:.4f}",
                    row["fixed_trials"],
                    row["adaptive_trials"],
                    row["adaptive_status"],
                    "yes" if row["stopped_early"] else "-",
                ]
                for row in rows
            ],
        )
    )
    fixed_total = sum(row["fixed_trials"] for row in rows)
    print()
    print(f"{'adaptive trials spent':32s}: {adaptive.spent:8d} / {fixed_total}")
    print(
        f"{'trials saved':32s}: {fixed_total - adaptive.spent:8d} "
        f"({(fixed_total - adaptive.spent) / fixed_total:.1%})"
    )
    print(
        f"{'adaptive wall time':32s}: {adaptive.wall_seconds:8.3f}s"
    )
    print(
        f"{'verdicts match fixed run':32s}: "
        f"{'      OK' if matches else '    MISMATCH'}"
    )
    return {
        "budget": budget,
        "per_config_cap": cap,
        "batch_size": args.batch,
        "spent": adaptive.spent,
        "fixed_total": fixed_total,
        "saved": fixed_total - adaptive.spent,
        "saved_fraction": round((fixed_total - adaptive.spent) / fixed_total, 4),
        "wall_seconds": round(adaptive.wall_seconds, 4),
        "verdicts_match_fixed": matches,
        "configs": rows,
    }


#: One representative vector-modeled Monte-Carlo plan per migrated
#: benchmark: (figure, protocol, inputs, t, params, adversary,
#: adversary_params).  Every entry must be vector-supported — the
#: ``--figures`` leg exits nonzero if any spec reports a fallback, so a
#: model regression cannot silently demote a published figure to the
#: object simulator.
_FIGURE_PLANS = (
    ("fig1_slot_structure", "prox_one_third", (0, 0, 1, 1), 1,
     {"rounds": 3}, "straddle13", {"victims": (3,)}),
    ("fig2_expansion", "prox_one_third", (0, 0, 1, 1), 1,
     {"rounds": 4}, "two_face", {"victims": (3,)}),
    ("table1_prox5", "prox_linear_half", (1, 0, 1, 0, 1), 2,
     {"rounds": 3}, "bare_straddle12", {"victims": (3, 4)}),
    ("table2_fm_probabilistic", "fm_probabilistic", (1, 0, 1, 0), 1,
     None, None, None),
    ("mv_turpin_coan", "turpin_coan_classic", ("a", "b", "a", "a"), 1,
     {"kappa": 3}, None, None),
    ("mv_multivalued_ba", "multivalued_ba", ("a", "b", "a", "a"), 1,
     {"kappa": 3}, None, None),
    ("coin_threshold_withhold", "threshold_coin", (None,) * 4, 1,
     {"index": 1, "low": 0, "high": 1}, "withhold_coin",
     {"victims": (3,), "index": 1, "low": 0, "high": 1, "preferred": 1}),
    ("coin_vrf_withhold", "vrf_coin", (None,) * 4, 1,
     {"index": 1, "low": 0, "high": 1}, "withhold_coin",
     {"victims": (3,), "index": 1, "low": 0, "high": 1, "preferred": 1}),
    ("gradecast_substitution", "proxcast", ("v",) * 9, 4,
     {"slots": 4, "dealer": 0}, None, None),
    ("slot_growth", "prox_quadratic_half", (1,) * 5, 2,
     {"rounds": 4}, None, None),
    ("crypto_backends", "ba_one_half", (1, 0, 1, 0, 1), 2,
     {"kappa": 4}, None, None),
)


def _run_figures_leg(args: argparse.Namespace) -> dict:
    """The ``--figures`` leg of `bench`: per-benchmark vector speedups.

    Each migrated benchmark contributes one representative Monte-Carlo
    plan (a newly vector-modeled protocol × adversary pair where one
    exists).  The plan runs through both executors; results must be
    bit-identical, no spec may fall back, and the measured object/vector
    wall-time ratio is recorded per figure for ``BENCH_engine.json``.
    """
    from .engine import (
        ParallelRunner,
        TrialPlan,
        TrialSpec,
        clear_probe_cache,
        derive_trial_seed,
        derive_trial_session,
        probe_cache_stats,
    )
    from .engine.vectorized import unsupported_reason

    trials = min(args.trials, 120)
    figures: dict = {}
    rows = []
    for name, protocol, inputs, t, params, adversary, adv_params in _FIGURE_PLANS:
        specs = tuple(
            TrialSpec(
                protocol=protocol,
                inputs=inputs,
                max_faulty=t,
                params=params,
                adversary=adversary,
                adversary_params=adv_params,
                seed=derive_trial_seed(args.seed, trial),
                session=derive_trial_session(args.seed, trial),
            )
            for trial in range(trials)
        )
        fallback_reasons = sorted(
            {
                reason
                for reason in (unsupported_reason(spec) for spec in specs)
                if reason is not None
            }
        )
        plan = TrialPlan(name=f"figure-{name}", trials=specs)
        object_run = ParallelRunner(workers=1).run(plan)
        clear_probe_cache()
        before = probe_cache_stats()
        vector_run = ParallelRunner(workers=1, backend="vector").run(plan)
        after = probe_cache_stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        identical = vector_run.results == object_run.results
        speedup = (
            object_run.wall_seconds / vector_run.wall_seconds
            if vector_run.wall_seconds > 0
            else float("inf")
        )
        figures[name] = {
            "protocol": protocol,
            "adversary": adversary,
            "trials": trials,
            "object_seconds": round(object_run.wall_seconds, 4),
            "vector_seconds": round(vector_run.wall_seconds, 4),
            "speedup_vector_vs_object": round(speedup, 3),
            "identical": identical,
            "fallback": len(fallback_reasons),
            "fallback_reasons": fallback_reasons,
            "probe_cache_hits": hits,
            "probe_cache_misses": misses,
        }
        rows.append(
            [
                name,
                f"{protocol} × {adversary or '-'}",
                f"{object_run.wall_seconds:.3f}s",
                f"{vector_run.wall_seconds:.3f}s",
                f"{speedup:.1f}x",
                "OK" if identical else "DIFF",
                len(fallback_reasons) or "-",
            ]
        )
    print(f"\nper-benchmark vector figures ({trials} trials each)\n")
    print(
        format_table(
            ["figure", "pair", "object", "vector", "speedup", "ident", "fb"],
            rows,
        )
    )
    failed = sorted(
        name
        for name, entry in figures.items()
        if entry["fallback"] or not entry["identical"]
    )
    if failed:
        for name in failed:
            entry = figures[name]
            reasons = "; ".join(entry["fallback_reasons"]) or "results differ"
            print(f"FIGURE REGRESSION: {name}: {reasons}")
    return {"figures": figures, "failed": failed}


def _run_metrics_leg(plan, backend: str):
    """The ``--metrics`` leg of `bench`: one collecting run on ``backend``.

    Returns the run plus the fallbacks the vector backend should not
    have taken — reason → trials beyond those ``unsupported_reason``
    predicts (the rule ``--figures`` applies): metrics are vector-native,
    so a supported spec on the object path is a regression, not a cost.
    """
    import os
    import tempfile
    from collections import Counter

    from .engine import ParallelRunner
    from .engine.vectorized import unsupported_reason
    from .obs import TelemetryWriter, summarize_telemetry

    if backend != "vector":
        return ParallelRunner(workers=1, metrics=True).run(plan), {}
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "metrics-leg.jsonl")
        with TelemetryWriter(path) as telemetry:
            run = ParallelRunner(
                workers=1, backend="vector", metrics=True, telemetry=telemetry
            ).run(plan)
        counted = Counter(summarize_telemetry(path)["fallback_reasons"])
    predicted = Counter(
        reason
        for reason in (unsupported_reason(spec) for spec in plan.trials)
        if reason is not None
    )
    return run, dict(counted - predicted)


def _measure_real_setup(plan, workers: int) -> Optional[dict]:
    """Time threshold-RSA dealing for a real-backend plan, two ways.

    ``serial``: each distinct suite dealt one after another, fresh — the
    per-process cost every pool worker used to pay on first touch.
    ``parallel``: :func:`repro.engine.predeal_suites` — deal once in the
    parent (fanning distinct keys across a dealing pool when several are
    missing), then broadcast; what the runners now actually do.  The
    suites stay cached afterwards, so the measured runs that follow
    reuse them.  Returns ``None`` for plans with no real-backend trials.
    """
    import time

    from .engine import clear_suite_cache, deal_suite, predeal_suites

    keys = []
    for spec in plan.trials:
        if spec.backend == "real" and spec.suite_key not in keys:
            keys.append(spec.suite_key)
    if not keys:
        return None
    clear_suite_cache()
    started = time.perf_counter()
    for key in keys:
        deal_suite(key)
    serial_seconds = time.perf_counter() - started
    clear_suite_cache()
    started = time.perf_counter()
    predeal_suites(plan, workers)
    parallel_seconds = time.perf_counter() - started
    return {
        "suites": len(keys),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
    }


def _measure_payloads(args: argparse.Namespace, workers: int) -> dict:
    """Size both wire formats on a signature-heavy slice of the sweep.

    The rate sweep itself runs with signature collection off (tallies
    are dead weight there), so the payload comparison runs the max-κ
    configs with ``collect_signatures=True`` — the metrics-dominated
    payload shape the compact transport exists for — chunked exactly as
    a pool at ``workers`` processes would ship them.
    """
    from .engine import ParallelRunner, measure_payload_bytes

    plan = _build_sweep_plan(
        args,
        trials=min(args.trials, 100),
        kappas=[max(args.kappas)],
        collect_signatures=True,
    )
    results = ParallelRunner(workers=1).run(plan).results
    chunk_size = max(1, len(plan) // (max(workers, 2) * 4))
    full, compact = measure_payload_bytes(
        list(enumerate(results)), chunk_size=chunk_size
    )
    return {
        "plan": plan.describe(),
        "chunk_size": chunk_size,
        "payload_bytes_full": full,
        "payload_bytes_compact": compact,
        "payload_reduction": round(full / compact, 3),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from .engine import ParallelRunner, clamp_workers

    plan = _build_sweep_plan(args)
    per_config = args.trials
    if not len(plan):
        print("nothing to run: --kappas is empty")
        return 2

    requested = args.workers
    workers = clamp_workers(requested)
    clamped = requested is not None and workers != requested
    if clamped:
        print(
            f"workers: requested {requested}, clamped to {workers} "
            f"(cpu_count={os.cpu_count()})"
            + ("; parallel leg skipped, serial path only" if workers == 1 else "")
        )
    elif requested is None:
        print(f"workers: auto -> {workers} (cpu_count={os.cpu_count()})")

    telemetry = None
    telemetry_path = None
    if args.telemetry:
        from .obs import TelemetryWriter

        os.makedirs(args.telemetry, exist_ok=True)
        telemetry_path = os.path.join(args.telemetry, "telemetry.jsonl")
        telemetry = TelemetryWriter(
            telemetry_path,
            meta={
                "plan": plan.describe(),
                "trials_per_config": per_config,
                "workers": workers,
                "backend": args.backend,
            },
        )

    setup_timing = _measure_real_setup(plan, workers)
    if telemetry is not None and setup_timing is not None:
        telemetry.emit("real_setup", **setup_timing)
    serial = ParallelRunner(workers=1, telemetry=telemetry).run(plan)
    parallel = None
    if workers > 1:
        parallel = ParallelRunner(workers=workers, telemetry=telemetry).run(plan)
        if parallel.results != serial.results:
            print("DETERMINISM VIOLATION: parallel results differ from serial")
            return 2
    vector = None
    if args.vector:
        vector = ParallelRunner(
            workers=1, backend="vector", telemetry=telemetry
        ).run(plan)
        if vector.results != serial.results:
            print("DETERMINISM VIOLATION: vector results differ from object")
            return 2

    metrics_leg = None
    if args.metrics:
        # A collection leg of its own, on the backend the command
        # selected: collection is not free, so it never runs inside the
        # timed legs above — the serial/parallel/vector rates stay
        # comparable across runs with and without --metrics.
        from .obs import write_metrics_artifact

        metrics_leg, demoted = _run_metrics_leg(
            plan, "vector" if args.vector else "object"
        )
        if metrics_leg.results != serial.results:
            print("DETERMINISM VIOLATION: metrics leg differs from serial")
            return 2
        if demoted:
            for reason, count in sorted(demoted.items()):
                print(f"METRICS LEG REGRESSION: {count} supported trials "
                      f"fell back: {reason}")
            return 2
        write_metrics_artifact(args.metrics, metrics_leg.metrics_payload())

    profile_leg = None
    if args.profile:
        # One extra profiled leg (pooled when workers allow, so the
        # dumps cover the worker chunks), again outside the timed legs:
        # cProfile overhead must not leak into --compare rates.
        profile_leg = ParallelRunner(
            workers=workers, profile_dir=args.profile, telemetry=telemetry
        ).run(plan)
        if profile_leg.results != serial.results:
            print("DETERMINISM VIOLATION: profiled leg differs from serial")
            return 2

    rows = []
    for start in range(0, len(plan), per_config):
        specs = plan.trials[start : start + per_config]
        results = serial.results[start : start + per_config]
        kappa = specs[0].param_dict["kappa"]
        failures = sum(1 for result in results if not result.honest_agree())
        rows.append(
            [
                specs[0].protocol,
                kappa,
                f"{2.0 ** -kappa:.4f}",
                f"{failures / len(results):.4f}",
            ]
        )
    print(
        f"error-probability sweep through the engine "
        f"({len(plan)} trials, {per_config} per config)\n"
    )
    print(format_table(["protocol", "kappa", "bound 2^-k", "measured"], rows))

    timings = [("engine serial (1 worker)", serial.wall_seconds)]
    if parallel is not None:
        timings.append(
            (f"engine parallel ({workers} workers)", parallel.wall_seconds)
        )
    if vector is not None:
        timings.append(("engine vector (1 worker)", vector.wall_seconds))
    print()
    for label, seconds in timings:
        print(f"{label:32s}: {seconds:8.3f}s")
    if parallel is not None:
        print(
            f"{'parallel vs serial':32s}: "
            f"{serial.wall_seconds / parallel.wall_seconds:8.2f}x"
        )
    if vector is not None:
        print(
            f"{'vector vs object (per core)':32s}: "
            f"{serial.wall_seconds / vector.wall_seconds:8.2f}x"
        )
        print(f"{'vector == object':32s}:       OK (bit-identical)")
    if parallel is not None and parallel.results == serial.results:
        print(f"{'serial == parallel':32s}:       OK (bit-identical)")
    if setup_timing is not None:
        print(
            f"{'real setup serial':32s}: "
            f"{setup_timing['serial_seconds']:8.3f}s "
            f"({setup_timing['suites']} suites, dealt one by one)"
        )
        print(
            f"{'real setup pre-dealt':32s}: "
            f"{setup_timing['parallel_seconds']:8.3f}s "
            f"(once per run, broadcast to workers)"
        )

    payloads = _measure_payloads(args, workers)
    print(
        f"{'payload full pickle':32s}: {payloads['payload_bytes_full']:8d} B"
    )
    print(
        f"{'payload compact':32s}: {payloads['payload_bytes_compact']:8d} B "
        f"({payloads['payload_reduction']:.2f}x smaller, "
        f"signature-heavy k={max(args.kappas)} slice)"
    )

    if metrics_leg is not None:
        from .obs import METRICS_SCHEMA

        print(f"{'metrics artifact':32s}: {args.metrics} ({METRICS_SCHEMA})")
    if profile_leg is not None:
        print(
            f"{'profile dumps':32s}: {args.profile} "
            f"(profiled leg {profile_leg.wall_seconds:8.3f}s, "
            f"{workers} worker{'s' if workers > 1 else ''})"
        )

    adaptive_payload = None
    if args.adaptive:
        adaptive_payload = _run_adaptive_leg(args, serial, workers, telemetry)

    figures_payload = None
    if args.figures:
        figures_payload = _run_figures_leg(args)

    telemetry_summary = None
    if telemetry is not None:
        from .obs import summarize_telemetry

        telemetry.emit(
            "bench_complete",
            serial_seconds=round(serial.wall_seconds, 4),
            parallel_seconds=(
                round(parallel.wall_seconds, 4) if parallel else None
            ),
            vector_seconds=(
                round(vector.wall_seconds, 4) if vector else None
            ),
        )
        telemetry.close()
        telemetry_summary = summarize_telemetry(telemetry_path)
        print()
        print(
            f"{'telemetry':32s}: {telemetry_path} "
            f"({telemetry_summary['records']} records, "
            f"{telemetry_summary['chunks']} chunk spans)"
        )
        for run in telemetry_summary["runs"]:
            if run.get("utilization") is not None:
                print(
                    f"{'  ' + run['label'][:28] + ' util':32s}: "
                    f"{run['utilization']:8.0%} "
                    f"({run['chunks']} chunks, "
                    f"busy {run['busy_seconds']:.3f}s / "
                    f"wall {run['wall_seconds']:.3f}s x "
                    f"{run['workers']} workers)"
                )
        cache_hits = telemetry_summary.get("probe_cache_hits", 0)
        cache_misses = telemetry_summary.get("probe_cache_misses", 0)
        if cache_hits or cache_misses:
            print(
                f"{'probe cache (vector legs)':32s}: "
                f"{cache_hits:8d} hits / {cache_misses} misses "
                f"({cache_hits / (cache_hits + cache_misses):.0%} hit rate)"
            )
        if telemetry_summary.get("fallback_reasons"):
            for reason, count in sorted(
                telemetry_summary["fallback_reasons"].items()
            ):
                print(f"{'  vector fallback':32s}: {count:8d} x {reason}")
        print(
            f"{'telemetry spans consistent':32s}: "
            f"{'      OK' if telemetry_summary['consistent'] else '    MISMATCH'}"
        )

    if args.json or args.compare:
        payload = {
            "schema": "repro-bench/1",
            "plan": plan.describe(),
            "trials_per_config": per_config,
            "kappas": list(args.kappas),
            "backend": args.backend,
            "rsa_bits": args.rsa_bits,
            "workers": workers,
            "workers_requested": requested,
            "workers_clamped": clamped,
            "cpu_count": os.cpu_count(),
            "transport": "compact",
            "chunk_size": parallel.chunk_size if parallel else None,
            "serial_seconds": round(serial.wall_seconds, 4),
            "parallel_seconds": (
                round(parallel.wall_seconds, 4) if parallel else None
            ),
            "speedup_parallel_vs_serial": (
                round(serial.wall_seconds / parallel.wall_seconds, 3)
                if parallel
                else None
            ),
            "vector_seconds": (
                round(vector.wall_seconds, 4) if vector else None
            ),
            "speedup_vector_vs_object": (
                round(serial.wall_seconds / vector.wall_seconds, 3)
                if vector
                else None
            ),
            "identical_vector_object": (
                vector.results == serial.results if vector else None
            ),
            "identical_serial_parallel": (
                parallel.results == serial.results if parallel else None
            ),
            "payload_bytes_full": payloads["payload_bytes_full"],
            "payload_bytes_compact": payloads["payload_bytes_compact"],
            "payload_reduction": payloads["payload_reduction"],
            "payload_plan": payloads["plan"],
            "payload_chunk_size": payloads["chunk_size"],
            "real_setup_serial_seconds": (
                setup_timing["serial_seconds"] if setup_timing else None
            ),
            "real_setup_parallel_seconds": (
                setup_timing["parallel_seconds"] if setup_timing else None
            ),
            "real_setup_suites": (
                setup_timing["suites"] if setup_timing else None
            ),
            "rates": [
                {
                    "protocol": row[0],
                    "kappa": row[1],
                    "bound": float(row[2]),
                    "measured": float(row[3]),
                }
                for row in rows
            ],
            "adaptive": adaptive_payload,
            "figures": (
                figures_payload["figures"] if figures_payload else None
            ),
            "telemetry": (
                {
                    "path": telemetry_path,
                    "records": telemetry_summary["records"],
                    "chunks": telemetry_summary["chunks"],
                    "busy_seconds": round(
                        telemetry_summary["busy_seconds"], 4
                    ),
                    "payload_bytes": telemetry_summary["payload_bytes"],
                    "consistent": telemetry_summary["consistent"],
                    "probe_cache": {
                        "hits": telemetry_summary.get("probe_cache_hits", 0),
                        "misses": telemetry_summary.get(
                            "probe_cache_misses", 0
                        ),
                        "hit_rate": (
                            round(
                                telemetry_summary["probe_cache_hits"]
                                / (
                                    telemetry_summary["probe_cache_hits"]
                                    + telemetry_summary["probe_cache_misses"]
                                ),
                                4,
                            )
                            if telemetry_summary.get("probe_cache_hits", 0)
                            + telemetry_summary.get("probe_cache_misses", 0)
                            else None
                        ),
                    },
                    "fallback_reasons": telemetry_summary.get(
                        "fallback_reasons", {}
                    ),
                }
                if telemetry_summary is not None
                else None
            ),
        }
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"\nwrote {args.json}")
    regression = False
    if args.compare:
        from .analysis.benchdiff import (
            compare_benchmarks,
            format_bench_report,
            load_bench,
        )

        report = compare_benchmarks(
            load_bench(args.compare), payload, threshold=args.threshold
        )
        report["baseline_path"] = args.compare
        report["candidate_path"] = "(this run)"
        print()
        print(format_bench_report(report))
        regression = not report["ok"]
    if adaptive_payload is not None and not adaptive_payload["verdicts_match_fixed"]:
        return 2
    if figures_payload is not None and figures_payload["failed"]:
        return 2
    if telemetry_summary is not None and not telemetry_summary["consistent"]:
        print("TELEMETRY MISMATCH: spans do not sum consistently with wall time")
        return 2
    if regression:
        return 3
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Fuse run artifacts into one deterministic markdown/HTML report."""
    from .obs import (
        ObsFormatError,
        build_report,
        check_report,
        load_report_inputs,
        render_html,
    )

    if not (args.metrics or args.telemetry or args.bench or args.profile):
        print(
            "repro report: nothing to report\nusage: pass at least one of "
            "--metrics/--telemetry/--bench/--profile",
            file=sys.stderr,
        )
        return 2
    try:
        inputs = load_report_inputs(
            metrics_path=args.metrics,
            telemetry_path=args.telemetry,
            bench_paths=args.bench or [],
            profile_dir=args.profile,
            top=args.top,
        )
    except (ObsFormatError, OSError, ValueError) as error:
        print(f"repro report: {error}", file=sys.stderr)
        return 2
    if args.check:
        # Gate before rendering: a report built from malformed inputs
        # must not be published at all, not published-with-caveats.
        violations = check_report(
            metrics=inputs["metrics"],
            telemetry=inputs["telemetry"],
            benches=inputs["benches"],
        )
        if violations:
            for violation in violations:
                print(f"repro report: {violation}", file=sys.stderr)
            return 2
    markdown = build_report(
        metrics=inputs["metrics"],
        telemetry=inputs["telemetry"],
        benches=inputs["benches"],
        profile=inputs["profile"],
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown, end="")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(markdown))
        print(f"wrote {args.html}")
    if args.check:
        print("report inputs: OK (schemas valid, telemetry consistent)")
    return 0


def _parse_rule_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _default_check_root() -> str:
    """The package's own source tree — works from any cwd."""
    import os

    return os.path.dirname(os.path.abspath(__file__))


def _write_check_artifact(path: str, payload: str) -> Optional[str]:
    """Write a report artifact; return an error message instead of raising."""
    try:
        with open(path, "w") as handle:
            handle.write(payload)
    except OSError as error:
        return f"cannot write {path}: {error.strerror or error}"
    return None


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import (
        CheckError,
        all_rule_classes,
        fix_tree,
        load_baseline,
        run_check,
    )

    if args.list_rules:
        for cls in all_rule_classes():
            print(f"{cls.id}  {cls.title}")
            if cls.hint:
                print(f"        fix: {cls.hint}")
        return 0
    root = args.path or _default_check_root()
    try:
        baseline = load_baseline(args.baseline) if args.baseline else None
        if args.diff:
            result = fix_tree(
                root, select=args.select, ignore=args.ignore, write=False
            )
            for diff in result.diffs:
                print(diff, end="")
            print(
                f"--diff: {result.applied} fix(es) in "
                f"{len(result.changed_files)} file(s) would be applied "
                "(tree untouched)"
            )
            return 0
        if args.fix:
            result = fix_tree(root, select=args.select, ignore=args.ignore)
            print(
                f"--fix: applied {result.applied} fix(es) in "
                f"{len(result.changed_files)} file(s)"
                + (
                    ": " + ", ".join(result.changed_files)
                    if result.changed_files
                    else ""
                )
            )
            report = run_check(
                root, select=args.select, ignore=args.ignore, baseline=baseline
            )
        else:
            report = run_check(
                root, select=args.select, ignore=args.ignore, baseline=baseline
            )
    except CheckError as error:
        print(f"repro check: {error}", file=sys.stderr)
        return 2
    print(report.render())
    for path, payload in (
        (args.json, report.to_json()),
        (args.sarif, report.to_sarif()),
    ):
        if not path:
            continue
        problem = _write_check_artifact(path, payload)
        if problem is not None:
            print(f"repro check: {problem}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_ledger(args: argparse.Namespace) -> int:
    from .applications.ledger import NO_OP, replicated_log_program, rounds_per_slot

    queues = [queue.split("+") if queue else [] for queue in args.queues.split(";")]
    n = len(queues)
    program = lambda ctx, cmds: replicated_log_program(
        ctx, cmds, num_slots=args.slots, kappa=args.kappa,
        regime=args.regime, proposer=args.proposer,
    )
    import random as _random

    simulator = SyncSimulator(
        num_parties=n,
        max_faulty=args.t,
        crypto=CryptoSuite.ideal(n, args.t, _random.Random(args.seed + 0x1ED6)),
        seed=args.seed,
        session=f"ledger{args.seed}",
    )
    result = simulator.run(program, queues)
    per_slot = rounds_per_slot(args.kappa, args.regime, args.proposer)
    print(f"replicas : {n} (t = {args.t}), {args.slots} slots x {per_slot} rounds")
    reference = None
    for pid in sorted(result.outputs):
        log = [c if c != NO_OP else "<no-op>" for c in result.outputs[pid]]
        print(f"replica {pid}: {log}")
        reference = reference if reference is not None else log
    forked = any(
        result.outputs[pid] != result.outputs[result.honest_parties[0]]
        for pid in result.honest_parties
    )
    print(f"forked   : {forked}")
    return 1 if forked else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Round-efficient Byzantine Agreement via Proxcensus "
        "(Fitzi, Liu-Zhang, Loss; PODC 2021) — executable reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute one protocol")
    run_parser.add_argument(
        "--protocol",
        choices=list(PROTOCOLS) + ["dolev_strong"],
        default="one_third",
    )
    run_parser.add_argument("--kappa", type=int, default=8)
    run_parser.add_argument(
        "--inputs", type=_parse_int_list, default=[1, 0, 1, 0],
        help="comma-separated bits, one per party",
    )
    run_parser.add_argument("--t", type=int, default=1, help="corruption budget")
    run_parser.add_argument(
        "--adversary",
        choices=["none", "crash", "malformed", "two_face", "straddle",
                 "straddle13", "straddle12"],
        default="none",
    )
    run_parser.add_argument(
        "--victims", type=_parse_int_list, default=None,
        help="corrupted party ids (default: the last t parties)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--faults", default=None, metavar="SCENARIO",
        help="fault-injection scenario (a repro.engine registry name, "
        "e.g. lossy, delaying, partitioned, crash_recover)",
    )
    run_parser.add_argument(
        "--fault-params", default=None, metavar="JSON",
        help='scenario params as JSON, e.g. \'{"rate": 0.2}\'',
    )
    run_parser.add_argument(
        "--spec", default=None, metavar="JSON",
        help="replay one engine trial instead: the spec a "
        "TrialExecutionError printed (every other option is ignored)",
    )
    run_parser.add_argument("--trace", action="store_true")
    run_parser.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="also stream the trace to a schema-versioned JSONL file "
        "(replay it with `repro trace PATH`)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    trace_parser = subparsers.add_parser(
        "trace", help="replay a streamed JSONL trace as a round timeline"
    )
    trace_parser.add_argument("file", help="a .trace.jsonl file to replay")
    trace_parser.add_argument(
        "--round", type=_parse_int_list, default=None, metavar="R[,R...]",
        help="show only these round indices",
    )
    trace_parser.add_argument(
        "--party", type=int, default=None, metavar="PID",
        help="show only events this party sent or received",
    )
    trace_parser.add_argument(
        "--corrupt-only", action="store_true",
        help="show only messages from corrupted senders",
    )
    trace_parser.add_argument(
        "--stats", action="store_true",
        help="append per-round message/signature tallies",
    )
    trace_parser.add_argument(
        "--width", type=_positive_int, default=60, metavar="COLS",
        help="max payload summary width in the timeline",
    )
    trace_parser.add_argument(
        "--diff", default=None, metavar="OTHER",
        help="compare against a second trace file round by round; "
        "exit 1 at the first divergence",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    compare_parser = subparsers.add_parser(
        "compare", help="the §3.5 efficiency comparison"
    )
    compare_parser.add_argument(
        "--kappas", type=_parse_int_list, default=[4, 8, 16, 32]
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    tables_parser = subparsers.add_parser(
        "tables", help="regenerate the paper's tables/figures"
    )
    tables_parser.add_argument(
        "--which", choices=["table1", "table2", "fig3", "all"], default="all"
    )
    tables_parser.set_defaults(handler=_cmd_tables)

    sweep_parser = subparsers.add_parser(
        "error-sweep", help="Monte-Carlo failure rates vs 2^-kappa"
    )
    sweep_parser.add_argument(
        "--protocol", choices=["one_third", "one_half"], default="one_third"
    )
    sweep_parser.add_argument("--kappas", type=_parse_int_list, default=[1, 2, 4])
    sweep_parser.add_argument("--trials", type=int, default=100)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.set_defaults(handler=_cmd_error_sweep)

    bench_parser = subparsers.add_parser(
        "bench",
        help="error-probability sweep through the parallel experiment engine",
    )
    bench_parser.add_argument(
        "--protocol", choices=["one_third", "one_half", "both"], default="both"
    )
    bench_parser.add_argument(
        "--kappas", type=_parse_int_list, default=[1, 2, 4, 6, 8]
    )
    bench_parser.add_argument("--trials", type=_positive_int, default=300)
    bench_parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="process count for the parallel leg (1 = serial only; "
        "default: auto, clamped to os.cpu_count())",
    )
    bench_parser.add_argument(
        "--backend", choices=["ideal", "real"], default="ideal",
        help="crypto backend for the sweep: 'real' deals threshold-RSA "
        "keys (pre-dealt once and broadcast to workers)",
    )
    bench_parser.add_argument(
        "--rsa-bits", type=int, default=256, metavar="BITS",
        help="modulus size for --backend real (>= 64; small values keep "
        "smoke runs fast)",
    )
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write machine-readable timings/rates (BENCH_engine.json)",
    )
    bench_parser.add_argument(
        "--adaptive", action="store_true",
        help="also run the sweep through AdaptiveRunner (early stopping + "
        "budget reallocation) and check its verdicts against the fixed run",
    )
    bench_parser.add_argument(
        "--bound", default="2**-k", metavar="EXPR",
        help="per-config target bound: '2**-k' (Corollary 2, default) "
        "or a literal float",
    )
    bench_parser.add_argument(
        "--max-trials", type=_positive_int, default=None, metavar="N",
        help="adaptive per-config trial cap (default: --trials); raise it "
        "to let freed budget deepen the noisiest configs",
    )
    bench_parser.add_argument(
        "--batch", type=_positive_int, default=25,
        help="adaptive allocation batch size per config per round",
    )
    bench_parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write engine telemetry (chunk/worker/setup spans, adaptive "
        "decisions) to DIR/telemetry.jsonl and check span consistency",
    )
    bench_parser.add_argument(
        "--vector", action="store_true",
        help="also time the batch-vectorized backend (serial, numpy "
        "lockstep) and check it is bit-identical to the object path",
    )
    bench_parser.add_argument(
        "--figures", action="store_true",
        help="also time a representative vector-modeled plan per migrated "
        "benchmark (object vs vector, bit-identity checked); exit 2 if a "
        "vector-supported figure plan falls back to the object simulator",
    )
    bench_parser.add_argument(
        "--compare", default=None, metavar="PATH",
        help="diff this run's per-core rates against a committed "
        "BENCH_engine.json; exit 3 on a regression past --threshold",
    )
    bench_parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="--compare regression tolerance as a rate-loss fraction "
        "(default 0.25 = fail when >25%% slower per core)",
    )
    bench_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="run a metrics-collection leg (on the vector backend with "
        "--vector; never timed into the rates) and write the "
        "repro-metrics/1 artifact to PATH; digest with `repro report "
        "--metrics PATH`",
    )
    bench_parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="run one extra cProfile-wrapped leg (pooled when --workers "
        "allows) writing per-chunk .pstats dumps to DIR, outside the "
        "timed legs; digest with `repro report --profile DIR`",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    report_parser = subparsers.add_parser(
        "report",
        help="fuse metrics/telemetry/bench/profile artifacts into one "
        "deterministic markdown report",
    )
    report_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="repro-metrics/1 JSON artifact (from `repro bench --metrics`)",
    )
    report_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="telemetry JSONL file, or the directory holding telemetry.jsonl",
    )
    report_parser.add_argument(
        "--bench", action="append", default=None, metavar="PATH",
        help="BENCH_*.json timing payload (repeatable)",
    )
    report_parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="directory of cProfile .pstats dumps (from `repro bench "
        "--profile`)",
    )
    report_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the markdown report to PATH instead of stdout",
    )
    report_parser.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write a minimal self-contained HTML rendering",
    )
    report_parser.add_argument(
        "--top", type=_positive_int, default=10, metavar="N",
        help="hot functions listed from the profile (default 10)",
    )
    report_parser.add_argument(
        "--check", action="store_true",
        help="validate every input against its declared schema and the "
        "telemetry consistency verdict; exit 2 on violation",
    )
    report_parser.set_defaults(handler=_cmd_report)

    check_parser = subparsers.add_parser(
        "check",
        help="static analysis: determinism/layering/serialization invariants",
    )
    check_parser.add_argument(
        "path", nargs="?", default=None,
        help="package root to scan (default: the installed repro package)",
    )
    check_parser.add_argument(
        "--select", type=_parse_rule_list, default=None, metavar="RULES",
        help="run only these rule ids or families (e.g. DET,LAY201)",
    )
    check_parser.add_argument(
        "--ignore", type=_parse_rule_list, default=None, metavar="RULES",
        help="skip these rule ids or families",
    )
    check_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable report (CI artifact)",
    )
    check_parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 report (CI PR annotations)",
    )
    check_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="demote findings listed in this baseline file to "
        "non-failing (incremental adoption)",
    )
    check_parser.add_argument(
        "--fix", action="store_true",
        help="apply the whitelisted mechanical fixes (DET104/DET106/"
        "SUP901) in place, then re-check",
    )
    check_parser.add_argument(
        "--diff", action="store_true",
        help="print the unified diff --fix would apply, without "
        "writing anything",
    )
    check_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    check_parser.set_defaults(handler=_cmd_check)

    ledger_parser = subparsers.add_parser(
        "ledger", help="replicated log over sequential multivalued BA"
    )
    ledger_parser.add_argument(
        "--queues", default="a+b;a+c;a+b;a+c",
        help="per-replica command queues: ';' separates replicas, "
        "'+' separates commands",
    )
    ledger_parser.add_argument("--slots", type=int, default=2)
    ledger_parser.add_argument("--kappa", type=int, default=8)
    ledger_parser.add_argument(
        "--regime", choices=["one_third", "one_half"], default="one_third"
    )
    ledger_parser.add_argument(
        "--proposer", choices=["local", "rotating"], default="rotating"
    )
    ledger_parser.add_argument("--t", type=int, default=1)
    ledger_parser.add_argument("--seed", type=int, default=0)
    ledger_parser.set_defaults(handler=_cmd_ledger)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Ergonomics contract (pinned by ``tests/test_cli.py``): a bare
    ``repro`` prints the subcommand overview and exits 2; an unknown
    subcommand exits 2 with the available set in the error message
    (argparse's invalid-choice behavior, relied upon deliberately).
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_help(sys.stderr)
        return 2
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
