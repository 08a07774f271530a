"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run``
    Execute one engine trial — the ``TrialSpec`` the flags describe, or
    the one ``--spec`` carries — and print the outcome (optionally with
    a full message trace and an adversary attached; ``--trace-jsonl``
    additionally streams the trace to a schema-versioned JSONL file).
    Protocols, adversaries and fault scenarios are the engine
    registry's; a trial that raises exits 2 with its replay line.
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
    straddle adversaries: one engine plan, run once on the executor the
    flags select (``--workers`` processes, ``--vector`` for the batch
    backend) — every executor prints the same rates.  Beside them each
    configuration's exact rate and its verdict against the bound:
    ``tight`` where the two are equal, ``≤ bound`` below it, and a
    ``BOUND VIOLATED`` exit 2 above it.
    ``--metrics PATH`` / ``--telemetry DIR`` / ``--profile DIR`` collect
    the ``repro-metrics/1`` artifact, engine scheduling spans
    (``DIR/telemetry.jsonl``, checked for consistency) and per-chunk
    ``cProfile`` dumps from that same run; ``repro report`` fuses them.
``check``
    One-pass static analysis enforcing the repo's determinism and
    layering invariants (rule families DET/LAY; see
    ``docs/static-analysis.md``).  Exit 1 on findings, none of which
    can be waived; ``--json`` writes the CI artifact.

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
    python -m repro error-sweep --protocol both --workers 4 --vector \\
        --metrics metrics.json --telemetry tele/
    python -m repro check --json check-report.json
    python -m repro check --select DET,LAY src/repro
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .analysis.report import format_table
from .analysis.stats import disagreement_rate

__all__ = ["main"]

# `repro run --protocol` choice → engine registry name.
_REGISTERED_AS = {
    "one_third": "ba_one_third",
    "one_half": "ba_one_half",
    "feldman_micali": "feldman_micali",
    "micali_vaikuntanathan": "micali_vaikuntanathan",
    "dolev_strong": "dolev_strong",
}


def _parse_int_list(text: str) -> List[int]:
    parts = text.split(",")
    if "" in parts and any(parts):
        # Dropping it would run another trial than the one written:
        # "1,0,,1" is four parties, not three.
        raise argparse.ArgumentTypeError(
            f"empty element in comma-separated int list {text!r}"
        )
    try:
        return [int(part) for part in parts if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _kappa_list(text: str) -> List[int]:
    kappas = _parse_int_list(text)
    if not kappas or min(kappas) < 1:
        raise argparse.ArgumentTypeError(
            f"need at least one kappa, each >= 1, got {text!r}"
        )
    for at, kappa in enumerate(kappas):
        if kappa in kappas[:at]:
            raise argparse.ArgumentTypeError(f"kappa {kappa} is repeated in {text!r}")
    return kappas


def _round_list(text: str) -> List[int]:
    rounds = _parse_int_list(text)
    if not rounds:
        raise argparse.ArgumentTypeError(
            f"need at least one round index, got {text!r}"
        )
    return rounds


def _run_spec(spec, observers=()):
    """One engine trial: ``(result, fault counts)``.

    A raise leaves as the :class:`TrialExecutionError` that :func:`main`
    prints with the spec's replay line.
    """
    from .engine.runner import TrialExecutionError, _run_counted

    try:
        return _run_counted(spec, observers)
    except Exception as error:
        raise TrialExecutionError(
            0, spec, f"{type(error).__name__}: {error}"
        ) from error


def _spec_from_flags(args: argparse.Namespace):
    """The :class:`TrialSpec` ``repro run``'s flags describe.

    ``ValueError`` (its message is the usage error) for flags that
    describe no trial: ``--t`` out of range, ``--victims`` naming a party
    the run lacks or more than ``--t`` parties, a fault scenario or
    params the registry rejects, a fault plan naming a party the run
    lacks, and ``--victims`` / ``--fault-params`` without the flag they
    qualify.
    """
    import json

    from .engine import TrialSpec, build_fault_plan, fault_plan_names

    if args.victims is not None and args.adversary == "none":
        raise ValueError(
            "--victims without an adversary corrupts no one\n"
            "usage: --victims qualifies --adversary (not none)"
        )
    if args.fault_params is not None and not args.faults:
        raise ValueError(
            "--fault-params without --faults injects nothing\n"
            "usage: --fault-params qualifies --faults SCENARIO"
        )
    n, t = len(args.inputs), args.t
    if args.victims is not None:
        victims = set(args.victims)
        outside = sorted(pid for pid in victims if not 0 <= pid < n)
        if outside or len(victims) > t:
            problem = (
                f"names party {outside[0]}, outside 0..{n - 1}" if outside
                else f"names {len(victims)} parties, more than --t {t}"
            )
            raise ValueError(
                f"--victims {problem}\n"
                "usage: --victims takes at most --t distinct parties in 0..n-1"
            )
    fault_params = {}
    if args.faults:
        try:
            fault_params = json.loads(args.fault_params) if args.fault_params else {}
        except ValueError as error:
            raise ValueError(f"--fault-params is not valid JSON: {error}") from None
        try:
            build_fault_plan(args.faults, fault_params).check_parties(n)
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"bad fault scenario: {error}\n"
                f"usage: --faults takes one of {fault_plan_names()}"
            ) from None
    adversary_params = {}
    if args.adversary != "none":
        adversary_params["victims"] = args.victims or list(range(n - t, n))
        if args.adversary == "crash":
            adversary_params["crash_round"] = 2
    return TrialSpec(
        protocol=_REGISTERED_AS[args.protocol],
        inputs=args.inputs,
        max_faulty=t,
        params={} if args.protocol == "dolev_strong" else {"kappa": args.kappa},
        adversary=None if args.adversary == "none" else args.adversary,
        adversary_params=adversary_params,
        seed=args.seed,
        session=f"cli{args.seed}",
        setup_seed=args.seed,
        faults=args.faults,
        fault_params=fault_params,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """One engine trial — the spec ``--spec`` carries, exactly as a sweep
    ran it, or the one the other flags describe."""
    from .engine import TrialSpec
    from .network.trace import MemoryTraceSink, Tracer

    replay = args.spec is not None
    if args.adversary == "straddle":
        args.adversary = "straddle13" if args.protocol == "one_third" else "straddle12"
    try:
        spec = TrialSpec.from_json(args.spec) if replay else _spec_from_flags(args)
    except (TypeError, ValueError) as error:
        reason = f"--spec is not a trial spec: {error}" if replay else error
        print(f"repro run: {reason}", file=sys.stderr)
        return 2
    memory_sink = MemoryTraceSink() if args.trace and not replay else None
    jsonl_sink = None
    if args.trace_jsonl and not replay:
        from .obs import JsonlTraceSink

        jsonl_sink = JsonlTraceSink(
            args.trace_jsonl,
            meta={
                "protocol": args.protocol,
                "kappa": args.kappa,
                "adversary": args.adversary,
                "n": spec.num_parties,
                "t": spec.max_faulty,
                "seed": spec.seed,
                "session": spec.session,
            },
        )
    # One Tracer per sink: the simulator's observers already fan out.
    tracers = [Tracer(sink) for sink in (memory_sink, jsonl_sink) if sink is not None]
    try:
        result, counts = _run_spec(spec, tuple(tracers))
    finally:
        for tracer in tracers:
            tracer.close()
    if replay:
        print(f"protocol   : {spec.protocol} {spec.param_dict or ''}".rstrip())
        print(f"adversary  : {spec.adversary or '-'}")
        print(f"session    : {spec.session} (seed {spec.seed}, {spec.backend})")
    else:
        print(f"protocol   : {args.protocol} (kappa={args.kappa})")
    print(f"inputs     : {list(spec.inputs)}")
    print(f"corrupted  : {sorted(result.corrupted) or '-'}")
    print(f"outputs    : {result.outputs}")
    print(f"agreement  : {result.honest_agree()}")
    print(f"rounds     : {result.metrics.rounds}")
    print(f"messages   : {result.metrics.total_messages}")
    print(f"signatures : {result.metrics.total_signatures}")
    if counts is not None and not replay:
        print(
            f"faults     : {spec.faults} "
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
        other = None if args.diff is None else load_trace(args.diff)
    except (ObsFormatError, OSError) as error:
        print(f"repro trace: {error}", file=sys.stderr)
        return 2
    if other is not None:
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
    print(tracer.render())
    if args.stats:
        from .obs import metrics_from_trace

        rows = trace_metrics(tracer).rows
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
    from .analysis.theory import efficiency_comparison_rows

    columns = ("kappa", "ours_one_third", "feldman_micali", "ours_one_half",
               "micali_vaikuntanathan")
    rows = [
        [row[column] for column in columns]
        for row in efficiency_comparison_rows(args.kappas)
    ]
    print("rounds to reach error 2^-kappa\n")
    print(
        format_table(
            ["kappa", "ours t<n/3", "FM t<n/3", "ours t<n/2", "MV t<n/2"], rows
        )
    )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis.tables import render_fig3, render_table1, render_table2

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


def _build_sweep_plan(args: argparse.Namespace):
    """The error-probability sweep as one engine plan, κ-major per protocol.

    Signature collection stays off: disagreement rates don't need the
    tallies, so the per-payload walk is kept off the hot path.
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
        for kappa in args.kappas:
            plans.append(
                TrialPlan.monte_carlo(
                    name=f"{protocol}-k{kappa}",
                    protocol=protocol,
                    inputs=inputs,
                    max_faulty=max_faulty,
                    trials=args.trials,
                    params={"kappa": kappa},
                    adversary=adversary,
                    adversary_params=adversary_params,
                    seed=args.seed + kappa,
                    backend=args.backend,
                    rsa_bits=args.rsa_bits,
                    collect_signatures=False,
                )
            )
    return TrialPlan.concat(f"error-sweep-{args.protocol}", plans)


def _verdict(law, kappa: int) -> str:
    """An exact disagreement law against its ``2^-κ`` bound, compared as
    ``Fraction``s: ``tight`` at the bound, ``≤ bound`` below it, ``>
    bound`` above it, ``-`` without a law."""
    from fractions import Fraction

    if law is None:
        return "-"
    bound = Fraction(1, 2**kappa)
    if law == bound:
        return "tight"
    return "≤ bound" if law < bound else "> bound"


def _print_telemetry_digest(path: str, summary: dict) -> None:
    print()
    print(
        f"{'telemetry':32s}: {path} ({summary['records']} records, "
        f"{summary['chunks']} chunk spans)"
    )
    for run in summary["runs"]:
        if run.get("utilization") is not None:
            print(
                f"{'  ' + run['label'][:28] + ' util':32s}: "
                f"{run['utilization']:8.0%} ({run['chunks']} chunks, "
                f"busy {run['busy_seconds']:.3f}s / "
                f"wall {run['wall_seconds']:.3f}s x {run['workers']} workers)"
            )
    hits, misses = summary["probe_cache_hits"], summary["probe_cache_misses"]
    if hits or misses:
        print(
            f"{'probe cache':32s}: {hits:8d} hits / {misses} misses "
            "(batches on a warm table / probes run)"
        )
    for reason, count in sorted(summary["fallback_reasons"].items()):
        print(f"{'  vector fallback':32s}: {count:8d} x {reason}")
    print(
        f"{'telemetry spans consistent':32s}: "
        f"{'      OK' if summary['consistent'] else '    MISMATCH'}"
    )


def _discard_if_empty(path: str) -> None:
    import os

    if os.path.getsize(path) == 0:
        os.remove(path)


def _cmd_error_sweep(args: argparse.Namespace) -> int:
    import contextlib
    import dataclasses
    import os
    import tempfile

    from .engine import (
        ParallelRunner,
        clamp_workers,
        exact_law,
        vector_unsupported_reason,
    )
    from .obs import (
        METRICS_SCHEMA,
        TelemetryWriter,
        summarize_telemetry,
        write_metrics_artifact,
    )

    plan = _build_sweep_plan(args)
    per_config = args.trials
    workers = clamp_workers(args.workers)
    if workers != args.workers:
        print(
            f"workers: requested {args.workers}, clamped to {workers} "
            f"(cpu_count={os.cpu_count()})"
        )

    with contextlib.ExitStack() as stack:
        # Every destination is created before the first trial runs: a bad
        # path is a usage error, not a finished sweep with nowhere to go.
        telemetry = telemetry_path = None
        try:
            for directory in (args.telemetry, args.profile):
                if directory:
                    os.makedirs(directory, exist_ok=True)
            if args.metrics:
                open(args.metrics, "w").close()
                # The placeholder never outlives a run that failed.
                stack.callback(_discard_if_empty, args.metrics)
            # A --vector run audits its fallbacks from the batch spans,
            # so it records them even when nobody asked to keep the file.
            telemetry_dir = args.telemetry
            if telemetry_dir is None and args.vector:
                telemetry_dir = stack.enter_context(tempfile.TemporaryDirectory())
            if telemetry_dir is not None:
                telemetry_path = os.path.join(telemetry_dir, "telemetry.jsonl")
                telemetry = stack.enter_context(
                    TelemetryWriter(
                        telemetry_path,
                        meta={
                            "plan": plan.describe(),
                            "trials_per_config": per_config,
                            "workers": workers,
                            "backend": args.backend,
                        },
                    )
                )
        except OSError as error:
            args.usage_error(f"cannot write {error.filename}: {error.strerror}")

        run = ParallelRunner(
            workers=workers,
            backend="vector" if args.vector else "object",
            metrics=bool(args.metrics),
            telemetry=telemetry,
            profile_dir=args.profile,
        ).run(plan)

        rows = []
        problems = []
        for start in range(0, len(plan), per_config):
            spec = plan.trials[start]
            kappa = spec.param_dict["kappa"]
            rate = disagreement_rate(run.results[start : start + per_config])
            # The law counts coin values, whichever backend hashes them.
            laws, _ = exact_law(dataclasses.replace(spec, backend="ideal"))
            law = None if laws is None else laws[0]
            exact = "-" if law is None else f"{float(law):.4f}"
            verdict = _verdict(law, kappa)
            if verdict == "> bound":
                problems.append(
                    f"BOUND VIOLATED: {spec.config_key} exact {law} > 2^-{kappa}"
                )
            rows.append([
                spec.protocol, kappa, f"{2.0 ** -kappa:.4f}", exact,
                f"{rate:.4f}", verdict,
            ])
        print(
            f"disagreement under the worst-case straddle attack "
            f"({len(plan)} trials, {per_config} per config)\n"
        )
        print(format_table(
            ["protocol", "kappa", "bound 2^-k", "exact", "measured", "verdict"],
            rows,
        ))

        if telemetry is not None:
            telemetry.close()
            summary = summarize_telemetry(telemetry_path)
            if args.telemetry:
                _print_telemetry_digest(telemetry_path, summary)
            if not summary["consistent"]:
                problems.append(
                    "TELEMETRY MISMATCH: spans do not sum consistently with "
                    "wall time"
                )
            if args.vector:
                # A fallback is bit-identical, so only its span shows it;
                # one whose reason the engine does not predict for any
                # config means a supported spec left the vector path.
                predicted = {
                    vector_unsupported_reason(plan.trials[indices[0]])
                    for indices in plan.configs().values()
                }
                for reason, count in sorted(summary["fallback_reasons"].items()):
                    if reason not in predicted:
                        problems.append(
                            f"VECTOR REGRESSION: {count} supported trials "
                            f"fell back: {reason}"
                        )
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 2
        if args.metrics:
            write_metrics_artifact(args.metrics, run.metrics_payload())
            print(f"\nwrote {args.metrics} ({METRICS_SCHEMA})")
        if args.profile:
            print(f"wrote {args.profile}/*.pstats")
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

    if not (args.metrics or args.telemetry or args.profile):
        print(
            "repro report: nothing to report\nusage: pass at least one of "
            "--metrics/--telemetry/--profile",
            file=sys.stderr,
        )
        return 2
    try:
        inputs = load_report_inputs(
            metrics_path=args.metrics,
            telemetry_path=args.telemetry,
            profile_dir=args.profile,
        )
    except (ObsFormatError, OSError, ValueError) as error:
        print(f"repro report: {error}", file=sys.stderr)
        return 2
    if args.check:
        # Gate before rendering: a report built from malformed inputs
        # must not be published at all, not published-with-caveats.
        violations = check_report(
            metrics=inputs["metrics"], telemetry=inputs["telemetry"]
        )
        if violations:
            for violation in violations:
                print(f"repro report: {violation}", file=sys.stderr)
            return 2
    markdown = build_report(
        metrics=inputs["metrics"],
        telemetry=inputs["telemetry"],
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


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import CheckError, all_rule_classes, run_check

    if args.list_rules:
        for cls in all_rule_classes():
            print(f"{cls.id}  {cls.title}")
            if cls.hint:
                print(f"        fix: {cls.hint}")
        return 0
    root = args.path or _default_check_root()
    try:
        report = run_check(root, select=args.select)
    except CheckError as error:
        print(f"repro check: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        try:
            with open(args.json, "w") as handle:
                handle.write(report.to_json())
        except OSError as error:
            print(
                f"repro check: cannot write {args.json}: {error.strerror or error}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


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
        choices=list(_REGISTERED_AS),
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
        "--round", type=_round_list, default=None, metavar="R[,R...]",
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
        "--diff", default=None, metavar="OTHER",
        help="compare against a second trace file round by round; "
        "exit 1 at the first divergence",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    compare_parser = subparsers.add_parser(
        "compare", help="the §3.5 efficiency comparison"
    )
    compare_parser.add_argument(
        "--kappas", type=_kappa_list, default=[4, 8, 16, 32]
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
        "--protocol", choices=["one_third", "one_half", "both"],
        default="one_third",
    )
    sweep_parser.add_argument("--kappas", type=_kappa_list, default=[1, 2, 4])
    sweep_parser.add_argument("--trials", type=_positive_int, default=100)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="process count (default 1 = inline; clamped to os.cpu_count())",
    )
    sweep_parser.add_argument(
        "--vector", action="store_true",
        help="run on the batch-vectorized backend (stdlib only, "
        "bit-identical to the object path); exit 2 if a spec the vector "
        "models support falls back to the object simulator",
    )
    sweep_parser.add_argument(
        "--backend", choices=["ideal", "real"], default="ideal",
        help="crypto backend for the sweep: 'real' deals threshold-RSA "
        "keys (pre-dealt once and broadcast to workers)",
    )
    sweep_parser.add_argument(
        "--rsa-bits", type=_int_at_least(64), default=256, metavar="BITS",
        help="modulus size for --backend real (>= 64; small values keep "
        "smoke runs fast)",
    )
    sweep_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="collect per-trial metrics and write the repro-metrics/1 "
        "artifact to PATH (the same bytes on every executor); digest with "
        "`repro report --metrics PATH`",
    )
    sweep_parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write engine telemetry (chunk/worker/setup spans) to "
        "DIR/telemetry.jsonl and check span consistency",
    )
    sweep_parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="wrap the run in cProfile, one .pstats dump per chunk in DIR; "
        "digest with `repro report --profile DIR`",
    )
    sweep_parser.set_defaults(
        handler=_cmd_error_sweep, usage_error=sweep_parser.error
    )

    report_parser = subparsers.add_parser(
        "report",
        help="fuse metrics/telemetry/profile artifacts into one "
        "deterministic markdown report",
    )
    report_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="repro-metrics/1 JSON artifact (from `repro error-sweep "
        "--metrics`)",
    )
    report_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="telemetry JSONL file, or the directory holding telemetry.jsonl",
    )
    report_parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="directory of cProfile .pstats dumps (from `repro error-sweep "
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
        "--check", action="store_true",
        help="validate every input against its declared schema and the "
        "telemetry consistency verdict; exit 2 on violation",
    )
    report_parser.set_defaults(handler=_cmd_report)

    check_parser = subparsers.add_parser(
        "check",
        help="static analysis: determinism and layering invariants",
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
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable report (CI artifact)",
    )
    check_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    check_parser.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Ergonomics contract (pinned by ``tests/test_cli.py``): a bare
    ``repro`` prints the subcommand overview and exits 2; an unknown
    subcommand exits 2 with the available set in the error message
    (argparse's invalid-choice behavior, relied upon deliberately); a
    trial that raises inside any subcommand, or a pool worker that dies,
    exits 2 with a ``repro run --spec`` replay line, not a traceback.
    """
    from .engine import TrialExecutionError, WorkerLostError

    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_help(sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TrialExecutionError, WorkerLostError) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
