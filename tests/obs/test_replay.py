"""Replay fidelity: streamed traces are the in-memory transcript, exactly.

The tentpole property: for **every** registered protocol × adversary
pair (the same sweep matrix as the transport losslessness tests), one
execution observed by two tracers, one over a memory sink and one over a
JSONL sink, renders byte-identically through both paths — stream →
:func:`load_trace` → ``render()`` equals ``MemoryTraceSink.render()``
with no exceptions.

Plus the strictness contract: malformed JSON, missing/wrong headers,
wrong schema versions, truncated files, lying footers and unknown record
types are all rejected with :class:`ObsFormatError`, never misparsed.
"""

import io
import json
import os
import sys

import pytest

from repro.engine import adversary_names, protocol_names, run_trial
from repro.engine.plan import TrialSpec
from repro.network.trace import MemoryTraceSink, Tracer
from repro.obs import (
    TRACE_SCHEMA,
    JsonlTraceSink,
    ObsFormatError,
    filter_trace,
    load_trace,
    trace_metrics,
)

from ..conftest import PROTOCOL_SHAPES
from .test_report import FIXTURES, _variants


def _adversary_params(adversary, max_faulty, num_parties):
    victims = tuple(range(num_parties - max_faulty, num_parties))
    if adversary == "grade_split":
        return {"victims": victims, "target": 0, "boost_value": 0}
    return {"victims": victims}


def _spec(protocol, adversary, seed=3):
    inputs, max_faulty, params = PROTOCOL_SHAPES[protocol]
    return TrialSpec(
        protocol=protocol,
        inputs=inputs,
        max_faulty=max_faulty,
        params=params,
        adversary=adversary,
        adversary_params=(
            _adversary_params(adversary, max_faulty, len(inputs))
            if adversary
            else ()
        ),
        seed=seed,
        session=f"replay-{protocol}-{adversary}",
        max_rounds=64,
    )


class TestRoundTripProperty:
    def test_every_pair_replays_byte_identically(self, tmp_path):
        """One traced execution per compatible protocol × adversary pair;
        the streamed file must replay to the exact in-memory timeline."""
        survived = set()
        adversaries = adversary_names()
        for protocol in PROTOCOL_SHAPES:
            for adversary in [None] + adversaries:
                spec = _spec(protocol, adversary)
                path = str(tmp_path / f"{protocol}-{adversary}.jsonl")
                memory = MemoryTraceSink()
                jsonl = JsonlTraceSink(path)
                tracers = (Tracer(memory), Tracer(jsonl))
                try:
                    run_trial(spec, observers=tracers)
                except Exception:
                    jsonl.close()
                    continue  # incompatible combo — nothing to compare
                jsonl.close()
                loaded = load_trace(path)
                assert loaded.tracer.render() == memory.render(), (
                    protocol, adversary,
                )
                assert loaded.events == len(memory.events)
                assert loaded.corruptions == len(memory.corruptions)
                assert loaded.tracer.rounds == memory.rounds
                survived.add((protocol, adversary))
        # Every shaped protocol runs adversary-free, and every registered
        # adversary against at least one protocol: a builder or hook that
        # always raises is a finding, not an incompatible combo.
        assert {(p, None) for p in PROTOCOL_SHAPES} <= survived
        idle = set(adversaries) - {a for _, a in survived}
        assert not idle, f"ran against no protocol: {sorted(idle)}"

    def test_stats_cross_check_against_run_metrics(self, tmp_path):
        """Replayed per-round tallies equal the simulator's RunMetrics."""
        spec = _spec("ba_one_third", "straddle13")
        path = str(tmp_path / "stats.jsonl")
        tracer = Tracer(JsonlTraceSink(path))
        result = run_trial(spec, observers=(tracer,))
        tracer.close()
        replayed = trace_metrics(load_trace(path).tracer)
        live = result.metrics
        assert replayed.total_messages == live.total_messages
        assert replayed.total_signatures == live.total_signatures
        assert replayed.rows == live.rows


def _write_lines(tmp_path, name, lines):
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def _header(schema=TRACE_SCHEMA):
    return json.dumps({"t": "trace", "schema": schema})


_MSG = json.dumps(
    {"t": "msg", "r": 1, "s": 0, "d": 1, "h": 1, "g": 0, "p": "{v=1}"}
)


class TestTraceFuzz:
    """``repro trace`` over every prefix and every single-byte corruption
    of a committed trace exits 0, 1 or 2, and never raises.

    Each byte is replaced by 0xFF (never UTF-8) and by a digit (a number
    stays one, a payload string stays a string).  A variant ``load_trace`` rejects with
    ``ObsFormatError`` exits 2 — that is the CLI's one reader — so only
    the variants that load run the command itself, ``--stats`` and a
    ``--diff`` against the intact trace.
    """

    FIXTURE = os.path.join(FIXTURES, "crash-k2.trace.jsonl")

    def test_every_prefix_and_corruption_exits_0_1_or_2(
        self, tmp_path, monkeypatch
    ):
        from repro import cli

        with open(self.FIXTURE, "rb") as handle:
            data = handle.read()
        path = str(tmp_path / "variant.trace.jsonl")
        parser = cli.build_parser()
        commands = [
            parser.parse_args(["trace", path, "--stats"]),
            parser.parse_args(["trace", self.FIXTURE, "--diff", path]),
        ]
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", sink)
        exits = {0: 0, 1: 0, 2: 0}
        with open(path, "wb") as handle:
            for what, blob in _variants(data, b"\xff\x39"):
                handle.seek(0)
                handle.write(blob)
                handle.truncate()
                handle.flush()
                try:
                    load_trace(path)
                except ObsFormatError:
                    exits[2] += 1
                    continue
                for args in commands:
                    try:
                        code = args.handler(args)
                    except Exception as error:  # pragma: no cover - the failure
                        pytest.fail(f"{type(error).__name__}: {error} on {what}")
                    assert code in exits, f"exit {code} on {what}"
                    exits[code] += 1
                sink.seek(0)
                sink.truncate()
        # Every outcome happens: the loop reached the renderer and the
        # differ, not only the parser.
        assert all(exits.values()), exits

    @pytest.mark.parametrize("flag", ["--stats", "--diff"])
    def test_a_byte_that_is_not_utf8_exits_2_naming_the_line(
        self, flag, tmp_path, capsys
    ):
        from repro.cli import main

        with open(self.FIXTURE, "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[4] = b"\xff" + lines[4][1:]
        path = str(tmp_path / "bad.trace.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        argv = ["trace", path, "--stats"]
        if flag == "--diff":
            argv = ["trace", self.FIXTURE, "--diff", path]
        assert main(argv) == 2
        assert f"{path}:5: not valid UTF-8 (byte 0xff at column 1)" in (
            capsys.readouterr().err
        )


class TestTraceLeafFuzz:
    """Every leaf of the committed trace, the header's ``meta`` included,
    set in turn to each of ``"x", -1, 1.5, null, [], {}, true``:
    :func:`load_trace` raises nothing but :class:`ObsFormatError`, and
    ``repro trace --stats`` / ``--diff`` exit 0, 1 or 2 and never raise.
    """

    SUBSTITUTES = ("x", -1, 1.5, None, [], {}, True)

    def _variants(self, lines):
        """``(what, lines)`` for every substitution of every leaf."""
        for number, line in enumerate(lines):
            for path in _leaf_paths(json.loads(line)):
                for substitute in self.SUBSTITUTES:
                    record = json.loads(line)
                    if json.dumps(_get(record, path)) == json.dumps(substitute):
                        continue
                    _set(record, path, substitute)
                    changed = [*lines[:number], json.dumps(record), *lines[number + 1:]]
                    yield f"line {number + 1} {path} = {substitute!r}", changed

    def test_every_leaf_substitution_exits_0_1_or_2(self, tmp_path, monkeypatch):
        from repro import cli

        fixture = TestTraceFuzz.FIXTURE
        with open(fixture, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        path = str(tmp_path / "variant.trace.jsonl")
        parser = cli.build_parser()
        commands = [
            parser.parse_args(["trace", path, "--stats"]),
            parser.parse_args(["trace", fixture, "--diff", path]),
        ]
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", sink)
        exits = {0: 0, 1: 0, 2: 0}
        for what, changed in self._variants(lines):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(changed) + "\n")
            try:
                load_trace(path)
            except ObsFormatError:
                exits[2] += 1
                continue
            except Exception as error:  # pragma: no cover - the failure
                pytest.fail(f"load_trace: {type(error).__name__}: {error} on {what}")
            for args in commands:
                try:
                    code = args.handler(args)
                except Exception as error:  # pragma: no cover - the failure
                    pytest.fail(f"{type(error).__name__}: {error} on {what}")
                assert code in exits, f"exit {code} on {what}"
                exits[code] += 1
            sink.seek(0)
            sink.truncate()
        # A changed meta or payload string still loads, renders and
        # diverges; a mistyped count, flag or footer is exit 2.
        assert all(exits.values()), exits

    def test_a_huge_round_index_renders_and_diffs_promptly(self, tmp_path):
        """A round index is read from the file: rendering and diffing a
        trace walk the rounds that hold records, never every index up to
        the largest one."""
        import subprocess

        fixture = TestTraceFuzz.FIXTURE
        with open(fixture, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        last_msg = max(i for i, r in enumerate(records) if r["t"] == "msg")
        records[last_msg]["r"] = 2 ** 40
        path = str(tmp_path / "far.trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(r) + "\n" for r in records))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

        def repro(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env,
                capture_output=True, text=True, timeout=60,
            )

        rendered = repro("trace", path, "--stats")
        assert rendered.returncode == 0, rendered.stderr
        assert f"── round {2 ** 40} " in rendered.stdout
        diffed = repro("trace", fixture, "--diff", path)
        assert diffed.returncode == 1, diffed.stderr
        assert "traces diverge at round 3 (event)" in diffed.stdout


def _leaf_paths(node, path=()):
    """The key/index path of every scalar inside ``node``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, (*path, key))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaf_paths(child, (*path, index))
    else:
        yield path


def _get(node, path):
    for step in path:
        node = node[step]
    return node


def _set(node, path, value):
    _get(node, path[:-1])[path[-1]] = value


class TestStrictRejection:
    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(ObsFormatError, match="empty"):
            load_trace(path)

    def test_malformed_json(self, tmp_path):
        path = _write_lines(tmp_path, "bad.jsonl", ['{"t": "trace", broken'])
        with pytest.raises(ObsFormatError, match="not valid JSON"):
            load_trace(path)

    def test_non_object_record(self, tmp_path):
        path = _write_lines(tmp_path, "arr.jsonl", ["[1, 2, 3]"])
        with pytest.raises(ObsFormatError, match="'t' field"):
            load_trace(path)

    def test_missing_header(self, tmp_path):
        path = _write_lines(tmp_path, "nohdr.jsonl", [_MSG])
        with pytest.raises(ObsFormatError, match="header"):
            load_trace(path)

    def test_wrong_schema_version(self, tmp_path):
        path = _write_lines(
            tmp_path, "v9.jsonl",
            [_header("repro-trace/9"), json.dumps(
                {"t": "end", "events": 0, "corruptions": 0})],
        )
        with pytest.raises(ObsFormatError, match="schema"):
            load_trace(path)

    def test_truncated_no_footer(self, tmp_path):
        path = _write_lines(tmp_path, "trunc.jsonl", [_header(), _MSG])
        with pytest.raises(ObsFormatError, match="truncated"):
            load_trace(path)

    def test_truncation_of_real_trace_detected(self, tmp_path):
        """Chopping any tail off a valid streamed file must be caught."""
        full = str(tmp_path / "full.jsonl")
        with JsonlTraceSink(full) as sink:
            tracer = Tracer(sink)
            for i in range(5):
                tracer.on_message(1, 0, i, {"v": i}, True)
        lines = open(full, encoding="utf-8").read().splitlines()
        for keep in range(1, len(lines)):
            path = _write_lines(tmp_path, f"cut{keep}.jsonl", lines[:keep])
            with pytest.raises(ObsFormatError):
                load_trace(path)

    def test_footer_count_mismatch(self, tmp_path):
        path = _write_lines(
            tmp_path, "lie.jsonl",
            [_header(), _MSG, json.dumps(
                {"t": "end", "events": 7, "corruptions": 0})],
        )
        with pytest.raises(ObsFormatError, match="disagree"):
            load_trace(path)

    def test_record_after_footer(self, tmp_path):
        path = _write_lines(
            tmp_path, "tail.jsonl",
            [_header(), json.dumps(
                {"t": "end", "events": 0, "corruptions": 0}), _MSG],
        )
        with pytest.raises(ObsFormatError, match="after the end footer"):
            load_trace(path)

    def test_unknown_record_type(self, tmp_path):
        path = _write_lines(
            tmp_path, "unk.jsonl", [_header(), json.dumps({"t": "mystery"})]
        )
        with pytest.raises(ObsFormatError, match="unknown record type"):
            load_trace(path)

    def test_msg_missing_field(self, tmp_path):
        path = _write_lines(
            tmp_path, "short.jsonl",
            [_header(), json.dumps({"t": "msg", "r": 1, "s": 0})],
        )
        with pytest.raises(ObsFormatError, match="'msg' record has no 'd' field"):
            load_trace(path)

    def test_telemetry_file_is_not_a_trace(self, tmp_path):
        """Cross-format confusion: feeding telemetry to the trace reader
        fails on the header type, not deep inside the records."""
        path = _write_lines(
            tmp_path, "tele.jsonl",
            [json.dumps({"t": "telemetry", "schema": "repro-telemetry/1"})],
        )
        with pytest.raises(ObsFormatError, match="header"):
            load_trace(path)


def _toy_tracer():
    tracer = Tracer(MemoryTraceSink())
    tracer.on_message(1, 0, 1, {"v": 1}, True)
    tracer.on_message(1, 3, 0, {"v": 9}, False)
    tracer.on_message(2, 1, 2, {"v": 2}, True)
    tracer.on_message(2, 0, 3, {"v": 2}, True)
    tracer.on_corruptions(1, {3})
    return tracer


class TestFilters:
    def test_round_filter(self):
        kept = filter_trace(_toy_tracer(), rounds=[2])
        assert [e.round_index for e in kept.events] == [2, 2]
        assert kept.corruptions == []  # corruption was in round 1

    def test_party_filter_matches_sender_or_recipient(self):
        kept = filter_trace(_toy_tracer(), party=0)
        assert len(kept.events) == 3  # sent 2, received 1
        assert all(0 in (e.sender, e.recipient) for e in kept.events)
        assert kept.corruptions == []  # party 0 was never corrupted

    def test_corrupt_only(self):
        kept = filter_trace(_toy_tracer(), corrupt_only=True)
        assert [e.sender for e in kept.events] == [3]
        assert kept.corruptions == [(1, 3)]

    def test_filters_compose(self):
        kept = filter_trace(_toy_tracer(), rounds=[1], party=3)
        assert len(kept.events) == 1 and kept.events[0].sender == 3
        assert kept.corruptions == [(1, 3)]


class TestFaultRecords:
    """Fault spans stream, replay, filter, and stay footer-audited."""

    def _faulted_trace(self, tmp_path):
        from repro.core.ba import ba_one_third_program
        from repro.network.faults import FaultPlan
        from repro.network.simulator import SyncSimulator

        from ..conftest import ideal_suite

        path = str(tmp_path / "faulty.jsonl")
        memory = MemoryTraceSink()
        jsonl = JsonlTraceSink(path)
        simulator = SyncSimulator(
            num_parties=5,
            max_faulty=1,
            crypto=ideal_suite(5, 1),
            seed=9,
            session="fault-trace",
            observers=(Tracer(memory), Tracer(jsonl)),
            faults=FaultPlan(loss=0.25, delay=0.25, max_delay=2),
        )
        simulator.run(
            lambda ctx, value: ba_one_third_program(ctx, value, kappa=3),
            (1, 0, 1, 0, 1),
        )
        jsonl.close()
        return path, memory

    def test_fault_records_replay_byte_identically(self, tmp_path):
        path, memory = self._faulted_trace(tmp_path)
        loaded = load_trace(path)
        assert loaded.faults == len(memory.faults) > 0
        assert loaded.tracer.render() == memory.render()

    def test_clean_trace_footer_has_no_faults_key(self, tmp_path):
        # Byte-compat with pre-fault-layer traces: a run without faults
        # writes exactly the old footer shape.
        path = str(tmp_path / "clean.jsonl")
        with JsonlTraceSink(path) as sink:
            Tracer(sink).on_message(1, 0, 1, {"v": 1}, True)
        footer = open(path, encoding="utf-8").read().splitlines()[-1]
        assert "faults" not in json.loads(footer)

    def test_fault_footer_count_is_audited(self, tmp_path):
        path, _ = self._faulted_trace(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        footer = json.loads(lines[-1])
        footer["faults"] += 1
        lied = _write_lines(
            tmp_path, "lied.jsonl", lines[:-1] + [json.dumps(footer)]
        )
        with pytest.raises(ObsFormatError, match="disagree"):
            load_trace(lied)

    def test_fault_record_missing_field_rejected(self, tmp_path):
        path = _write_lines(
            tmp_path, "shortfault.jsonl",
            [_header(), json.dumps({"t": "fault", "r": 1, "s": 0})],
        )
        with pytest.raises(ObsFormatError):
            load_trace(path)

    def test_filters_apply_to_faults(self, tmp_path):
        path, memory = self._faulted_trace(tmp_path)
        loaded = load_trace(path)
        some_round = memory.faults[0].round_index
        kept = filter_trace(loaded.tracer, rounds=[some_round])
        assert kept.faults
        assert all(f.round_index == some_round for f in kept.faults)
        kept = filter_trace(loaded.tracer, party=2)
        assert all(2 in (f.sender, f.recipient) for f in kept.faults)
