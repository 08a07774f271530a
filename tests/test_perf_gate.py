"""`scripts/perf_gate.sh` confirms a flagged slowdown before it fails.

The gate runs `perf_pair.sh REF WORKLOADS 3` and reruns each workload a
`REGRESSION <workload> <metric>` line names, alone, for ten pairs.  These
tests copy the gate into a temporary `scripts/` beside a scripted
`perf_pair.sh`, so nothing is measured: each call prints the lines and
exits with the status scripted for its workload argument.  The last test
runs `perf_pair.sh` itself, on two checkouts whose `perfbench/run.py` is
a stub.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
GATE = os.path.join(SCRIPTS, "perf_gate.sh")

STUB = textwrap.dedent(
    """\
    import json, os, sys
    ref, workloads, pairs = sys.argv[1:]
    with open(os.environ["STUB_CALLS"], "a") as calls:
        calls.write(f"{workloads} {pairs}\\n")
    status, lines = json.loads(os.environ["STUB_SCRIPT"])[workloads]
    print("".join(line + "\\n" for line in lines), end="")
    sys.exit(status)
    """
)

SLOW = "REGRESSION observed-sweep trials_per_s x0.728"

#: The workloads the gate is asked for; the scripts below key on them.
ALL = "object-sweep,observed-sweep"


def gate(tmp_path, script):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    shutil.copy(GATE, scripts / "perf_gate.sh")
    stub = scripts / "perf_pair.sh"
    stub.write_text(f"#!{sys.executable}\n{STUB}")
    stub.chmod(0o755)
    calls = tmp_path / "calls"
    calls.write_text("")
    env = dict(os.environ, STUB_CALLS=str(calls), STUB_SCRIPT=json.dumps(script))
    done = subprocess.run(
        ["bash", str(scripts / "perf_gate.sh"), "REF", ALL],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, calls.read_text().splitlines()


def test_a_clean_run_passes_without_a_rerun(tmp_path):
    status, _out, calls = gate(tmp_path, {ALL: [0, ["summary"]]})
    assert (status, calls) == (0, [f"{ALL} 3"])


def test_a_slowdown_the_rerun_does_not_repeat_passes(tmp_path):
    script = {ALL: [1, [SLOW]], "observed-sweep": [0, ["summary"]]}
    status, out, calls = gate(tmp_path, script)
    assert (status, calls) == (0, [f"{ALL} 3", "observed-sweep 10"])
    assert "no REGRESSION confirmed" in out


def test_a_slowdown_the_rerun_repeats_fails(tmp_path):
    script = {ALL: [1, [SLOW]], "observed-sweep": [1, [SLOW]]}
    status, out, calls = gate(tmp_path, script)
    assert (status, calls) == (1, [f"{ALL} 3", "observed-sweep 10"])
    assert "perf-gate: observed-sweep failed again on 10 pairs" in out


def test_a_rerun_regression_on_another_metric_fails(tmp_path):
    other = "REGRESSION observed-sweep cpu_ms_per_trial x1.300"
    script = {ALL: [1, [SLOW]], "observed-sweep": [1, [other]]}
    assert gate(tmp_path, script)[0] == 1


def test_each_flagged_workload_reruns_alone(tmp_path):
    script = {
        ALL: [1, [SLOW, "REGRESSION object-sweep setup_s x1.400"]],
        "object-sweep": [0, []],
        "observed-sweep": [1, [SLOW]],
    }
    status, out, calls = gate(tmp_path, script)
    assert (status, calls) == (
        1, [f"{ALL} 3", "object-sweep 10", "observed-sweep 10"]
    )
    assert "observed-sweep failed again" in out
    assert "object-sweep failed again" not in out


@pytest.mark.parametrize(
    "line",
    [
        "DIGEST pooled-campaign pair 2 abc != abd",
        "REGRESSION pooled-campaign failed 0 -> 3",
    ],
)
def test_a_digest_or_failed_operations_fail_at_once(tmp_path, line):
    status, _out, calls = gate(tmp_path, {ALL: [1, [SLOW, line]]})
    assert (status, calls) == (1, [f"{ALL} 3"])


def test_a_run_that_breaks_fails_with_its_status(tmp_path):
    status, _out, calls = gate(tmp_path, {ALL: [2, ["Traceback ..."]]})
    assert (status, calls) == (2, [f"{ALL} 3"])


def test_a_rerun_that_breaks_fails_with_its_status(tmp_path):
    script = {ALL: [1, [SLOW]], "observed-sweep": [2, []]}
    assert gate(tmp_path, script)[0] == 2


#: A `perfbench/run.py` that records whether it may write bytecode and
#: reports one equal result.
RUN_STUB = textwrap.dedent(
    """\
    import json, os, sys
    with open(os.environ["STUB_CALLS"], "a") as calls:
        calls.write(f"{sys.flags.dont_write_bytecode}\\n")
    with open(sys.argv[sys.argv.index("--detail") + 1], "w") as detail:
        json.dump({"result_digest": "equal"}, detail)
    rate = {"value": 1.0, "unit": "trials/s"}
    print(json.dumps({"failed": 0, "attempted": 1, "metrics": {"rate": rate}}))
    """
)


def test_no_pair_run_starts_where_it_could_write_bytecode(tmp_path):
    """Each `run.py` starts with `PYTHONDONTWRITEBYTECODE` set, as in the
    benchmark's environment, even when the caller's environment lacks it."""
    tree, ref = tmp_path / "tree", tmp_path / "ref"
    for checkout in (tree, ref):
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(RUN_STUB)
    (tree / "scripts").mkdir()
    shutil.copy(os.path.join(SCRIPTS, "perf_pair.sh"), tree / "scripts")
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.1}],
    }))
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    calls = tmp_path / "calls"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["STUB_CALLS"] = str(calls)
    done = subprocess.run(
        ["bash", str(tree / "scripts" / "perf_pair.sh"), str(ref), "w", "2"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert calls.read_text().splitlines() == ["1"] * 4  # 2 pairs x 2 sides
