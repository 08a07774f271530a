"""Every example script must keep running green (executed in-process)."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST = [
    "quickstart.py",
    "blockchain_committee.py",
    "proxcast_demo.py",
    "traced_iteration.py",
]
SLOW = [
    "adversary_lab.py",
    "coin_flavors.py",
    "real_crypto_backend.py",
    "round_complexity_comparison.py",
]


def run_example(name):
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("name", FAST)
def test_fast_examples(name, capsys):
    run_example(name)
    assert capsys.readouterr().out  # produced output, raised nothing


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW)
def test_slow_examples(name, capsys):
    run_example(name)
    assert capsys.readouterr().out


def test_every_example_is_listed():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST) | set(SLOW)
