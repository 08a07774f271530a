"""Every defaulted parameter has a caller outside the tests.

A sibling of ``tests/test_public_surface.py``, one level down: that guard
asks whether a name is used, this one whether each *option* of a public
function is.  It walks every module of the library's packages
(``repro.adversary`` … ``repro.proxcensus``) and collects the public
functions, the public methods of public classes and their ``__init__``
(a dataclass's defaulted ``init`` fields are its ``__init__``'s
parameters).  Each parameter
that has a default must be passed — by keyword, or at its position —
by some call in ``src/``, ``examples/``, ``benchmarks/``, ``perfbench/``
or ``scripts/`` whose callee name matches: the function's name, or for
``__init__`` the class name.  A call that unpacks ``*args`` or
``**kwargs`` passes every parameter it could reach.  An option no such
call sets has one value in practice; it becomes a constant, or goes on
``ALLOWED`` below with the reason it stays.

The scan is by name, so it over-counts uses, in the same spirit as the
public-surface guard: a call to an unrelated function of the same name
that passes the same keyword counts.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = (
    "adversary", "analysis", "checks", "core", "crypto", "engine", "network",
    "obs", "proxcensus",
)
CALLERS = ("src", "examples", "benchmarks", "perfbench", "scripts")

# (callee, parameter) -> why it stays without a non-test caller
ALLOWED = {
    ("ParallelRunner", "trace_dir"): (
        "the per-trial plan trace path, to be extended to the vector backend"
    ),
    ("TrialPlan.monte_carlo", "setup_seed"): (
        "production deals keys with legacy_setup_seed; tests vary the key "
        "material through the TrialSpec field"
    ),
    ("TrialPlan.monte_carlo", "max_rounds"): (
        "tests reach the max_rounds fallback reasons through the TrialSpec field"
    ),
    ("measure_payload_bytes", "chunk_size"): (
        "test hook behind the >=5x payload pin (see test_public_surface.ALLOWED)"
    ),
    ("TwoFaceAdversary", "low_group"): (
        "which recipients see the low face; tests aim an equivocation at one "
        "quorum, the stock attacks split the parties in half"
    ),
    ("LastRoundCorruptionAdversary", "replacement"): (
        "§2.1's seized messages may be replaced, not only dropped; tests "
        "exercise the replacing half of that capability"
    ),
}
# The coin is the model's oracle: every BA entry point takes its factory
# (threshold coin by default), and tests substitute the ideal or VRF coin.
ALLOWED.update(
    {
        (program, "coin_factory"): "the coin oracle, a model seam tests substitute"
        for program in (
            "ba_one_half_generalized", "ba_one_half_program",
            "ba_one_third_chunked", "ba_one_third_program",
            "feldman_micali_program", "fm_probabilistic_program",
            "micali_vaikuntanathan_program", "mv_pki_program",
        )
    }
)


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _decorators(node):
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def _defaulted(function, bound):
    """``(name, position)`` of each defaulted parameter; the position
    counts positional arguments at the call site, ``None`` if keyword-only."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    skip = 1 if bound and positional else 0
    found = [
        (arg.arg, index - skip)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _dataclass_fields(cls):
    """The defaulted ``__init__`` parameters a ``@dataclass`` generates."""
    fields, position = [], 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and ast.unparse(value.func).split(".")[-1] == "field"
            and any(
                k.arg == "init" and isinstance(k.value, ast.Constant)
                and k.value.value is False
                for k in value.keywords
            )
        ):
            continue
        if value is not None:
            fields.append((node.target.id, position))
        position += 1
    return fields


def _options(tree):
    """``(callee, qualified, parameter, position)`` for one module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, position in _defaulted(node, bound=False):
                yield node.name, node.name, name, position
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if "dataclass" in _decorators(node):
                for name, position in _dataclass_fields(node):
                    yield node.name, node.name, name, position
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if "property" in _decorators(item):
                    continue
                if item.name == "__init__":
                    callee, qualified = node.name, node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    callee, qualified = item.name, f"{node.name}.{item.name}"
                for name, position in _defaulted(item, bound=True):
                    yield callee, qualified, name, position


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _scan():
    options = []
    for package in PACKAGES:
        for path in _python_files(os.path.join(ROOT, "src", "repro", package)):
            rel = os.path.relpath(path, ROOT)
            for option in _options(_parse(path)):
                options.append((rel,) + option)
    # callee -> (keywords passed, most positional arguments, unpacks)
    calls = {}
    for top in CALLERS:
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                name = _callee(node)
                if name is None:
                    continue
                keywords, most, unpacks = calls.get(name, (set(), 0, False))
                for keyword in node.keywords:
                    if keyword.arg is None:
                        unpacks = True
                    else:
                        keywords.add(keyword.arg)
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    unpacks = True
                calls[name] = (keywords, max(most, len(node.args)), unpacks)
    return options, calls


OPTIONS, CALLS = _scan()


def _passed(callee, parameter, position):
    keywords, most, unpacks = CALLS.get(callee, (set(), 0, False))
    if unpacks or parameter in keywords:
        return True
    return position is not None and most > position


def _unset():
    return sorted(
        {
            (qualified, parameter): module
            for module, callee, qualified, parameter, position in OPTIONS
            if not _passed(callee, parameter, position)
        }.items()
    )


def test_every_option_has_a_caller_or_a_reason():
    flagged = [
        f"{module}: {qualified}({parameter}=)"
        for (qualified, parameter), module in _unset()
        if (qualified, parameter) not in ALLOWED
    ]
    assert not flagged, (
        "a defaulted parameter that no call under " + ", ".join(CALLERS)
        + " passes has one value; make it a constant, or add it to "
        "ALLOWED with a reason:\n  " + "\n  ".join(flagged)
    )


def test_allowlist_names_only_unset_options():
    unset = {key for key, _module in _unset()}
    stale = sorted(key for key in ALLOWED if key not in unset)
    assert not stale, f"ALLOWED entries that no longer need a reason: {stale}"


def test_the_scan_sees_the_packages():
    qualified = {(option[2], option[3]) for option in OPTIONS}
    assert ("ParallelRunner", "workers") in qualified
    assert ("TrialPlan.monte_carlo", "seed") in qualified
    assert len(OPTIONS) > 50
