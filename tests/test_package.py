"""Package-wide contracts: interpreter flags change nothing, a refused
argument raises InputError, no search recurses per step, the README's quick
tour and shell commands run, and the traced benchmark sees every layer it
needs."""

import ast
import doctest
import importlib.util
import json
import os
import shlex
import subprocess
import sys

import pytest

from springer_rca import (
    InputError,
    Params,
    build_graded_basis,
    enumerate_fixed_points,
    euler_series,
    rank_two,
)
from springer_rca.cli import main
from springer_rca.linalg import RatMat
from springer_rca.semigroup import enumerate_gap_sets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "springer_rca")
PERFBENCH = os.path.join(ROOT, "perfbench")


def optimize_sensitive(source):
    """(line, construct) for each construct that ``python -O`` or ``-OO`` alters.

    ``-O`` strips ``assert`` statements and sets ``__debug__`` and
    ``sys.flags.optimize``; ``-OO`` also drops docstrings, so ``__doc__``
    reads None.  Code free of all of these runs the same under every flag.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in ("__debug__", "__doc__"):
                found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in ("__doc__", "flags"):
                found.append((node.lineno, node.attr))
    return found


@pytest.mark.parametrize(
    "source,lines",
    [
        ("assert x\n", [1]),
        ("if c:\n    pass\nelif d: assert x\n", [3]),
        ("y = __debug__\n", [1]),
        ("print(__doc__)\n", [1]),
        ("f = g.__doc__\n", [1]),
        ("import sys\nlevel = sys.flags.optimize\n", [2]),
        ("f.__doc__ = 'text'\n", []),
    ],
)
def test_optimize_sensitive_constructs_are_found(source, lines):
    assert [line for line, _ in optimize_sensitive(source)] == lines


def test_package_runs_the_same_under_python_O():
    # so every test of the package also holds under -O and -OO
    names = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert "verify.py" in names
    found = []
    for name in names:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            found += [
                f"{name}:{line}: {what}" for line, what in optimize_sensitive(handle.read())
            ]
    assert found == []


def plain_value_errors(source):
    """The lines that raise a plain ``ValueError``, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "source,lines",
    [
        ("raise ValueError('x')\n", [1]),
        ("if c:\n    raise ValueError\n", [2]),
        ("raise InputError('x')\n", []),
        ("try:\n    f()\nexcept ValueError:\n    raise\n", []),
        ("raise TypeError('x') from ValueError\n", []),
    ],
)
def test_plain_value_errors_are_found(source, lines):
    assert plain_value_errors(source) == lines


def test_package_raises_no_plain_value_error():
    # a refused argument is an InputError, which the CLI reports as exit 2
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                found += [f"{name}:{line}" for line in plain_value_errors(handle.read())]
    assert found == []


# name -> (call, message) for each refusal no other test reaches
REFUSALS = {
    "negative degree": (
        lambda: enumerate_fixed_points(Params(2, 3), -1), "degree must be nonnegative"
    ),
    "negative basis truncation": (
        lambda: build_graded_basis(Params(2, 3), -1), "max_degree must be nonnegative"
    ),
    "negative matrix shape": (lambda: RatMat(-1, 2), "matrix shape must be nonnegative"),
    "empty vstack": (lambda: RatMat.vstack([]), "vstack of no matrices"),
    "negative series truncation": (
        lambda: euler_series(Params(2, 3), -1), "max_degree must be nonnegative"
    ),
    "negative ell": (lambda: rank_two.y_kernel_vectors(-1), "ell must be nonnegative"),
    "negative colength": (
        lambda: enumerate_gap_sets(2, 3, -1), "colength must be nonnegative"
    ),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_argument_raises_input_error(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)


def test_searches_do_not_recurse_per_slot_or_gap():
    # with recursion per slot or per chosen gap, each call here needs
    # hundreds of frames; run them below a limit of 200
    code = (
        "import sys\n"
        "from springer_rca import Params, count_ideals, enumerate_fixed_points\n"
        "sys.setrecursionlimit(200)\n"
        "assert enumerate_fixed_points(Params(300, 301), 0) == [(0,) * 300]\n"
        "counts = count_ideals(2, 3, 300)\n"
        "assert len(counts) == 301 and counts[0] == 1\n"
    )
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_examples_hold():
    result = doctest.testfile(
        os.path.join(ROOT, "README.md"), module_relative=False, verbose=False
    )
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_commands_exit_0(capsys):
    # every springer-rca line of README's shell blocks, run in process
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = handle.read().split("```")[1::2]
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        if block.startswith("sh\n")
        for line in block.splitlines()
        if line.startswith("springer-rca ")
    ]
    assert len(commands) == 6
    for argv in commands:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)


# two runs that between them reach every span any benchmark workload requires
TRACED_RUNS = [
    "verify --suite all --n 2 --k 5 --max-degree 8",
    "operator --op monopole --coweight 1,1,0 --dress e2 --n 3 --k 4 --max-degree 6",
]


def test_traced_runs_record_every_required_span(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    recorded = set()
    for index, line in enumerate(TRACED_RUNS):
        trace = tmp_path / f"trace{index}.json"
        result = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "trace_cli.py"), str(trace), *line.split()],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        data = json.loads(trace.read_text())
        recorded |= {data["names"][span[0]] for span in data["spans"]}
    required = {
        name for workload in workloads.WORKLOADS.values() for name in workload.required_spans
    }
    assert sorted(required - recorded) == []
