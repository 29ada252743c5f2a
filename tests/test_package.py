"""Package-wide contracts: interpreter flags change nothing, the README runs,
and the traced benchmark sees every layer it needs."""

import ast
import doctest
import importlib.util
import json
import os
import subprocess
import sys

import pytest

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


def test_readme_examples_hold():
    result = doctest.testfile(
        os.path.join(ROOT, "README.md"), module_relative=False, verbose=False
    )
    assert result.attempted > 0
    assert result.failed == 0


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
