"""Package-wide contracts: interpreter flags change nothing, and the README runs."""

import ast
import doctest
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "springer_rca")


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
