"""Module boundaries inside the package, checked by scanning its source.

A private name (leading underscore) belongs to the module that defines
it: another module that needs it gets a public function instead.  No
module reaches into an object's ``__dict__``; derived data lives in
declared attributes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mixedreg"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def violations(source):
    """Layering breaches in one module's source, one line of text each."""
    tree = ast.parse(source)
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module == "mixedreg"
                                                 or (node.module or "").startswith("mixedreg.")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports private {alias.name}")
                if node.module in (None, "mixedreg"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mixedreg.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules and _private(node.attr):
                found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
            if node.attr == "__dict__":
                found.append(f"line {node.lineno}: uses __dict__")
        elif isinstance(node, ast.Name) and node.id == "__dict__":
            found.append(f"line {node.lineno}: uses __dict__")
    return found


def test_scanner_flags_each_rule():
    sample = (
        "from . import fem\n"
        "from .solvers import _operator, solve_state\n"
        "import mixedreg.geometry as geo\n"
        "basis = fem._TRI_BASIS\n"
        "geo._edge_table(t, n)\n"
        "mesh.__dict__.setdefault('k', {})\n"
        "fem.p1(mesh).interior\n"
    )
    assert sorted(v.split(":")[0] for v in violations(sample)) == [
        "line 2", "line 4", "line 5", "line 6"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_respects_layering(path):
    assert violations(path.read_text()) == []
