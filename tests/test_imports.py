"""No module imports a name it never uses. No linter is a dependency, so
the check walks each file's syntax tree: a name counts as used when it is
read anywhere in the file or listed in the module's ``__all__``. An import
on a line marked ``# noqa: F401`` is kept on purpose. The package's
``__init__.py`` imports only to re-export; ``test_surface`` checks those
names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/embedtrack/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the source never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name, a) for a in node.names if a.name != "*"]
        else:
            continue
        for name, alias in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nnumpy = 1\n", [(1, "np")]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", [(2, "b")]),
    ("from a import b  # noqa: F401\n", []),
    ("from a import b, c\n__all__ = ['b']\nc\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return 1\n", [(2, "b")]),
])
def test_checker_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused
