"""The package itself: its lazy export table, and the imports of its modules and tests."""

import ast
from pathlib import Path

import pytest

import braidlift

PACKAGE = Path(braidlift.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_every_exported_name_resolves_once():
    assert len(braidlift.__all__) == len(set(braidlift.__all__))
    for name in braidlift.__all__:
        assert getattr(braidlift, name) is not None, name


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in order of import.

    A name counts as read when it appears as a bare name anywhere in the
    module; ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []
