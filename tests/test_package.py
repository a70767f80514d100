"""The package itself: its lazy export table, the imports of its modules and
tests, and the names and methods its modules define."""

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


def names_read(node: ast.AST) -> set[str]:
    """The names read under node: bare names not assigned to, attributes and
    the names a ``from`` import takes."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def top_level_names(node: ast.stmt) -> set[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def unread_names(sources: dict[str, str], kept, readers: tuple[str, ...] = ()) -> list[str]:
    """The top-level names, and the methods and properties of top-level
    classes, that ``kept`` selects and no module reads, as ``module.name``
    and ``module.Class.name``.

    A name counts as read when some module reads it (``names_read``) outside
    its own definition, or when one of the ``readers`` sources reads it.  A
    method is read wherever its name is read, on any object.  Operator
    dunders such as ``__pow__`` are called by syntax, not by name, so this
    check cannot see whether anything uses them.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = top_level_names(node)
            defined += [(module, n) for n in sorted(names) if kept(n)]
            if not isinstance(node, ast.ClassDef):
                read |= names_read(node) - names
                continue
            # A class is read in pieces, so that a method read only inside
            # its own body stays unread; the class's own name stays unread
            # inside all of them.
            for part in (*node.bases, *node.keywords, *node.decorator_list, *node.body):
                if isinstance(part, ast.FunctionDef) and kept(part.name):
                    defined.append((module, f"{node.name}.{part.name}"))
                read |= names_read(part) - names - top_level_names(part)
    for source in readers:
        read |= names_read(ast.parse(source))
    return [f"{module}.{name}" for module, name in defined
            if name.rpartition(".")[2] not in read]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names and methods, starting with exactly one
    underscore, that no module reads (``unread_names``)."""
    return unread_names(sources, lambda name: name[:1] == "_" and name[:2] != "__")


def unread_public_names(sources: dict[str, str], readers: tuple[str, ...]) -> list[str]:
    """The public top-level names and methods, with no leading underscore,
    that neither a module nor one of the ``readers`` reads (``unread_names``)."""
    return unread_names(sources, lambda name: name[:1] != "_", readers)


def test_unread_private_names_are_found():
    sources = {
        "a": "def _used(): pass\ndef _recursive(): return _recursive()\n_X = 1\n__all__ = []\n",
        "b": "from a import _used\nimport a\nprint(a._X)\n_Y: int = 0\n",
    }
    assert unread_private_names(sources) == ["a._recursive", "b._Y"]


def test_private_names_are_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_public_names_are_found():
    sources = {"a": "def used(): pass\ndef traced(): pass\nX = 1\n_y = X\n",
               "b": "from a import used\n"}
    assert unread_public_names(sources, ("import a\na.traced\n",)) == []
    assert unread_public_names(sources, ()) == ["a.traced"]


def test_unread_methods_are_found():
    source = ("class C(dict):\n"
              "    @property\n    def one(self): return self.one\n"
              "    def two(self): return C()\n    def __pow__(self, n): pass\n"
              "class D:\n    def three(self): return self.two()\n")
    assert unread_public_names({"a": source}, ()) == ["a.C", "a.C.one", "a.D", "a.D.three"]
    assert unread_public_names({"a": source}, ("x.three\n",)) == ["a.C", "a.C.one", "a.D"]


#: The public names, methods included, that neither the package nor the
#: benchmark's tracer reads, each kept on purpose.
UNREAD_PUBLIC_NAMES = {
    "classify.EXCEPTIONAL_BIEBERBACH": "the paper's list of torsion-free exceptional groups",
    "arrangement.hyperplanes": "the tests' reference for the numbering of the hyperplanes",
    "permutations.cycles": "the tests' reference for the cycle data of one walk",
    "monomial.class_representatives": "the tests' reference for the prime-order class walk",
}


def test_public_names_are_read():
    # bench/trace_child.py wraps functions by name, so what it reads is used.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tracer = (Path(__file__).resolve().parents[1] / "bench" / "trace_child.py").read_text()
    assert sorted(unread_public_names(sources, (tracer,))) == sorted(UNREAD_PUBLIC_NAMES)


def start_up_costs(source: str) -> list[str]:
    """The ``from __future__`` imports of a module, which load ``__future__``
    in every process, and its ``namedtuple`` imports and calls, each a class
    compiled from generated source, as source text.

    The ``sys.modules`` checks in test_processes.py cannot see a
    ``namedtuple`` call: ``python -m`` loads ``collections`` anyway.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or "namedtuple" in names_read(node)):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and "namedtuple" in names_read(node.func):
            found.append(ast.unparse(node))
    return found


def test_start_up_costs_are_found():
    source = ("from __future__ import annotations\nimport collections\n"
              "from collections import namedtuple\nfrom typing import NamedTuple\n"
              "A = collections.namedtuple('A', 'x')\nclass B(namedtuple('B', 'y')): pass\n")
    assert start_up_costs(source) == [
        "from __future__ import annotations", "from collections import namedtuple",
        "collections.namedtuple('A', 'x')", "namedtuple('B', 'y')"]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_modules_defer_no_annotations_and_call_no_namedtuple(path):
    assert start_up_costs(path.read_text()) == []


#: Calls that end the host process, or leave work to run when it ends.
PROCESS_EXITS = frozenset({"os._exit", "sys.exit", "gc.freeze", "atexit.register"})


def process_exits(source: str) -> list[tuple[str, str]]:
    """(top-level name, call) for each use of a PROCESS_EXITS name, in order.

    A use is ``module.name`` or ``from module import name``; at module level
    the top-level name is "".
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom):
                used = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                used = []
            found += [(owner, name) for name in used if name in PROCESS_EXITS]
    return found


def test_process_exits_are_found():
    source = ("import atexit, gc, sys\nfrom os import _exit\natexit.register(print)\n"
              "def f():\n    gc.freeze()\n    sys.exit(gc.collect())\n")
    assert process_exits(source) == [
        ("", "os._exit"), ("", "atexit.register"), ("f", "gc.freeze"), ("f", "sys.exit")]


def test_only_cli_main_ends_the_process():
    # Importing or calling the library never ends its host process or leaves
    # work to run at its exit.
    found = [(path.stem, *use) for path in sorted(PACKAGE.glob("*.py"))
             for use in process_exits(path.read_text())]
    assert found == [("cli", "main", "os._exit")]
