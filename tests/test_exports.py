import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import spectral_limits

MODULES = sorted(m.name for m in pkgutil.iter_modules(spectral_limits.__path__))

ROOT = Path(__file__).resolve().parents[1]

# where a caller of an exported name may live: the package itself, the
# demos, the benchmark and the acceptance suite, but no unit test
CALLER_FILES = sorted(
    [*ROOT.glob("src/spectral_limits/*.py"), *ROOT.glob("demos/*.py"),
     *ROOT.glob("bench/*.py"), ROOT / "tests" / "test_acceptance.py"])


class _References(ast.NodeVisitor):
    """Every ``Name`` and ``Attribute`` read, except a definition's
    references to its own name."""

    def __init__(self):
        self.names: set[str] = set()
        self._inside: list[str] = []

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id not in self._inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._inside:
            self.names.add(node.attr)
        self.generic_visit(node)


@functools.cache
def referenced_names() -> frozenset[str]:
    refs = _References()
    for path in CALLER_FILES:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return frozenset(refs.names)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"spectral_limits.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller(name):
    # an import or an ``__all__`` entry is no call, and a name that only
    # its own unit tests use belongs in those tests
    module = importlib.import_module(f"spectral_limits.{name}")
    used = referenced_names()
    assert [n for n in getattr(module, "__all__", []) if n not in used] == []
