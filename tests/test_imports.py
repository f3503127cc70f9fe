"""Every name a package module or script imports is used there or
re-exported, and no module or script reads another object's private
attribute."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roughmkv"


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_a_dead_import():
    source = "import os\nimport numpy as np\nfrom typing import Sequence\nprint(np.pi)\n"
    assert unused_imports(source) == ["Sequence", "os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


# everything the package ``__init__`` imports is its public surface
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    (ROOT / "scripts").glob("*.py")
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def private_reads(source: str) -> list[str]:
    """``obj._name`` uses whose ``obj`` is not ``self``/``cls`` and whose
    ``_name`` the module defines neither as a class member nor as ``self._name``."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    defined.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    defined.update(t.id for t in item.targets if isinstance(t, ast.Name))
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(item.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and _is_self(node.value):
            defined.add(node.attr)
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not _is_self(node.value)
        and node.attr not in defined
    ]


def test_checker_finds_a_private_reach_in():
    source = (
        "class A:\n"
        "    _field: int = 0\n"
        "    def _helper(self):\n"
        "        self._cache = 1\n"
        "        return cls._field + self._other\n"
        "def f(a, rp):\n"
        "    return a._field + a._cache + a._helper() + a.__class__ + rp._prefix\n"
    )
    assert private_reads(source) == ["7: rp._prefix"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attribute_reads(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []
