"""Every name a package module or script imports is used there or listed
in its ``__all__``, no module or script reads another object's private
attribute or imports another module's private name, and the package file
re-exports nothing: the submodules are the API."""

import ast
import importlib
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


# each submodule's ``__all__`` is its public surface; ``__init__`` holds none
SUBMODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES = SUBMODULES + sorted((ROOT / "scripts").glob("*.py"))


def test_package_file_is_its_module_map_and_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    doc, *rest = tree.body
    assert ast.get_docstring(tree) is not None
    assert [type(n).__name__ for n in rest] == ["Assign"]
    assert [ast.unparse(t) for t in rest[0].targets] == ["__version__"]
    # the docstring's module map names every submodule
    assert [p.stem for p in SUBMODULES if f"``{p.stem}``" not in doc.value.value] == []


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda p: p.stem)
def test_no_package_attribute_shadows_a_submodule(path):
    # ``import roughmkv.<name> as m`` binds the package attribute, so it
    # must be the submodule itself
    package = importlib.import_module("roughmkv")
    module = importlib.import_module(f"roughmkv.{path.stem}")
    assert getattr(package, path.stem) is module


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


def private_imports(source: str) -> list[str]:
    """Private names, ``_name`` but not ``__name__``, that a ``from`` import
    takes from another module, wherever the import sits."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_checker_finds_a_private_import():
    source = (
        "from .coefficients import CoefficientSet, _area_tensor\n"
        "from roughmkv.grids import read_only as _read_only\n"
        "from roughmkv import __version__\n"
        "import numpy as _np\n"
        "def f():\n"
        "    from .streams import _KEY_BLOCK\n"
    )
    assert private_imports(source) == ["1: _area_tensor", "6: _KEY_BLOCK"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(node: ast.AST) -> list[str]:
    """Absolute module names an import statement loads; none for other nodes."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def imports_package(node: ast.AST, package: str) -> bool:
    return any(n == package or n.startswith(package + ".") for n in imported_modules(node))


def eager_imports(source: str, package: str) -> list[str]:
    """Imports of ``package`` that run when the module loads, i.e. any outside
    a function body."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if imports_package(child, package):
                found.append(f"{child.lineno}: {ast.unparse(child)}")
            visit(child)

    visit(ast.parse(source))
    return found


def any_imports(source: str, package: str) -> list[str]:
    """Every import of ``package``, wherever it sits."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if imports_package(node, package)
    ]


SCIPY_SAMPLE = (
    "import numpy as np\n"
    "from scipy.optimize import linear_sum_assignment\n"
    "import scipyx\n"
    "from .scipy import helper\n"
    "try:\n"
    "    import scipy.linalg as la\n"
    "except ImportError:\n"
    "    pass\n"
    "class A:\n"
    "    import scipy\n"
    "    def f(self):\n"
    "        from scipy.interpolate import CubicSpline\n"
    "def g():\n"
    "    import scipy.spatial\n"
)


def test_checker_finds_an_eager_scipy_import():
    assert eager_imports(SCIPY_SAMPLE, "scipy") == [
        "2: from scipy.optimize import linear_sum_assignment",
        "6: import scipy.linalg as la",
        "10: import scipy",
    ]


def test_checker_finds_every_scipy_import():
    assert sorted(any_imports(SCIPY_SAMPLE, "scipy")) == [
        "10: import scipy",
        "12: from scipy.interpolate import CubicSpline",
        "14: import scipy.spatial",
        "2: from scipy.optimize import linear_sum_assignment",
        "6: import scipy.linalg as la",
    ]


# scipy costs most of a cold start; only the functions that call it import it
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy_at_load(path):
    found = eager_imports(path.read_text(encoding="utf-8"), "scipy")
    assert not found, f"{path.relative_to(ROOT)}: " + "; ".join(found)


# scipy is needed only for exact W2 between clouds of dimension above 1 and
# for the brute-force W2 reference
SCIPY_MODULES = {"measures.py"}


def test_only_the_w2_module_imports_scipy():
    found = {
        p.name: any_imports(p.read_text(encoding="utf-8"), "scipy")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name not in SCIPY_MODULES
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def exported_names(source: str) -> list[str]:
    """The module's ``__all__``, or no names when it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def read_names(source: str) -> set[str]:
    """Names the source loads, as a bare name or as an attribute, leaving
    out the reads inside the definition of the name itself; imports and
    ``__all__`` strings are no reads."""
    found = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def test_checker_finds_an_unread_export():
    source = (
        "__all__ = ['used', 'unused', 'recursive']\n"
        "def used(): return 1\n"
        "def unused(): return used()\n"
        "def recursive(n): return recursive(n - 1)\n"
    )
    unread = [n for n in exported_names(source) if n not in read_names(source)]
    assert unread == ["unused", "recursive"]


# Exported names that no run or script reads, each kept for a reason.
UNREAD_EXPORTS = {
    # loaders: everything the package saves must load back
    "load_flow_csv": "loads flow.csv back",
    "load_backward_csv": "loads backward.csv back",
    # oracles the tests compare against
    "pairing": "particle-average oracle for <mu, phi>",
    "wasserstein2_bruteforce": "all-permutations W2 oracle",
    "gradient_consistency": "finite-difference oracle of the probe derivatives",
    "constant_function": "polynomial probe with closed-form residuals",
    "linear_function": "polynomial probe with closed-form residuals",
    "quadratic_function": "polynomial probe with closed-form residuals",
    # wrapped by name in scenario_bench/tracer.py
    "area_coefficient": "the benchmark tracer wraps it",
    "weak_residual": "the benchmark tracer wraps it",
}


def test_every_export_is_read_or_allowed():
    read = set()
    for path in MODULES:
        read |= read_names(path.read_text(encoding="utf-8"))
    unread = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in exported_names(path.read_text(encoding="utf-8"))
        if name not in read
    }
    assert unread - UNREAD_EXPORTS.keys() == set()
    # an allowed name that a run came to read no longer needs its entry
    assert UNREAD_EXPORTS.keys() - unread == set()


def einsum_callers(source: str) -> list[tuple[int, str]]:
    """``(line, top-level definition)`` of every ``einsum`` call, bare or as
    an attribute; a call outside any definition is named ``<module>``."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [
            (node.lineno, name)
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and "einsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        ]
    return found


def test_checker_finds_every_einsum_call():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "X = np.einsum('i->', np.ones(2))\n"
        "def outer(a):\n"
        "    def inner(b):\n"
        "        return np.einsum('i,i->', a, b)\n"
        "    return inner\n"
        "class C:\n"
        "    def f(self, a):\n"
        "        return einsum('ii->', a) + np.sum(a)\n"
    )
    assert einsum_callers(source) == [(3, "<module>"), (6, "outer"), (10, "C")]


# The package's contractions are ``ordered_sum``s or broadcast products;
# these functions keep ``np.einsum``, each for a reason.
EINSUM_CALLERS = {
    "brownian_lift": "runs once per signal, and its sums set the driver's bits",
    "chen_extend": "the reference fold over a span's cells, run once per checked span",
    "quadratic_function": "test-only probe; an ordered sum turns its +0.0 into -0.0",
}


def test_only_the_allowed_functions_call_einsum():
    found = {
        f"{path.name}:{line}": name
        for path in SUBMODULES
        for line, name in einsum_callers(path.read_text(encoding="utf-8"))
    }
    assert {at: name for at, name in found.items() if name not in EINSUM_CALLERS} == {}
    # an allowed function that stopped calling einsum no longer needs its entry
    assert EINSUM_CALLERS.keys() - set(found.values()) == set()


def random_reads(source: str) -> list[str]:
    """``np.random``/``numpy.random`` attributes other than the ``Generator``
    type, and imports from ``numpy.random``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr != "Generator"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
        ) or imports_package(node, "numpy.random"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_checker_finds_every_draw_outside_the_stream_module():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def f(rng: np.random.Generator) -> np.random.Generator:\n"
        "    return np.random.default_rng(0), numpy.random.SFC64(1), np.random.PCG64()\n"
    )
    assert random_reads(source) == [
        "2: from numpy.random import default_rng",
        "4: np.random.PCG64",
        "4: np.random.default_rng",
        "4: numpy.random.SFC64",
    ]


# every draw comes from a stream keyed by (seed, *tags); other modules name
# only the generator type
@pytest.mark.parametrize(
    "path", [p for p in SUBMODULES if p.name != "streams.py"], ids=lambda p: p.name
)
def test_randomness_lives_in_the_stream_module(path):
    assert random_reads(path.read_text(encoding="utf-8")) == []
