"""Every import in the package and its tests is used, every private
module-level function or class of the package is read in its own module,
every public module-level function and every public method or property of a
package class is read somewhere in the package, and every public function of
the shared test modules is read by some test file.  Importing `flatobs.cli`
loads every layer and none of the standard-library modules kept out of
start-up."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/flatobs/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])
TEST_FILES = sorted(ROOT.glob("tests/test_*.py"))
SHARED = [ROOT / "tests" / "oracles.py", ROOT / "tests" / "corpus.py"]


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, in order of appearance.

    Scope-blind: a name counts as used if it is read anywhere in the module,
    or listed in `__all__`.
    """
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [(name, line) for name, line in sorted(imported, key=lambda x: x[1]) if name not in used]


def unread_private_definitions(source: str) -> list:
    """Module-level `_private` functions and classes whose name is never read.

    Scope-blind, as `unused_imports`: a read anywhere in the module counts.
    """
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (node.name, node.lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def names_read(source: str) -> set:
    """Every name loaded in the module, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_public_functions(source: str, read: set) -> list:
    """Module-level public functions of `source` whose name is not in `read`."""
    return [
        (node.name, node.lineno)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def unread_public_methods(source: str, read: set) -> list:
    """Public methods and properties of the classes in `source` whose name is
    not in `read`, as ("Class.name", line)."""
    return [
        (f"{cls.name}.{node.name}", node.lineno)
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def package_names_read() -> set:
    return set().union(*(names_read(p.read_text(encoding="utf-8")) for p in PACKAGE))


def test_scan_covers_package_and_tests():
    names = {path.name for path in FILES}
    assert {"idealcalc.py", "cli.py", "test_imports.py", "oracles.py"} <= names


def test_scan_finds_unused_and_honours_all():
    source = (
        "import os\nimport os.path as osp\nfrom math import comb, factorial\n"
        "from json import dumps\n__all__ = ['dumps']\nprint(factorial(3))\n"
    )
    assert unused_imports(source) == [("os", 1), ("osp", 2), ("comb", 3)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_private_scan_finds_unread_definitions():
    source = (
        "def _used():\n    return 1\n\n"
        "def _dead():\n    return _used()\n\n"
        "class _Dead:\n    def _method(self):\n        pass\n\n"
        "def public():\n    def _inner():\n        pass\n\n"
        "def _rebound():\n    pass\n_rebound = None\n"
    )
    assert unread_private_definitions(source) == [("_dead", 4), ("_Dead", 7), ("_rebound", 15)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_private_definitions(path):
    assert unread_private_definitions(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_public_functions(path):
    assert unread_public_functions(path.read_text(encoding="utf-8"), package_names_read()) == []


def test_method_scan_finds_unread_methods():
    source = (
        "class Poly:\n"
        "    def __eq__(self, other):\n        return self.read() == other.read()\n\n"
        "    def read(self):\n        return 1\n\n"
        "    def dead(self):\n        return 2\n\n"
        "    @property\n    def dead_property(self):\n        return 3\n\n"
        "    def _private(self):\n        pass\n\n"
        "def outer():\n    class Inner:\n        def unread(self):\n            pass\n"
    )
    assert unread_public_methods(source, names_read(source)) == [
        ("Poly.dead", 8), ("Poly.dead_property", 12), ("Inner.unread", 20),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_public_methods(path):
    assert unread_public_methods(path.read_text(encoding="utf-8"), package_names_read()) == []


def test_public_scan_finds_unread_functions():
    helpers = (
        "def oracle():\n    return 1\n\n"
        "def dead_oracle():\n    return oracle()\n\n"
        "def _private():\n    pass\n\n"
        "class Helper:\n    def method(self):\n        pass\n\n"
        "def by_attribute():\n    pass\n"
    )
    tests = (
        "import helpers\nfrom helpers import oracle\n\n"
        "def test():\n    oracle()\n    helpers.by_attribute()\n"
    )
    assert unread_public_functions(helpers, names_read(tests)) == [("dead_oracle", 4)]


@pytest.mark.parametrize("path", SHARED, ids=lambda p: p.name)
def test_no_unread_shared_test_functions(path):
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in TEST_FILES))
    assert unread_public_functions(path.read_text(encoding="utf-8"), read) == []


LAYERS = ("polyring", "linalg", "idealcalc", "singular", "hodgeci", "bettisng", "obstruct", "cli")
# standard-library modules the package uses only for CLI I/O, or not at all
KEPT_OUT = ("dataclasses", "inspect", "argparse", "json")


def test_cli_import_loads_every_layer_and_no_heavy_stdlib():
    # one fresh interpreter: the modules `import flatobs.cli` adds to the
    # interpreter's own start-up set
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import flatobs.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    added = set(ast.literal_eval(done.stdout))
    assert {f"flatobs.{layer}" for layer in LAYERS} <= added
    assert added.isdisjoint(KEPT_OUT), sorted(added & set(KEPT_OUT))
