"""Every import in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/flatobs/*.py"), *ROOT.glob("tests/*.py")])


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
