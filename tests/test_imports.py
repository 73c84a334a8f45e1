"""Every name a package module imports at module level is used in that module.

No linter ships with the package, so this is the check for dead imports:
a name bound by a top-level ``import`` or ``from ... import`` must appear
as a name somewhere else in the module's syntax tree.  ``__init__.py``
re-exports by importing, so it is left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "perspec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


def test_checker_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom x import a, b as c\nc(os)\n") \
        == ["a", "math"]


def test_modules_are_found():
    assert {"cli.py", "shooting.py", "green.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
