"""Every name a package module imports or keeps private at module level is used.

No linter ships with the package, so these are the checks for dead code:

* a name bound by a top-level ``import`` or ``from ... import`` must
  appear as a name somewhere else in the module's syntax tree;
* a top-level UPPER_CASE constant or ``_private`` function or class must
  be read, as a name or an attribute, somewhere in the package.

``__init__.py`` re-exports by importing, so its imports and definitions
are left out; what it reads still counts.

scipy stays off the import path: no package module imports it at module
level, and a process that imports the package and runs a command never
loads it (only ``shooting.mirror_audit`` imports it, when called).  Nor
does a command load ``numpy.ma``, which ``import numpy`` leaves out and
``np.unique`` pulls in.
"""

import ast
import os
import subprocess
import sys
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


def module_level_imports(source: str) -> list:
    """Top-level modules named by the module-level import statements, in order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def unread_definitions(sources: dict) -> list:
    """(module, name) of the constants and private definitions no module reads.

    ``sources`` maps file names to source text.
    """
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        if name != "__init__.py":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name.startswith("_") and not node.name.endswith("__"):
                        defined.append((name, node.name))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(name, n.id) for t in targets for n in ast.walk(t)
                                if isinstance(n, ast.Name) and n.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[1] not in read)


def test_checker_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom x import a, b as c\nc(os)\n") \
        == ["a", "math"]


def test_checker_sees_an_unread_definition():
    sources = {"a.py": "LIMIT = 1\nSTALE = 2\n_A, _B = 3, 4\ndef _used(): pass\n"
                       "def _dead(): pass\nclass _Gone: pass\ndef __dir__(): pass\n"
                       "def public(): return LIMIT\n",
               "b.py": "from . import a\nSTALE = 5\na._used(a._A)\n",
               "__init__.py": "_B = 6\nUNUSED = 7\n"}
    assert unread_definitions(sources) == [("a.py", "STALE"), ("a.py", "_B"), ("a.py", "_Gone"),
                                           ("a.py", "_dead"), ("b.py", "STALE")]


def test_checker_sees_module_level_imports_only():
    source = ("import numpy as np, os.path\nfrom scipy.interpolate import PPoly\n"
              "from .errors import X\ndef f():\n    import scipy\n")
    assert module_level_imports(source) == ["numpy", "os", "scipy"]


def test_modules_are_found():
    assert {"cli.py", "shooting.py", "green.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_constants_and_private_definitions_are_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert "scipy" not in module_level_imports(path.read_text(encoding="utf-8"))


COMMANDS = """
import sys
import numpy as np
ma_with_numpy = "numpy.ma" in sys.modules
import perspec
import perspec.cli
from perspec.singular import integrating_factor

x = np.linspace(0.0, np.pi, 41)
for profile in (perspec.sine_profile(), perspec.piecewise_linear_profile(),
                perspec.tabulated_profile(x, (2 / np.pi) * np.sin(x))):
    integrating_factor(perspec.OperatorModel(profile=profile, epsilon=1.0))
code = perspec.cli.run_subcommand(["eigs", "--lmax", "2", "--out", sys.argv[1]])
assert code == 0, code
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(ma_with_numpy or "numpy.ma" not in sys.modules)
"""


def test_commands_load_neither_scipy_nor_numpy_ma(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                     env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", COMMANDS,
                          str(tmp_path / "eigs.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-2:] == ["[]", "True"]
