"""Every name a package module imports or keeps private at module level is used.

No linter ships with the package, so these are the checks for dead code:

* a name bound by a top-level ``import`` or ``from ... import`` must
  appear as a name somewhere else in the module's syntax tree;
* a top-level UPPER_CASE constant or ``_private`` function or class must
  be read, as a name or an attribute, somewhere in the package;
* a top-level public function or class must be read, as a name or an
  attribute, by a package module or by the benchmark (``perfbench/``);
  ``__init__.py`` re-exporting it does not count.  The exceptions,
  ``PUBLIC_EXEMPT``, are the tests' own reference and a name the traced
  benchmark wraps;
* a field of a ``@dataclass`` in the package, and a method or property of
  any class in the package, must be read as an attribute somewhere in the
  package, its tests or the benchmark; dunder methods are exempt, since
  the language calls them.

``__init__.py`` re-exports by importing, so its imports and definitions
are left out; what it reads still counts.

The traced benchmark (``perfbench/tracing.py``) swaps package attributes
by name, so every ``(module, attribute)`` pair of its ``WRAPPED`` table
must resolve, and ``perfbench/run.py`` reads ``perspec.BACKEND``.

The package needs numpy alone: no package module imports scipy anywhere,
at module level or inside a function, and a process that imports the
package and runs a command never loads it (only the tests use it).  Nor
does ``eigs``, ``schatten`` or ``resolve`` load ``numpy.ma``, which
``import numpy`` leaves out and ``np.unique`` and ``np.isin`` pull in;
and ``eigs`` and ``schatten`` do not load ``numpy.random``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perspec"
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the adaptive scalar shot no command takes: the tests' reference for the marches;
# and D at one real lam, which no command calls but the traced benchmark
# (perfbench/tracing.py) wraps by name
PUBLIC_EXEMPT = {("shooting.py", "compute_phi_at_pi"), ("eigensolve.py", "dispersion")}


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


def imported_modules(source: str) -> list:
    """Top-level modules named by every absolute import statement, nested ones too."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def names_read(source: str) -> set:
    """Every name loaded and every attribute named in ``source``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


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
        read |= names_read(source)
    return sorted(d for d in defined if d[1] not in read)


def unread_public(defining: dict, reading: dict) -> list:
    """(module, name) of the public top-level functions and classes no reading file reads.

    ``defining`` maps the file names whose definitions are checked to
    source text; ``reading`` maps every file whose name loads and
    attributes count to source text.
    """
    read = set().union(*map(names_read, reading.values()))
    return sorted((name, node.name) for name, source in defining.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def attributes_read(reading: dict) -> set:
    """Every attribute loaded in the source texts of ``reading``."""
    return {node.attr for source in reading.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(defining: dict, reading: dict) -> list:
    """(module, class, field) of the dataclass fields no attribute load reads.

    ``defining`` maps the file names whose ``@dataclass`` classes are
    checked to source text; ``reading`` maps every file whose attribute
    loads count to source text.
    """
    read = attributes_read(reading)
    unread = []
    for name, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
                    for dec in cls.decorator_list):
                unread += [(name, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    return sorted(unread)


def unread_methods(defining: dict, reading: dict) -> list:
    """(module, class, name) of the methods and properties no attribute load reads.

    Every class in ``defining``'s source texts is checked, nested ones
    too; dunder methods are exempt.  ``reading`` is as for ``unread_fields``.
    """
    read = attributes_read(reading)
    return sorted((name, cls.name, node.name) for name, source in defining.items()
                  for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in read)


def wrapped_targets(source: str) -> list:
    """(module, attribute) of every entry of the ``WRAPPED`` table in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED"
                                                for t in node.targets):
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("no WRAPPED table")


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


def test_checker_sees_an_unread_public_definition():
    defining = {"a.py": "def used(): pass\ndef dead(): pass\nclass Gone: pass\n"
                        "class Base: pass\nclass Kept(Base): pass\ndef _private(): pass\n"
                        "def by_attribute(): pass\n"}
    reading = {**defining, "b.py": "from .a import used, dead, Kept\nused()\nKept()\n",
               "bench.py": "import perspec.a\nperspec.a.by_attribute\n"}
    assert unread_public(defining, reading) == [("a.py", "Gone"), ("a.py", "dead")]


def test_checker_sees_an_unread_field():
    defining = {"a.py": "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
                        "    z: int = 0\n    def f(self):\n        return self.x\n"
                        "@dataclass\nclass B:\n    w: int\nclass C:\n    v: int\n"}
    reading = {**defining, "t.py": "b.w = 1\nprint(a.z)\nv = 2\nA(y=1)\n"}
    assert unread_fields(defining, reading) == [("a.py", "A", "y"), ("a.py", "B", "w")]


def test_checker_sees_an_unread_method():
    defining = {"a.py": "class A:\n    def __init__(self): pass\n    def used(self): pass\n"
                        "    def dead(self): pass\n    @property\n    def size(self): pass\n"
                        "    @property\n    def gone(self): pass\n    def _helper(self): pass\n"
                        "    def _stale(self): pass\n    @classmethod\n    def make(cls): pass\n"
                        "    def f(self):\n        return self._helper()\n"
                        "def dead_function(): pass\n"}
    reading = {**defining, "t.py": "A.make().used()\nprint(a.size)\nf = 1\nA.dead = None\n"}
    assert unread_methods(defining, reading) == [("a.py", "A", "_stale"), ("a.py", "A", "dead"),
                                                 ("a.py", "A", "f"), ("a.py", "A", "gone")]


def test_checker_sees_nested_imports():
    source = ("import numpy as np, os.path\nfrom .errors import X\n"
              "def f():\n    from scipy.integrate import solve_ivp\n"
              "class A:\n    def g(self):\n        import math\n")
    assert sorted(imported_modules(source)) == ["math", "numpy", "os", "scipy"]


def test_checker_reads_the_wrapped_table():
    source = 'X = 1\nWRAPPED = (("a.f", "perspec.cli", "f"), ("b.g", "perspec", "g"))\n'
    assert wrapped_targets(source) == [("perspec.cli", "f"), ("perspec", "g")]


def test_traced_attributes_resolve():
    targets = wrapped_targets(TRACING.read_text(encoding="utf-8"))
    assert targets
    assert [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])] == []
    assert hasattr(importlib.import_module("perspec"), "BACKEND")


def test_modules_are_found():
    assert {"cli.py", "shooting.py", "green.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_constants_and_private_definitions_are_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []


def test_public_definitions_are_read():
    defining = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    reading = {str(p): p.read_text(encoding="utf-8")
               for p in [*MODULES, *(ROOT / "perfbench").rglob("*.py")]}
    assert set(unread_public(defining, reading)) == PUBLIC_EXEMPT


def test_dataclass_fields_are_read():
    defining = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    reading = {str(p): p.read_text(encoding="utf-8")
               for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")}
    assert unread_fields(defining, reading) == []


def test_methods_and_properties_are_read():
    defining = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    reading = {str(p): p.read_text(encoding="utf-8")
               for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")}
    assert unread_methods(defining, reading) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert "scipy" not in imported_modules(path.read_text(encoding="utf-8"))


COMMANDS = """
import sys
from pathlib import Path
import numpy as np
ma_with_numpy = "numpy.ma" in sys.modules
random_with_numpy = "numpy.random" in sys.modules
import perspec
import perspec.cli
from perspec.singular import integrating_factor

x = np.linspace(0.0, np.pi, 41)
for profile in (perspec.sine_profile(), perspec.piecewise_linear_profile(),
                perspec.tabulated_profile(x, (2 / np.pi) * np.sin(x))):
    integrating_factor(perspec.OperatorModel(profile=profile, epsilon=1.0))
for argv in (["eigs", "--lmax", "2"], ["schatten", "--grid", "64", "--levels", "1"],
             ["resolve", "--grid", "64"]):
    code = perspec.cli.run_subcommand([*argv, "--out", str(Path(sys.argv[1]) / argv[0])])
    assert code == 0, code
    print(argv[0], ma_with_numpy or "numpy.ma" not in sys.modules,
          random_with_numpy or "numpy.random" not in sys.modules)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_load_neither_scipy_nor_numpy_ma(tmp_path):
    # resolve draws its default forcing from numpy.random; eigs and schatten
    # take no random numbers, so they do not load it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                     env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", COMMANDS, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.strip().splitlines()]
    assert lines[-1] == ["[]"]
    loaded = {line[0]: line[1:] for line in lines if len(line) == 3}
    assert loaded["eigs"] == ["True", "True"]
    assert loaded["schatten"] == ["True", "True"]
    assert loaded["resolve"][0] == "True"
