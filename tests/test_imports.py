"""No imported-but-unused names in the package or the tests, no private
module-level helper that the package never refers to, and no public
function that no other module reaches.

Written with the standard-library ast module, as no linter is a dependency.
The package's __init__.py re-exports its imports and is exempt, as are
`from __future__` imports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str):
    """Names bound by an import in source and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    paths = [p for p in sorted((ROOT / "src" / "eigenframe").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {}
    for path in paths:
        names = _unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def test_the_check_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import gcd, lcm as least\n"
        "print(os.sep, least(2, 3))\n"
    )
    assert _unused_imports(source) == ["gcd", "np"]


def _defined_names(node):
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _references(node):
    """Names node refers to: a name it reads, an attribute, or the names a
    from-import binds."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {a.name for a in node.names}
    return set()


def _dead_private_helpers(sources):
    """module:name for each module-level _name (not a dunder) defined in
    sources, a {module: source} dict, that no statement but its own
    definition refers to, by name, attribute or import."""
    defined, used = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = _defined_names(node)
            defined.update((name, module) for name in own
                           if name.startswith("_") and not name.startswith("__"))
            for sub in ast.walk(node):
                used |= _references(sub) - own
    return sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)


def test_no_dead_private_helpers():
    package = ROOT / "src" / "eigenframe"
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert _dead_private_helpers(sources) == []


def test_the_check_sees_each_kind_of_private_helper():
    sources = {
        "a": (
            "def _called():\n    pass\n"
            "def _dead():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "_TABLE = {}\n"
            "_UNREAD: int = 0\n"
            "class _Hidden:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _called()\n"
        ),
        "b": "from .a import _TABLE\nfrom . import a\nprint(a._Hidden, _TABLE)\n",
    }
    assert _dead_private_helpers(sources) == ["a:_UNREAD", "a:_dead", "a:_recursive"]


def _unreached_public_functions(sources, entry_points=()):
    """module:name for each module-level public function defined in sources,
    a {module: source} dict, that no other module refers to, by name,
    attribute or import, and that is not one of entry_points, given as
    module:name. The package's "__init__" module counts as another module,
    so re-exporting a function from it reaches the function."""
    defined, used = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")]
        for sub in ast.walk(tree):
            for ref in _references(sub):
                used.setdefault(ref, set()).add(module)
    return sorted(f"{module}:{name}" for module, name in defined
                  if not used.get(name, set()) - {module}
                  and f"{module}:{name}" not in entry_points)


def test_every_public_function_is_reached_from_another_module():
    # the console scripts of pyproject.toml are reached from outside, and so
    # are the functions the benchmark tracer wraps by name: renaming one
    # would drop its span from the benchmark's reports
    scripts = re.findall(r'"eigenframe\.(\w+:\w+)"', (ROOT / "pyproject.toml").read_text())
    assert scripts == ["cli:main"]
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    traced = [f"{module}:{name}" for module, name in re.findall(r'\("(\w+)", "(\w+)"\)', tracer)]
    assert "exact:invert" in traced
    assert _unreached_public_functions(_package_sources(), scripts + traced) == []


def test_the_check_sees_each_way_a_public_function_is_reached():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported():\n    pass\n"
            "def imported():\n    pass\n"
            "def by_attribute():\n    pass\n"
            "def own_module_only():\n    return by_attribute()\n"
            "def unreached():\n    return unreached()\n"
            "def _private():\n    pass\n"
            "class Public:\n    def method(self):\n        pass\n"
        ),
        "b": "from .a import imported\nfrom . import a\nprint(imported, a.by_attribute)\n",
    }
    assert _unreached_public_functions(sources) == ["a:own_module_only", "a:unreached"]
    assert _unreached_public_functions(sources, ["a:unreached"]) == ["a:own_module_only"]


# least_eigenspace is the one place a backend is chosen; the checks that
# read its eigenspace take its result instead, and no tolerance either
BACKEND_CHOOSERS = {"least_eigenspace"}
EIGENSPACE_CHECKS = {
    "xspace", "is_universally_completable", "neighborhood_condition", "clique_condition",
    "clique_condition_any", "least_eigenvalue_framework", "optimal_vector_coloring_1wr",
    "is_uniquely_vector_colorable_1wr",
}


def _public_functions_with(source, param):
    """Public functions and methods in source that take a parameter param."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                not node.name.startswith("_"):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == param for p in params):
                found.append(node.name)
    return found


def _package_sources():
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / "eigenframe").glob("*.py"))}


def _taking(param):
    """Public functions in the package that take a parameter param."""
    return {name for source in _package_sources().values()
            for name in _public_functions_with(source, param)}


def test_only_least_eigenspace_takes_a_backend():
    defined = {node.name for source in _package_sources().values()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert EIGENSPACE_CHECKS <= defined
    assert _taking("backend") == BACKEND_CHOOSERS
    assert not _taking("tol") & EIGENSPACE_CHECKS


def test_the_parameter_check_sees_each_kind_of_parameter():
    source = (
        "def least_eigenspace(g, backend='auto'):\n    pass\n"
        "def check(g, *, backend):\n    pass\n"
        "class A:\n    def method(self, backend, /):\n        pass\n"
        "def _private(backend):\n    pass\n"
        "def other(g, tol):\n    pass\n"
    )
    assert _public_functions_with(source, "backend") == ["least_eigenspace", "check", "method"]
    assert _public_functions_with(source, "tol") == ["other"]


# the census runs in one process, and no setting comes from the environment
def _process_pools_and_environment(source):
    """Lines of source that import multiprocessing or read the environment
    through os (os.environ, os.getenv, or either imported from os)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad = any(a.name.partition(".")[0] == "multiprocessing" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").partition(".")[0] == "multiprocessing" or (
                node.module == "os" and any(a.name in ("environ", "getenv") for a in node.names))
        elif isinstance(node, ast.Attribute):
            bad = node.attr in ("environ", "getenv") and \
                isinstance(node.value, ast.Name) and node.value.id == "os"
        else:
            continue
        if bad:
            found.append(node.lineno)
    return sorted(found)


def test_no_worker_count_pool_or_environment_setting():
    assert _taking("workers") == set()
    found = {module: lines for module, source in _package_sources().items()
             if (lines := _process_pools_and_environment(source))}
    assert found == {}


def test_the_pool_check_sees_each_kind_of_use():
    source = (
        "import os\n"
        "import multiprocessing\n"
        "import multiprocessing.pool as mp\n"
        "from multiprocessing import get_context\n"
        "from os import environ\n"
        "n = os.environ.get('N')\n"
        "m = os.getenv('M')\n"
        "k = os.cpu_count()\n"
        "from os import path\n"
        "import multiprocess_free\n"
    )
    assert _process_pools_and_environment(source) == [2, 3, 4, 5, 6, 7]
