"""Every exported name resolves, the package re-exports public names only,
and every public name has a caller."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qhashlab

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = [
    importlib.import_module(f"qhashlab.{info.name}")
    for info in pkgutil.iter_modules(qhashlab.__path__)
]


@pytest.mark.parametrize("module", [qhashlab, *SUBMODULES], ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def home_modules(name):
    """Submodules a package-level name may come from: its defining module
    for classes and functions, else any submodule binding the same object."""
    obj = getattr(qhashlab, name)
    defined_in = getattr(obj, "__module__", None)
    if isinstance(defined_in, str) and defined_in.startswith("qhashlab."):
        return [importlib.import_module(defined_in)]
    return [m for m in SUBMODULES if getattr(m, name, None) is obj]


def test_package_reexports_are_listed_in_their_home_module():
    unlisted = [
        name
        for name in qhashlab.__all__
        if not any(name in getattr(m, "__all__", ()) for m in home_modules(name))
    ]
    assert unlisted == []


def names_read_in_package():
    """Names the package's own code loads, as a bare name or an attribute.

    Strings (docstrings, __all__) are not code, and a binding is not a
    read, so a name counts only where some line uses it.
    """
    read = set()
    for path in sorted((ROOT / "src" / "qhashlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def names_the_benchmark_traces():
    """The LAYER_FUNCTIONS table of benchmarks/tracing.py, read without importing it."""
    module = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    (table,) = [
        node.value for node in module.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYER_FUNCTIONS" for target in node.targets)
    ]
    return {name for names in ast.literal_eval(table).values() for name in names}


def test_every_public_name_has_a_caller():
    callers = names_read_in_package() | names_the_benchmark_traces()
    assert [name for name in qhashlab.__all__ if name not in callers] == []
