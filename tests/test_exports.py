"""Every exported name resolves, and the package re-exports public names only."""

import importlib
import pkgutil

import pytest

import qhashlab

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
