"""The package exports exactly the public names of its library modules."""

import importlib
import pkgutil
import types

import pytest

import kbf

LIBRARY_MODULES = [
    importlib.import_module(f"kbf.{info.name}")
    for info in pkgutil.iter_modules(kbf.__path__)
    if info.name not in ("cli", "__main__")  # the command line, not the library
]


def _public_names(module):
    if hasattr(module, "__all__"):
        return module.__all__
    # a module without __all__ (errors): the public names it defines
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    ]


@pytest.mark.parametrize("module", LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_library_names_are_exported_by_the_package(module):
    names = _public_names(module)
    assert names
    assert [n for n in names if getattr(kbf, n, None) is not getattr(module, n)] == []


def test_package_exports_nothing_else():
    # the star imports must not leak a module's own imports (np, math, ...)
    library = {n for module in LIBRARY_MODULES for n in _public_names(module)}
    public = {n for n in vars(kbf) if not n.startswith("_")}
    extra = [
        n for n in public - library
        if not (isinstance(getattr(kbf, n), types.ModuleType) and getattr(kbf, n).__name__ == f"kbf.{n}")
    ]
    assert extra == []
