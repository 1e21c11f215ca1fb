"""Every public name of a library module is importable from the package."""

import importlib
import pkgutil

import pytest

import kbf

LIBRARY_MODULES = [
    importlib.import_module(f"kbf.{info.name}")
    for info in pkgutil.iter_modules(kbf.__path__)
    if info.name != "cli"
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
