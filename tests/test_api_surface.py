"""Each module's ``__all__`` names exactly its public functions and classes.

Tools that treat every function without a leading underscore as public API
(tracing, docs) then see the same surface as ``from degenma.x import *``.
"""

import importlib
import inspect
import pkgutil

import pytest

import degenma

MODULES = [importlib.import_module(f"degenma.{m.name}") for m in pkgutil.iter_modules(degenma.__path__)]


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_matches_public_definitions(mod):
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = {
        n
        for n, v in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == mod.__name__
    }
    assert sorted(defined - set(mod.__all__)) == []
