"""Every public name a module exports exists."""
import importlib
import pkgutil

import pytest

import embseg

# __main__ runs the command line on import and exports nothing
MODULES = ["embseg"] + [
    f"embseg.{m.name}" for m in pkgutil.iter_modules(embseg.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []
