"""Every name a ``repro`` module lists in ``__all__`` resolves.

A stale export breaks ``from repro.<module> import *`` for every user, but
nothing else imports the name, so only a walk over the package finds it.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        # ``__main__`` modules run their command-line interface on import.
        if info.name.rsplit(".", 1)[-1] != "__main__":
            names.append(info.name)
    return names


@pytest.mark.parametrize("module_name", _modules())
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
