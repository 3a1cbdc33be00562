"""Every name a module exports through ``__all__`` resolves on import."""

import importlib
import pkgutil

import pytest

import stringnf
import stringnf.nf_engine

MODULES = ["stringnf", "stringnf.nf_engine"] + [
    info.name
    for package in (stringnf, stringnf.nf_engine)
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # the command line module declares none
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
