"""Tests for the package surface: every exported name resolves."""

import importlib
import inspect
import pkgutil

import sigma_binomial


def _modules():
    return [
        importlib.import_module("sigma_binomial." + info.name)
        for info in pkgutil.iter_modules(sigma_binomial.__path__)
    ]


def test_module_all_names_resolve():
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)


def test_package_reexports_resolve():
    """Each public name of the package is an object some module exports
    under that name (listed in its ``__all__`` when it has one)."""
    modules = _modules()
    for name, value in vars(sigma_binomial).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        assert any(
            getattr(mod, name, None) is value and name in getattr(mod, "__all__", [name])
            for mod in modules
        ), name
