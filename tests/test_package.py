"""Tests for the package surface: every exported name resolves."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

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


def test_benchmark_layers_exist():
    """Every function the benchmark's tracer wraps by name, required or
    optional, is defined in its module: a missing optional one would be
    reported as absent instead of measured."""
    spec = importlib.util.spec_from_file_location(
        "bench_layertrace", Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    )
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYERS
    for mod_name, fn_name, _required in layertrace.LAYERS:
        mod = importlib.import_module("sigma_binomial." + mod_name)
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)
    for mod_name in layertrace.WHOLE_MODULES:
        importlib.import_module("sigma_binomial." + mod_name)
