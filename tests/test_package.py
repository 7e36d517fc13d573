"""Tests for the package surface: every exported name resolves."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
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


def test_each_module_imports_first():
    """Each module imported first, in a fresh interpreter: a module-level
    import cycle fails here, not at a user's first import."""
    env = dict(os.environ, PYTHONPATH=str(Path(sigma_binomial.__file__).resolve().parents[1]))
    for info in pkgutil.iter_modules(sigma_binomial.__path__):
        done = subprocess.run([sys.executable, "-c", "import sigma_binomial." + info.name],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (info.name, done.stderr)


def _load_script(relpath: str, name: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_exist():
    """Every function the benchmark's tracer wraps by name, required or
    optional, is defined in its module: a missing optional one would be
    reported as absent instead of measured."""
    layertrace = _load_script("bench/layertrace.py", "bench_layertrace")
    assert layertrace.LAYERS
    for mod_name, fn_name, _required in layertrace.LAYERS:
        mod = importlib.import_module("sigma_binomial." + mod_name)
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)
    for mod_name in layertrace.WHOLE_MODULES:
        importlib.import_module("sigma_binomial." + mod_name)


_COUNTED = '''"""A module docstring,
on two lines."""

import os  # a trailing comment keeps its line


class C:
    """A class docstring."""

    x = 1


def f(x):
    """A function docstring."""
    # a comment line
    s = """a string that is
no docstring"""
    return x
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    """Counted: import, class, x = 1, def, both lines of s, return."""
    code_lines = _load_script("tools/code_lines.py", "tools_code_lines")
    assert code_lines.code_lines(_COUNTED) == 7
    (tmp_path / "a.py").write_text(_COUNTED)
    (tmp_path / "b.py").write_text("# only a comment\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "0", "7"] and lines[-1].endswith("total")
