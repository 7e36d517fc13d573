"""The canonical outputs, locked: the default-seed dump of
``tools/dump_outputs.py`` against the digests committed in
``tests/dump_digests.txt``, key by key."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _dump_tool():
    spec = importlib.util.spec_from_file_location("tools_dump_outputs", ROOT / "tools" / "dump_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_seed_dump_matches_its_digests(tmp_path):
    """A fresh interpreter writes the dump and its digests, as the commit
    command in the tool's docstring does; every key whose digest changed,
    that went missing or that is new is named."""
    digests = tmp_path / "digests.txt"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "dump_outputs.py"), str(ROOT), str(tmp_path / "dump.txt"),
         "--digests", str(digests)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    tool = _dump_tool()
    want, got = tool.read_digests(ROOT / "tests" / "dump_digests.txt"), tool.read_digests(digests)
    changed = [k for k in want if k in got and want[k] != got[k]]
    missing = [k for k in want if k not in got]
    new = [k for k in got if k not in want]
    assert not (changed or missing or new), "%d changed: %s; %d missing: %s; %d new: %s" % (
        len(changed), changed, len(missing), missing, len(new), new)
