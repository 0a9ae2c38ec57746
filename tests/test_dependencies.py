"""The library depends on the standard library only: sympy and hypothesis
serve the tests, and nothing under `braidrep` may import a third-party module."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Run in an isolated interpreter, so only what braidrep imports is loaded;
# its argument is the source directory.
IMPORT_ALL = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
sys.path.insert(0, sys.argv[1])
import importlib, pkgutil
import braidrep
for info in pkgutil.iter_modules(braidrep.__path__):
    importlib.import_module("braidrep." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules} - before)))
"""


def test_modules_import_only_the_standard_library():
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_ALL, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = json.loads(done.stdout)
    assert "braidrep" in loaded
    foreign = [name for name in loaded
               if name != "braidrep" and name not in sys.stdlib_module_names]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
