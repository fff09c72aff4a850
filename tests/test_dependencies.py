"""The package depends on what `pyproject.toml` declares and nothing more:
importing every `dchag` module loads no scipy, and the third-party packages
that `src/dchag` imports are exactly the declared dependencies."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dchag"

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import dchag
for mod in pkgutil.iter_modules(dchag.__path__):
    importlib.import_module("dchag." + mod.name)
print(json.dumps(sorted(sys.modules)))
"""


def declared_dependencies():
    """Distribution names in `pyproject.toml`'s `dependencies`, version
    specifiers stripped."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
            for dep in project["dependencies"]}


def third_party_imports():
    """Top-level names of every absolute import in `src/dchag` that is
    neither the standard library nor the package itself."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "dchag"}


def test_importing_every_module_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = ast.literal_eval(out.strip())
    assert "dchag.tensor" in loaded and "dchag.strategies" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_imports_are_the_declared_dependencies():
    assert declared_dependencies() == {"numpy"}
    assert third_party_imports() == declared_dependencies()
