"""Every top-level function and class, and every method other than a
dunder, defined in `src/dchag` is named somewhere in the code of `src/`,
`tests/` or `bench/` besides its own definition.  A name counts where it
appears as an identifier, or as a string literal that is exactly the name
(as in the `getattr`-style patch lists of `bench/tracer.py`); comments and
docstrings do not count."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dchag"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def definitions():
    """(qualified name, name) of each definition the guard covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def name_counts():
    """How often each name occurs as an identifier token or an
    identifier-only string literal in the Python files of the repository."""
    counts = Counter()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    value = tok.string.strip("\"'")
                    if IDENTIFIER.fullmatch(value):
                        counts[value] += 1
    return counts


def test_every_definition_is_named_elsewhere():
    defs = list(definitions())
    defined = Counter(name for _, name in defs)
    counts = name_counts()
    dead = [qual for qual, name in defs if counts[name] <= defined[name]]
    assert dead == []
