"""Every top-level function and class, and every method other than a
dunder, defined in `src/dchag` is named somewhere in the code of `src/`,
`tests/` or `bench/` besides its own definition.  A name counts where it
appears as an identifier, or as a string literal that is exactly the name
(as in the `getattr`-style patch lists of `bench/tracer.py`); comments and
docstrings do not count.

Every dataclass field, and every attribute a method of `src/dchag` assigns
on `self`, is read somewhere in the same code.  A read is an attribute load
or a string literal that is exactly the name; an assignment, and a keyword
argument to a constructor, is a write.

Every parameter of a function or lambda of `src/dchag`, other than `self`,
is loaded in its body.

Every name a module of `src/dchag` assigns at its top level, other than a
dunder, is read somewhere in the same code: loaded as a name or an
attribute, or named by an identifier-only string literal."""

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


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(func, ast.Name) and func.id == "dataclass"


def state_definitions():
    """(qualified name, name) of each dataclass field and each attribute a
    method assigns on `self`, per class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            if any(_is_dataclass(d) for d in cls.decorator_list):
                names |= {item.target.id for item in cls.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)}
            names |= {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"}
            for name in sorted(names):
                yield f"{path.stem}.{cls.name}.{name}", name


def attribute_reads():
    """How often each name is loaded as an attribute, or appears as an
    identifier-only string literal, in the Python files of the repository."""
    reads = Counter()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads[node.attr] += 1
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and IDENTIFIER.fullmatch(node.value)):
                    reads[node.value] += 1
    return reads


def test_every_field_and_attribute_is_read():
    reads = attribute_reads()
    assert [qual for qual, name in state_definitions() if not reads[name]] == []


def unread_parameters():
    """(qualified name, parameter) of each parameter, other than `self`, of
    a function or lambda of the package that its body never loads."""
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and p.arg != "self"]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {node.id for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", f"<lambda>:{fn.lineno}")
            yield from (f"{path.stem}.{name}.{p}" for p in params if p not in loaded)


def test_every_parameter_is_read():
    assert list(unread_parameters()) == []


def module_constants():
    """(qualified name, name) of each name a module of the package assigns
    at its top level, dunders exempt."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not (name.id.startswith("__") and name.id.endswith("__"))):
                        yield f"{path.stem}.{name.id}", name.id


def test_every_module_constant_is_read():
    reads = attribute_reads()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            reads.update(node.id for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    assert [qual for qual, name in module_constants() if not reads[name]] == []
