"""Static checks on the package source, run as tests since the project has
no separate lint step."""
import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the files whose references keep a private helper alive
CALLERS = sorted(p for d in ("src/phl", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detects_unused_import():
    src = "import itertools\nimport os.path\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(src) == ["line 1: itertools", "line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions and classes whose names start with one `_`."""
    return {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n.name.startswith("_") and not n.name.startswith("__")}


def names_read(nodes) -> set[str]:
    """Identifiers read by the given nodes and their descendants: plain names,
    attributes, imported names and string literals (as in `setattr`)."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out.update(alias.name for alias in n.names)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.add(n.value)
    return out


@functools.cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) for each method of the module's classes, dunder
    methods aside."""
    return [(c.name, m.name) for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) for m in c.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def unreferenced_definitions(module: Path, callers) -> list[str]:
    """Private top-level definitions of `module` read neither by the rest of
    the module nor by another caller file, where a definition read only by
    its own body counts as unread; and `Class.method` for each method of
    the module whose name no caller file, the module included, reads."""
    tree = parsed(module)
    defs = private_definitions(tree)
    read = names_read(n for n in tree.body if n not in defs.values())
    for path in callers:
        if path != module:
            read |= names_read([parsed(path)])
    dead = [name for name, node in defs.items() if name not in read
            and name not in names_read(d for d in defs.values()
                                       if d is not node)]
    read |= names_read([tree])
    dead += [f"{cls}.{name}" for cls, name in methods(tree)
             if name not in read]
    return sorted(dead)


def test_detects_unreferenced_private(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def _dead():\n    return _dead()\n"
                      "def _used():\n    pass\n"
                      "def _imported():\n    pass\n"
                      "class _Attr:\n    pass\n"
                      "class Box:\n"
                      "    def __init__(self):\n        self.opened()\n"
                      "    def opened(self):\n        pass\n"
                      "    def unread(self):\n        pass\n"
                      "    @property\n    def size(self):\n        pass\n"
                      "def public():\n    return _used()\n")
    caller = tmp_path / "c.py"
    caller.write_text("from m import _imported\nimport m\nm._Attr\n"
                      "m.Box().size\n")
    assert unreferenced_definitions(module, [module, caller]) == \
        ["Box.unread", "_dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_definitions(path):
    assert unreferenced_definitions(path, CALLERS) == []


# `phl.cli` imports each engine module inside the subcommand that runs it, so
# that a fresh `phl` process compiles and loads only those
CLI_BASE = {"phl", "phl.cli", "phl.syntax"}


@pytest.mark.parametrize("argv, engines", [
    (None, set()),
    (["fmt", "data/mon.phl"], set()),
    (["check", "data/pos.phl", "data/chain2.model"], {"phl.semantics"}),
    (["prove", "data/mon.phl", "[x:*] true |- mul(x,x) = x", "-k", "2"],
     {"phl.semantics", "phl.freemodel", "phl.prover"}),
], ids=["import", "fmt", "check", "prove"])
def test_cli_loads_only_the_engine_it_runs(argv, engines):
    code = ("import contextlib, io, json, sys\n"
            "import phl.cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        phl.cli.main(argv)\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'phl']))\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert set(json.loads(out.stdout)) == CLI_BASE | engines


def wrapped_names() -> dict[str, tuple[str, ...]]:
    """The `WRAPPED` table of perfbench/tracing.py, read from its source: the
    functions of each `phl` module that a traced benchmark run wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no WRAPPED table")


@pytest.mark.parametrize("layer, names", sorted(wrapped_names().items()))
def test_traced_functions_exist(layer, names):
    module = importlib.import_module(f"phl.{layer}")
    assert [n for n in names if not callable(getattr(module, n, None))] == []
