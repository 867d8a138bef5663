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


def runtime_imports(tree: ast.Module) -> set[str]:
    """The modules a `phl` module imports when it runs, relative imports read
    as `phl.` ones; imports under `if TYPE_CHECKING:` are left out."""
    typing_only = {id(n) for node in ast.walk(tree) if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "TYPE_CHECKING"
                   for stmt in node.body for n in ast.walk(stmt)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            out.update([f"phl.{node.module}"] if node.module else
                       [f"phl.{alias.name}" for alias in node.names])
    return out


def test_detects_runtime_imports():
    src = ("import os.path\nfrom typing import TYPE_CHECKING\n"
           "from .syntax import Term\nif TYPE_CHECKING:\n"
           "    from .kernel import Derivation\n"
           "def f():\n    from . import prover, semantics as sm\n")
    assert runtime_imports(ast.parse(src)) == \
        {"os.path", "typing", "phl.syntax", "phl.prover", "phl.semantics"}


def test_kernel_stands_apart_from_the_engines():
    """The derivation checker loads nothing but the standard library and
    `phl.syntax`, and the decision procedure does not load the checker."""
    kernel = runtime_imports(parsed(SRC / "kernel.py"))
    assert {m for m in kernel
            if m.split(".")[0] not in sys.stdlib_module_names} == {"phl.syntax"}
    assert "phl.kernel" not in runtime_imports(parsed(SRC / "prover.py"))


def test_freemodel_does_not_load_translation():
    """Free algebras live beside `pht_of` in `phl.translation`, which builds
    on `phl.freemodel`; the saturation engine imports nothing back, not even
    inside a function."""
    assert "phl.translation" not in runtime_imports(parsed(SRC / "freemodel.py"))


# `phl.cli` imports each engine module inside the subcommand that runs it, so
# that a fresh `phl` process compiles and loads only those
CLI_BASE = {"phl", "phl.cli", "phl.syntax"}


@pytest.mark.parametrize("argv, engines", [
    (None, set()),
    (["fmt", "data/mon.phl"], set()),
    (["check", "data/pos.phl", "data/chain2.model"], {"phl.semantics"}),
    (["prove", "data/mon.phl", "[x:*] true |- mul(x,x) = x", "-k", "2"],
     {"phl.semantics", "phl.freemodel", "phl.prover"}),
    (["prove", "data/mon.phl", "[x:*] true |- mul(x,e) = x", "--elaborate"],
     {"phl.semantics", "phl.freemodel", "phl.prover", "phl.kernel"}),
], ids=["import", "fmt", "check", "prove", "prove-elaborate"])
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


def phl_references(tree: ast.Module) -> set[tuple[str, tuple[str, ...]]]:
    """(module, names) for each thing of `phl` a file reads: every module an
    `import phl…` loads, every name a `from phl… import` takes, and every
    attribute chain read off a name bound by either, such as
    `semantics._models_cached.cache_clear` after `from phl import
    semantics`."""
    bound: dict[str, tuple[str, tuple[str, ...]]] = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "phl":
                    refs.add((alias.name, ()))
                    bound[alias.asname or "phl"] = \
                        (alias.name if alias.asname else "phl", ())
        elif isinstance(node, ast.ImportFrom) and not node.level and \
                node.module.split(".")[0] == "phl":
            for alias in node.names:
                refs.add((node.module, (alias.name,)))
                bound[alias.asname or alias.name] = \
                    (node.module, (alias.name,))
    inner = {id(n.value) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            module, names = bound[root.id]
            refs.add((module, names + tuple(reversed(chain))))
    return refs


def resolves(module: str, names: tuple[str, ...]) -> bool:
    """Whether `module` imports and `names` is an attribute chain on it; a
    name that is a submodule not loaded yet is imported."""
    try:
        obj = importlib.import_module(module)
        for name in names:
            if not hasattr(obj, name) and hasattr(obj, "__path__"):
                importlib.import_module(f"{obj.__name__}.{name}")
            obj = getattr(obj, name)
    except (ImportError, AttributeError):
        return False
    return True


def test_detects_unresolved_phl_references():
    src = ("import os.path\nimport phl.cli\nfrom phl import semantics as sm\n"
           "from phl.syntax import parse_theory, nope\n"
           "sm.x\nphl.cli.main\nsm._models_cached.cache_clear()\n"
           "sm.gone.cache_clear\n"
           "parse_theory.__name__\nos.path.join\n")
    refs = phl_references(ast.parse(src))
    assert refs == {
        ("phl.cli", ()), ("phl", ("cli", "main")),
        ("phl", ("semantics",)), ("phl", ("semantics", "x")),
        ("phl", ("semantics", "_models_cached", "cache_clear")),
        ("phl", ("semantics", "gone", "cache_clear")),
        ("phl.syntax", ("parse_theory",)), ("phl.syntax", ("nope",)),
        ("phl.syntax", ("parse_theory", "__name__")),
    }
    assert sorted(r for r in refs if not resolves(*r)) == [
        ("phl", ("semantics", "gone", "cache_clear")),
        ("phl", ("semantics", "x")), ("phl.syntax", ("nope",))]


@pytest.mark.parametrize("path", sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: p.name)
def test_perfbench_reads_only_what_phl_has(path):
    """The benchmark reads `phl` private names too (the `enumerate_models`
    cache it clears between rounds); a rename must fail here, not at run
    time."""
    refs = phl_references(ast.parse(path.read_text()))
    assert sorted(r for r in refs if not resolves(*r)) == []
