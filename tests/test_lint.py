"""Static checks on the library sources, in place of a linter.

Every module under ``src/cgtsim`` is parsed with ``ast``.  Four things fail:
an import the module never uses, a module-level private function that
nothing in the library refers to, a local name a function assigns but never
reads, and a parameter a function never reads.  All four are what deleting
code leaves behind.  Each module must also compile without a warning, such as
the ``SyntaxWarning`` of ``x is 1.0``.
"""

import ast
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cgtsim"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    """Names a module reads, as bare names, attributes or imported names."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unused_imports(tree: ast.Module) -> list[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # a compile-time warning is an error, so tier-1 fails on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_sources_found():
    assert {p.name for p in MODULES} >= {"algorithms.py", "compression.py", "harness.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # the package __init__ imports only to re-export, so it is exempt
    assert _unused_imports(_tree(path)) == []


def test_no_unreferenced_private_functions():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced: set[str] = set()
    for tree in trees.values():
        referenced |= _referenced(tree)
    dead = [f"{name}: {node.name}"
            for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in referenced]
    assert dead == []


def _dead_locals(tree: ast.Module) -> list[str]:
    """Names assigned in a function (or its nested scopes) and never read there.

    An augmented assignment reads its target, and ``_`` is the throwaway name.
    """
    dead = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        dead += [f"{func.name}: {name}" for name in sorted(stored - read - {"_"})]
    return dead


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    assert _dead_locals(_tree(path)) == []


def _unused_params(tree: ast.Module) -> list[str]:
    """Parameters a function's body (nested scopes included) never reads.

    ``self``, ``cls`` and ``_`` are exempt; lambdas are not checked.
    """
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if arg is not None]
        read = {"self", "cls", "_"}
        for node in (n for stmt in func.body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        unused += [f"{func.name}: {name}" for name in params if name not in read]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert _unused_params(_tree(path)) == []
