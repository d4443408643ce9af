"""The names the program imports only for the benchmark tracer are the ones it wraps.

A ``# noqa: F401`` import in ``src/grc`` binds a name that the module never
calls, so that ``perfbench/tracing.py`` can wrap it there.  Each such
``(module, name)`` must be an entry of ``tracing.WRAPPED``; a hook no entry
reads fails here and can be deleted.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks() -> set[tuple[str, str]]:
    out = set()
    for path in sorted((ROOT / "src" / "grc").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                out.update((path.stem, alias.asname or alias.name) for alias in node.names)
    return out


def test_every_hook_is_wrapped():
    hooks = _hooks()
    assert hooks, "no tracer hooks found; the scan is broken"
    wrapped = {(module, attr) for module, attr, _, _ in _tracing().WRAPPED}
    assert sorted(hooks - wrapped) == []


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every bare name and every attribute name the tree reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_import_and_private_definition_is_used():
    """Outside ``__init__.py`` every imported name is read in its module
    (a ``# noqa: F401`` line is a tracer hook, checked above), and every
    module-level ``_private`` function, class or constant is read somewhere in the package."""
    modules = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "grc").glob("*.py")) if path.stem != "__init__"}
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    package_reads = set().union(*map(_loaded_names, trees.values()))
    unused, unread = [], []
    for stem, tree in trees.items():
        lines, reads = modules[stem].splitlines(), _loaded_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" not in lines[node.end_lineno - 1]):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in reads:
                        unused.append((stem, name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(stem, name) for name in names
                       if name.startswith("_") and name not in package_reads]
    assert (unused, unread) == ([], [])
