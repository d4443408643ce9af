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
