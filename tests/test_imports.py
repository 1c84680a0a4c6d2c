"""Modules import in one direction: no ``sdidml`` import inside a function.

The only exceptions are the documented re-entries of the bootstrap and the
placebo test into ``pipeline.estimate_effects``; ``pipeline`` imports
``aggregate`` at module level, so these two cannot move to import time.
"""

import ast
from pathlib import Path

import sdidml

RE_ENTRIES = {
    ("aggregate", "bootstrap", "pipeline", "estimate_effects"),
    ("aggregate", "placebo_test", "pipeline", "estimate_effects"),
}


def function_level_imports(path: Path) -> set:
    """(module, enclosing function, imported module, name) for every sdidml
    import that sits inside a function body of the file at ``path``."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{func}.{child.name}" if func else child.name)
                continue
            if func and isinstance(child, ast.ImportFrom) and (
                    child.level or child.module.split(".")[0] == "sdidml"):
                module = (child.module or "").removeprefix("sdidml.")
                found.update((path.stem, func, module, a.name) for a in child.names)
            elif func and isinstance(child, ast.Import):
                found.update((path.stem, func, a.name, None) for a in child.names
                             if a.name.split(".")[0] == "sdidml")
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_function_level_imports_but_the_documented_re_entries():
    found = set()
    for path in sorted(Path(sdidml.__file__).parent.glob("*.py")):
        found |= function_level_imports(path)
    assert found == RE_ENTRIES
