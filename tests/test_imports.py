"""Modules import in one direction.

No ``sdidml`` import sits inside a function, and every module-level import
of a sibling module goes to a lower layer of ``LAYERS``.
"""

import ast
from pathlib import Path

import sdidml

LAYERS = ("errors", "panel", "learners", "crossfit", "didcore", "aggregate",
          "pipeline", "simulate", "cli")
# (module, name) pairs imported from the package itself rather than a layer.
PACKAGE_IMPORTS = {("cli", "__version__")}
RE_ENTRIES = set()


def package_files() -> list:
    return sorted(Path(sdidml.__file__).parent.glob("*.py"))


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


def module_level_imports(path: Path) -> set:
    """(module, imported sibling) for every module-level sdidml import in the
    file at ``path``; ``from . import learners`` imports ``learners``."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "sdidml"):
            module = (node.module or "").removeprefix("sdidml").lstrip(".")
            if module:
                found.add((path.stem, module))
            else:
                found.update((path.stem, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            found.update((path.stem, a.name.removeprefix("sdidml.")) for a in node.names
                         if a.name.startswith("sdidml."))
    return found


def test_no_function_level_imports_but_the_documented_re_entries():
    found = set()
    for path in package_files():
        found |= function_level_imports(path)
    assert found == RE_ENTRIES


def test_module_level_imports_go_to_lower_layers():
    modules = {path.stem for path in package_files()} - {"__init__"}
    assert modules == set(LAYERS)
    upward = []
    for path in package_files():
        if path.stem == "__init__":
            continue
        for module, target in module_level_imports(path) - PACKAGE_IMPORTS:
            if LAYERS.index(target) >= LAYERS.index(module):
                upward.append((module, target))
    assert upward == []
