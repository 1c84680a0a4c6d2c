"""Modules import in one direction, and only what they use.

No ``sdidml`` import sits inside a function, and every module-level import
of a sibling module goes to a lower layer of ``LAYERS``. Every name that a
package or test module imports is read in that module, and every function,
method and class the package defines, and every name a module-level
assignment binds, is named somewhere else in it or exported. The package
runs on numpy and the standard library alone: those are the only imports
it makes, numpy is the only dependency ``pyproject.toml`` declares, and
importing the package or its command line loads no ``scipy`` module,
whose import time every command would pay. scipy is a test dependency,
for reference values. A stage function takes the settings it uses in one
:class:`PipelineConfig`, never as parameters of its own.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdidml
from sdidml.config import PipelineConfig

LAYERS = ("errors", "panel", "learners", "config", "crossfit", "didcore", "aggregate",
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


def unread_imports(path: Path) -> list:
    """Names bound by an import in the file at ``path`` that the file never
    reads; a string listed in ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - read)


def test_every_imported_name_is_read():
    # The package __init__ imports to re-export: its __all__ is every
    # public name in it.
    files = [path for path in package_files() if path.stem != "__init__"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    unread = {f"{path.parent.name}/{path.name}": names
              for path in files if (names := unread_imports(path))}
    assert unread == {}


def definitions(tree: ast.Module):
    """(name, line) of every function, method and class in ``tree``, and of
    every name a module-level assignment binds (key tables, constants)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def unused_definitions() -> list:
    """Functions, methods, classes and module-level assigned names of the
    package (dunders excluded) that no other line of the package names and
    that the package does not export."""
    lines = [(path, i, line) for path in package_files()
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)]
    unused = []
    for path in package_files():
        for name, lineno in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if (name.startswith("__") and name.endswith("__")) or name in sdidml.__all__:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != (path, lineno)):
                unused.append(f"{path.stem}.{name}")
    return sorted(unused)


def test_every_definition_is_used_or_exported():
    assert unused_definitions() == []


def test_import_loads_no_scipy():
    code = ("import sys, sdidml, sdidml.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(sdidml.__file__).parent.parent)
    assert out.stdout.strip() == "[]"


def third_party_imports() -> set:
    """Top-level names of the modules that the package's files import from
    outside the package and the standard library."""
    found = set()
    for path in package_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"sdidml"}


def requirement_names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(sdidml.__file__).parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("the package is not imported from a source checkout")
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert third_party_imports() == requirement_names(project["dependencies"]) == {"numpy"}
    extras = {name: requirement_names(reqs)
              for name, reqs in project["optional-dependencies"].items()}
    assert [name for name, reqs in extras.items() if "scipy" in reqs] == ["test"]


STAGE_MODULES = ("crossfit", "didcore", "aggregate", "pipeline")
# assign_folds deals a given fold count by a given seed: a full-mode
# bootstrap replicate deals its folds with seed + r.
SETTING_PARAMETERS_KEPT = {"crossfit.assign_folds": {"n_folds", "seed"}}


def test_stage_functions_take_their_settings_in_the_config():
    settings = {f.name for f in dataclasses.fields(PipelineConfig)} | {"shift"}
    found = {}
    for layer in STAGE_MODULES:
        module = importlib.import_module(f"sdidml.{layer}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            qualname = f"{layer}.{name}"
            params = (set(inspect.signature(obj).parameters) & settings
                      - SETTING_PARAMETERS_KEPT.get(qualname, set()))
            if params:
                found[qualname] = sorted(params)
    assert found == {}
