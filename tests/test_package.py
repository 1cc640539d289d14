"""Package structure: imports between modules and the exported names."""

import ast
from pathlib import Path

import pytest

# read from the source tree, so that a broken import still reports here
SRC = Path(__file__).resolve().parents[1] / "src" / "zenoscope"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def top_level_names(tree):
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def relative_imports(tree):
    """``(module, name)`` for every ``from .module import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_names_imported_across_modules(module):
    private = [f"{src}.{name}" for src, name in relative_imports(MODULES[module])
               if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imported_names_exist(module):
    missing = [f"{src}.{name}" for src, name in relative_imports(MODULES[module])
               if src is not None and name not in top_level_names(MODULES[src])]
    assert missing == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_all_lists_only_defined_names(module):
    tree = MODULES[module]
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    for names in exported:
        assert sorted(set(names) - top_level_names(tree)) == []
