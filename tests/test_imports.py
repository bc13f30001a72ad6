"""Every name a monocover module imports is used in that module."""

import ast
from pathlib import Path

import monocover

PACKAGE = Path(monocover.__file__).resolve().parent


def unused_imports(source: str, is_init: bool) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if is_init:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unused = unused_imports(path.read_text(), path.name == "__init__.py")
        if unused:
            found[path.name] = unused
    assert not found, found


def test_unused_import_check_catches_one():
    assert unused_imports("from .graph import bits, mask_of\nbits(3)\n", False) == ["line 1: mask_of"]
    assert unused_imports("import os.path\nos.sep\n", False) == []
    init = 'from .graph import bits, mask_of\n__all__ = ["bits"]\n'
    assert unused_imports(init, True) == ["line 1: mask_of"]
