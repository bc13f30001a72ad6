"""Every name a monocover module imports is used in that module, and every
top-level private function or class is used elsewhere in the package."""

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


def dead_private(sources: dict[str, str]) -> list[str]:
    """Top-level private functions and classes of the given modules (name to
    source) that no other top-level statement of any of them refers to."""
    statements = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    used_by = [
        {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        for _, stmt in statements
    ]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") and not name.startswith("__"):
            if not any(name in used for j, used in enumerate(used_by) if j != i):
                dead.append(f"{module}: {name}")
    return dead


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


def test_no_dead_private_code():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private(sources) == []


def test_dead_private_check_catches_one():
    a = "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n"
    b = "from .a import _used\n_used()\n"
    assert dead_private({"a.py": a, "b.py": b}) == ["a.py: _dead", "a.py: _Gone"]
    assert dead_private({"a.py": a, "c.py": "import a\na._dead\na._Gone()\n"}) == ["a.py: _used"]
