"""Every name a monocover module imports is used in that module, every
top-level private function or class is used elsewhere in the package, every
parameter of a package function is read, no nested function calls itself,
every function the benchmark tracer wraps exists, and every one it is
excused from wrapping is really gone."""

import ast
import importlib
from pathlib import Path

import monocover

PACKAGE = Path(monocover.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# (module, attribute) pairs the tracer still names although the package
# deleted them; their per-layer metrics read 0 until the tracer is updated
RETIRED_TRACED = {("oracle", "_qualifying_supersets"), ("classify", "_classify_within")}


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


def unread_parameters(source: str) -> list[str]:
    """Parameters, other than self and cls, that their function's body never
    reads. Storing to a parameter is not a read, nor is passing it on in its
    own place to a call of the function itself: a parameter read only that
    way is a leftover every caller still passes for nothing."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = [p.arg for p in (*a.posonlyargs, *a.args)]
        params = positional + [p.arg for p in (*a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
        passed_on = set()  # the Name nodes handed back to fn in their own place
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == fn.name:
                passed_on |= {id(x) for x, p in zip(call.args, positional) if isinstance(x, ast.Name) and x.id == p}
                passed_on |= {id(k.value) for k in call.keywords if isinstance(k.value, ast.Name) and k.value.id == k.arg}
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in passed_on
        }
        found += [f"line {fn.lineno}: {fn.name}({p})" for p in params if p not in ("self", "cls") and p not in read]
    return found


def recursive_closures(source: str) -> list[str]:
    """Functions nested in another function that refer to their own name.
    Such a function and the closure cell holding it form a reference cycle,
    so each call of the enclosing function leaves garbage for the cyclic
    collector; a module-level recursion or an explicit stack leaves none."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = {
        inner
        for outer in ast.walk(tree)
        if isinstance(outer, defs)
        for inner in ast.walk(outer)
        if isinstance(inner, defs) and inner is not outer
    }
    return [
        f"line {fn.lineno}: {fn.name}"
        for fn in sorted(nested, key=lambda fn: fn.lineno)
        if any(isinstance(node, ast.Name) and node.id == fn.name for node in ast.walk(fn))
    ]


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) keys of the TRACED dict in the tracer's source,
    read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no TRACED assignment")


def in_package(mod: str, attr: str) -> bool:
    """Whether monocover.<mod> has a callable named attr."""
    try:
        module = importlib.import_module(f"monocover.{mod}")
    except ModuleNotFoundError:
        return False
    return callable(getattr(module, attr, None))


def missing_traced(traced, retired) -> list[str]:
    """The traced names that are not a callable of the package, other than
    the retired ones. The tracer skips such a name silently, so its metrics
    would read 0."""
    return [f"{mod}.{attr}" for mod, attr in traced if not in_package(mod, attr) and (mod, attr) not in retired]


def live_retired(retired) -> list[str]:
    """The retired names the package still has. Excusing a live function
    would let its later removal pass unnoticed."""
    return [f"{mod}.{attr}" for mod, attr in sorted(retired) if in_package(mod, attr)]


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


def test_every_parameter_is_read():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unread = unread_parameters(path.read_text())
        if unread:
            found[path.name] = unread
    assert not found, found


def test_unread_parameter_check_catches_one():
    source = (
        "def walk(v, fixed, seen):\n"
        "    if v:\n"
        "        return walk(v - 1, fixed, seen | 1)\n"
        "    return seen\n"
        "\n"
        "def swap(a, b):\n"
        "    return swap(b, a) if a else b\n"
        "\n"
        "def again(x, *, k):\n"
        "    x = 0\n"
        "    return again(x=x, k=k + 1)\n"
        "\n"
        "class C:\n"
        "    def method(self, used, unused, *args, key=None, **rest):\n"
        "        return lambda: (used, args)\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        pass\n"
    )
    assert unread_parameters(source) == [
        "line 1: walk(fixed)",
        "line 9: again(x)",
        "line 14: method(unused)",
        "line 14: method(key)",
        "line 14: method(rest)",
    ]


def test_no_recursive_closures():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        closures = recursive_closures(path.read_text())
        if closures:
            found[path.name] = closures
    assert not found, found


def test_recursive_closure_check_catches_one():
    source = (
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "\n"
        "def outer(k):\n"
        "    def helper():\n"
        "        return k\n"
        "    def walk(v):\n"
        "        def deeper(w):\n"
        "            return deeper(w - 1) if w else helper()\n"
        "        return walk(v - 1) if v else deeper(k)\n"
        "    return walk(k)\n"
        "\n"
        "class C:\n"
        "    def method(self):\n"
        "        return self.method()\n"
    )
    assert recursive_closures(source) == ["line 7: walk", "line 8: deeper"]


def test_traced_names_exist():
    assert missing_traced(traced_names(TRACER.read_text()), RETIRED_TRACED) == []
    assert live_retired(RETIRED_TRACED) == []


def test_traced_name_check_catches_one():
    source = (
        "import time\n"
        "TRACED = {\n"
        '    ("graph", "bits"): "graph.bits",\n'
        '    ("graph", "_gone"): "graph.gone",\n'
        '    ("graph", "UNREACHABLE"): "graph.unreachable",\n'
        '    ("nowhere", "f"): "nowhere.f",\n'
        '    ("oracle", "_old"): "oracle.old",\n'
        "}\n"
    )
    traced = traced_names(source)
    assert len(traced) == 5
    assert missing_traced(traced, {("oracle", "_old")}) == ["graph._gone", "graph.UNREACHABLE", "nowhere.f"]
    retired = {("oracle", "_old"), ("graph", "bits"), ("nowhere", "f"), ("graph", "UNREACHABLE")}
    assert live_retired(retired) == ["graph.bits"]
