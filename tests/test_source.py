import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pin2k"


def nodes(test):
    """file:line of every node of the package's syntax trees that passes test."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if test(node)]
    return found


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so correctness checks must raise
    found = nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def imports_dataclasses(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"


def test_no_dataclasses_import_in_package():
    # importing dataclasses (and with it inspect) costs every CLI call more
    # start-up than most commands take to run; value classes derive from
    # pin2k.Record instead
    found = nodes(imports_dataclasses)
    assert not found, found


def unbounded_cache(node):
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "cache" and isinstance(node.value, ast.Name) and node.value.id == "functools"
    if isinstance(node, ast.Call):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "lru_cache":
            return False
        sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
        return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)
    return False


def test_every_cache_is_bounded():
    # functools.cache and lru_cache(maxsize=None) keep every key and result
    # for the life of the process, so memory would grow with the inputs seen
    found = nodes(unbounded_cache)
    assert not found, found


def test_every_module_level_def_has_a_caller():
    # a top-level function or class that nothing in the package names, and
    # that the package does not export, is dead code
    import pin2k

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}

    def names(tree):
        found = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
        return found

    used = sum((names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            # a name used only inside its own definition (recursion) has no caller
            if used[node.name] == names(node)[node.name] and node.name not in pin2k.__all__:
                uncalled.append(f"{module}:{node.lineno} {node.name}")
    assert not uncalled, uncalled



def test_every_method_has_a_caller():
    # a method or property that nothing reads as an attribute is dead code,
    # unless it overrides a base-class method (argparse calls its own error)
    import importlib

    used = set()
    for folder in ("src", "tests", "perfbench"):
        paths = sorted((SRC.parent.parent / folder).rglob("*.py"))
        assert paths, folder
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("pin2k" if path.stem == "__init__" else f"pin2k.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("__") or item.name in used:
                    continue
                if not any(hasattr(base, item.name) for base in bases):
                    uncalled.append(f"{path.name}:{item.lineno} {node.name}.{item.name}")
    assert not uncalled, uncalled
