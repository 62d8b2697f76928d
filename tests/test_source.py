import ast
import os
import subprocess
import sys
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


def test_trusted_constructor_stays_in_ring():
    # RingElem._make binds its arguments unchecked, so only the ring
    # operations may call it; completion, the parser, the CLI and every other
    # layer build elements through the validating constructor
    sites = nodes(lambda node: isinstance(node, ast.Attribute) and node.attr == "_make")
    assert sites, sites
    outside = [site for site in sites if not site.startswith("ring.py:")]
    assert not outside, outside


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
    # unless it overrides a base-class method, which the base class may call
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


def test_only_emit_writes_to_stdout():
    # every answer of the CLI leaves through cli._emit, which prints its text
    # or its JSON: nothing else in cli.py writes to sys.stdout, prints
    # without file=sys.stderr or calls json.dumps
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (emit,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_emit"]
    inside = {id(node) for node in ast.walk(emit)}

    def writes(node):
        if isinstance(node, ast.Attribute):
            return ast.unparse(node.value) == "sys.stdout" and node.attr.startswith("write")
        if not isinstance(node, ast.Call):
            return False
        if ast.unparse(node.func) == "json.dumps":
            return True
        to_stderr = any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords)
        return ast.unparse(node.func) == "print" and not to_stderr

    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree) if id(node) not in inside and writes(node)]
    assert not found, found
    assert any(writes(node) for node in ast.walk(emit))


def test_handlers_return_their_answers():
    # each _cmd_* handler returns its answer, and main alone prints it through
    # _emit and sets the exit code: no handler calls _emit or prints to stdout
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    handlers = [function for function in functions if function.name.startswith("_cmd_")]
    assert len(handlers) == 6, [function.name for function in handlers]

    def calls(function, name):
        return [node for node in ast.walk(function) if isinstance(node, ast.Call) and ast.unparse(node.func) == name]

    printing = [
        f"cli.py:{node.lineno}"
        for function in handlers
        for node in calls(function, "_emit") + calls(function, "print")
        if not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords)
    ]
    assert not printing, printing
    callers = [function.name for function in functions for _ in calls(function, "_emit")]
    assert callers == ["main"], callers


def test_one_refusal_for_every_size_limit():
    # every value over its limit is refused by pin2k._cap, in the caller's
    # words and error class, which names a value past CPython's digit limit
    # by the power of two above it; no layer writes the refusal itself, in
    # these words or without their "is"
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    (cap,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_cap"]
    assert nodes(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_cap") == [f"__init__.py:{cap.lineno}"]
    found = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "over the limit of" in line
    ]
    assert len(found) == 1 and found[0] in [f"__init__.py:{n}" for n in range(cap.lineno, cap.end_lineno + 1)], found


def test_one_reader_for_every_integer_given_as_text():
    # pin2k._int reads every integer given as text and refuses one over
    # CPython's digit limit through _cap; besides it, only main's line for an
    # answer over that limit, which reads no input, names the limit
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    (main,) = [node for node in trees["cli.py"].body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "get_int_max_str_digits"
        if name != "__init__.py" and id(node) not in in_main
    ]
    assert not found, found
    defs = nodes(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_int")
    assert [site.split(":")[0] for site in defs] == ["__init__.py"], defs


def names_a_fraction(node):
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
    return name in ("Fraction", "denominator", "_frac_json")


def test_kappa_reaches_cli_and_bounds_as_an_int():
    # spectra checks once that kappa is an integer and hands out the int, so
    # the CLI and the xi pipeline neither check nor convert a fraction
    found = [site for site in nodes(names_a_fraction) if site.split(":")[0] in ("cli.py", "bounds.py")]
    assert not found, found


def imports_the_package(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "pin2k" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pin2k"


def test_oracles_do_not_import_the_package():
    # a check against an oracle means something only while the oracle shares
    # none of the package's code; random_combination builds package elements
    # as test data for membership and is no oracle
    tree = ast.parse((SRC.parent.parent / "tests" / "oracles.py").read_text(encoding="utf-8"))
    found = [getattr(top, "name", top.lineno) for top in tree.body for node in ast.walk(top) if imports_the_package(node)]
    assert found == ["random_combination"], found


def test_orbifold_route_is_computed():
    # the orbifold upper is orbifold_bound's inequality over the mu-bar column
    # of spectra.FAMILIES, not a stored table
    found = nodes(lambda node: "_ORBIFOLD_UPPER" in (getattr(node, "id", None), getattr(node, "attr", None)))
    assert not found, found


def test_only_domain_errors_are_refusals():
    # main gives exit 2 to a Pin2kError and running out of memory, and to a
    # ValueError only for an answer over the output digit limit, which its
    # Exception arm picks out: no arm names ValueError, so a bare one is
    # internal.  _cap refuses with a Pin2kError unless told otherwise.
    from pin2k import Pin2kError, _cap

    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    tries = [node for node in ast.walk(main) if isinstance(node, ast.Try)]
    arms = [ast.unparse(handler.type) for node in tries for handler in node.handlers]
    assert arms == ["BrokenPipeError", "Pin2kError", "MemoryError", "Exception"], arms
    assert _cap.__defaults__ == (Pin2kError,)


def value_error_refusal(node):
    if isinstance(node, ast.Raise) and node.exc is not None:
        return ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "ValueError"
    return isinstance(node, ast.ClassDef) and any(ast.unparse(base) == "ValueError" for base in node.bases)


def test_no_value_error_refusals():
    # what the package refuses is a Pin2kError, in every layer, and main
    # reports a bare ValueError as a bug: none is raised, and no error class
    # derives from it
    found = nodes(value_error_refusal)
    assert not found, found


def test_only_usage_errors_raise_system_exit():
    # a domain error, PIN2K_KMAX's too, leaves through main's one except as
    # exit code 2; only argparse's usage errors end a call by SystemExit,
    # through _raise_usage
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))

    def exits(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            return ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "SystemExit"
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ("sys.exit", "exit")

    found = [getattr(top, "name", top.lineno) for top in tree.body for node in ast.walk(top) if exits(node)]
    assert found == ["_raise_usage"], found


def test_fields_are_set_in_three_constructors_only():
    # Record.__init__ binds every record's fields; RingElem, which every ring
    # operation builds, sets its own, and its trusted _make binds them through
    # the slot descriptors' __set__, which ring looks up once into module
    # names.  Nothing else writes past the refusal: no other __setattr__ or
    # __set__, and no other use of those module names.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    writers = {
        target.id
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(n, ast.Attribute) and n.attr == "__set__" for n in ast.walk(node.value))
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        writes = isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__set__")
        reads_writer = (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in writers) or (
            isinstance(node, ast.alias) and node.name in writers
        )
        if writes or reads_writer:
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for stem, tree in trees.items():
        for node in tree.body:
            names = [t.id for t in node.targets if isinstance(t, ast.Name)] if isinstance(node, ast.Assign) else []
            visit(node, (stem, *names))
    assert set(found) == {
        "__init__.Record.__init__",
        "ring.RingElem.__init__",
        "ring._set_wcoef",
        "ring._set_poly",
        "ring.RingElem._make",
    }, found


def calls_super_init(function):
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name)
        and node.func.value.func.id == "super"
        for node in ast.walk(function)
    )


def test_record_constructors_end_in_the_shared_one():
    # a record class that checks or coerces its fields does so in its own
    # __init__ and then binds them with Record.__init__
    import importlib

    from pin2k import Record
    from pin2k.ring import RingElem

    checked, bypassing = [], []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("pin2k" if path.stem == "__init__" else f"pin2k.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            if not issubclass(cls, Record) or cls in (Record, RingElem):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    (checked if calls_super_init(item) else bypassing).append(node.name)
    assert not bypassing, bypassing
    assert sorted(checked) == ["IntersectionForm", "SpectrumClass", "SwfSpace", "_Block"]


def test_record_checks_survive_optimize():
    # python -O drops assert statements; the checks in the constructors are
    # raises, so they hold there too
    code = """
import sys
from fractions import Fraction
from pin2k.bounds import IntersectionForm
from pin2k.spectra import GroupSuspension, RepSphere, SpectrumClass, SwfSpace, TorusSuspension
cases = [
    lambda: RepSphere(-1, 0),
    lambda: GroupSuspension(0, -1),
    lambda: TorusSuspension(t=-2),
    lambda: RepSphere(1, 2)._replace(l=-1),
    lambda: IntersectionForm(1, -1),
    lambda: SpectrumClass(SwfSpace(RepSphere()), 0, Fraction(1, 32)),
    lambda: SwfSpace(1),
    lambda: SwfSpace(RepSphere(), [True]),
    lambda: SpectrumClass(RepSphere(0, 1)),
]
print(sys.flags.optimize)
for case in cases:
    try:
        case()
    except Exception as err:
        print(type(err).__name__, err)
    else:
        print("accepted")
"""
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    block = "UnsupportedBlockError suspension pair must be nonnegative"
    assert result.stdout.splitlines() == [
        "1",
        block,
        block,
        block,
        block,
        "BoundsError q must be nonnegative",
        "UnsupportedBlockError n must have denominator dividing 16",
        "UnsupportedBlockError unsupported base block 1",
        "UnsupportedBlockError free cells must be int degrees",
        "UnsupportedBlockError unsupported space RepSphere(t=0, l=1)",
    ]
