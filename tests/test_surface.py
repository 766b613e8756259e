"""The library holds what lawcat runs.

Every top-level function and class in `src/lawcat`, and every method
other than a dunder, is used somewhere else in `src/lawcat` (a method
through an attribute read, `.name`, so that a variable of the same name
does not count), or it is
library API for a named result of the source
paper (Clementino-Hofmann, Lawvere completeness in topology): then it is
listed in PAPER_API, and its docstring names that result.  Oracles,
fixtures and law checks that only the tests call live in `tests/`.
"""

import ast
import importlib
import pathlib

import lawcat

SRC = pathlib.Path(lawcat.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# (module, name, the paper result its docstring names)
PAPER_API = ()


def _used_names(node):
    """Names a statement reads, as variables or attributes; imports do not count."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _read_attributes(node):
    """Attribute names a statement reads, as in `obj.name`."""
    return {
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(module, qualified name, the name sets of the statements that may use it).

    A top-level function or class may be used, by name or as an
    attribute, by any other top-level statement; a method other than a
    dunder only through an attribute read, by any other top-level
    statement or member of its class.
    """
    modules = [(path.stem, ast.parse(path.read_text()).body) for path in sorted(SRC.glob("*.py"))]
    statements = [node for _, body in modules for node in body]
    uses = {node: _used_names(node) for node in statements}
    reads = {node: _read_attributes(node) for node in statements}
    for module, body in modules:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield module, node.name, [uses[other] for other in statements if other is not node]
            if isinstance(node, ast.ClassDef):
                others = [reads[other] for other in statements if other is not node]
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                        siblings = [_read_attributes(other) for other in node.body if other is not member]
                        yield module, f"{node.name}.{member.name}", others + siblings


def test_every_definition_is_used_in_the_library_or_is_paper_api():
    listed = {(module, name) for module, name, _ in PAPER_API}
    unused = [
        f"{module}.{qualname}"
        for module, qualname, others in _definitions()
        if (module, qualname) not in listed
        and not any(qualname.rsplit(".", 1)[-1] in names for names in others)
    ]
    assert unused == []


def test_methods_are_covered():
    # the scan reaches methods: a known one is found, dunders are not
    names = {(module, qualname) for module, qualname, _ in _definitions()}
    assert ("completeness", "AdjointPair.key") in names
    assert ("completeness", "AdjointPair.__repr__") not in names


def test_paper_api_docstrings_name_their_result():
    for module, name, result in PAPER_API:
        obj = importlib.import_module(f"lawcat.{module}")
        for part in name.split("."):
            obj = getattr(obj, part)
        assert result and result in (obj.__doc__ or ""), f"{module}.{name}"


def _tracer_functions():
    """perfbench/tracer.FUNCTIONS, read from the source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no FUNCTIONS")


def test_traced_functions_resolve_in_the_library():
    # a plain name is a module attribute; "Class.method" or "*.method" needs
    # some class of the module (or that class) to define the method itself,
    # as the tracer patches it
    missing = []
    for module_name, dotted in _tracer_functions():
        module = importlib.import_module(f"lawcat.{module_name}")
        if "." not in dotted:
            found = hasattr(module, dotted)
        else:
            cls_name, method = dotted.split(".")
            found = any(
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and cls_name in ("*", cls.__name__)
                and method in vars(cls)
                for cls in vars(module).values()
            )
        if not found:
            missing.append(f"{module_name}.{dotted}")
    assert missing == []
