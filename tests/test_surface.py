"""The library holds what lawcat runs.

Every top-level function and class in `src/lawcat` is used somewhere else
in `src/lawcat`, or it is library API for a named result of the source
paper (Clementino-Hofmann, Lawvere completeness in topology): then it is
listed in PAPER_API, and its docstring names that result.  Oracles,
fixtures and law checks that only the tests call live in `tests/`.
"""

import ast
import importlib
import pathlib

import lawcat

SRC = pathlib.Path(lawcat.__file__).parent

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


def test_every_definition_is_used_in_the_library_or_is_paper_api():
    statements = []
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, node))
    uses = [(node, _used_names(node)) for node in statements]
    listed = {(module, name) for module, name, _ in PAPER_API}
    unused = [
        f"{module}.{node.name}"
        for module, node in definitions
        if (module, node.name) not in listed
        and not any(node.name in names for other, names in uses if other is not node)
    ]
    assert unused == []


def test_paper_api_docstrings_name_their_result():
    for module, name, result in PAPER_API:
        obj = getattr(importlib.import_module(f"lawcat.{module}"), name)
        assert result and result in (obj.__doc__ or ""), f"{module}.{name}"
