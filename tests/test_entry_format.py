"""One module spells the matrix entry format `m[r,c] = v`: `fileio`, which
reads it (`_parse_matrix_lines`) and writes it (`matrix_lines`), and what it
writes reads back."""

import ast
import os
import pathlib

import pytest

import lawcat
from lawcat.fileio import load_file, matrix_lines, parse_category_text
from lawcat.monad import builtin_monad
from lawcat.tvcat import all_tvcategories

SRC = pathlib.Path(lawcat.__file__).parent
DATA = os.path.join(os.path.dirname(__file__), "data")


def entry_format_literals(source):
    """The string constants of a module, f-string literal parts included,
    that start with `m[`."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("m[")
    ]


def test_entry_format_is_spelled_only_in_fileio():
    spelled = {
        path.stem: entry_format_literals(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "fileio"
    }
    assert {module: found for module, found in spelled.items() if found} == {}
    assert entry_format_literals((SRC / "fileio.py").read_text())


def _written(name, monad, labels, matrix):
    """A category file as the writer spells it: header, labels, entries."""
    over = f"over {matrix.q.name}" + ("" if monad.name == "id" else f" monad {monad.name}")
    lines = [f"{'vcat' if monad.name == 'id' else 'tvcat'} {name} {over}"]
    lines.append("elements: " + " ".join(labels))
    lines += matrix_lines(matrix, monad.labels(len(labels), labels), labels)
    return "\n".join(lines) + "\n"


def _round_trip(name, monad, labels, matrix):
    parsed = parse_category_text(_written(name, monad, labels, matrix))
    q, n, again = parsed.resolve()
    assert (q, n, parsed.labels) == (matrix.q, len(labels), tuple(labels))
    assert again == matrix


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DATA) if f.endswith("cat")))
def test_entry_writer_round_trips_the_data_files(name):
    _, parsed = load_file(os.path.join(DATA, name))
    _, _, matrix = parsed.resolve()
    _round_trip(parsed.name, builtin_monad(parsed.monad_name), parsed.labels, matrix)


@pytest.mark.parametrize("mname, qname", [("id", "c3"), ("ultra", "2"), ("powerset", "2")])
def test_entry_writer_round_trips_every_small_structure(ext_factory, mname, qname):
    ext = ext_factory(mname, qname)
    count = 0
    for n in range(3):
        for cat in all_tvcategories(ext, n):
            _round_trip("s", ext.monad, "xy"[:n], cat.a)
            count += 1
    assert count > 3
