"""Which error a malformed file raises: the line and message of its first
fault, for each of the five file kinds; and a definition given twice with
different values is one."""

import os
import re

import pytest

from lawcat.cli import main
from lawcat.errors import ParseError
from lawcat.fileio import (
    parse_category_text,
    parse_quantale_text,
    parse_quniform_text,
    parse_space_text,
)

READERS = {
    "quantale": parse_quantale_text,
    "category": parse_category_text,
    "space": parse_space_text,
    "quniform": parse_quniform_text,
}

QTENSOR = "tensor: a*a=a a*b=a b*b=b\n"
QHEAD = "quantale x\nelements: a b\norder: a<=b\n"

# (id, reader, text of the file `f`, other files in its directory)
MALFORMED = [
    ("q-empty", "quantale", "", {}),
    ("q-comment-only", "quantale", "# nothing\n\n", {}),
    ("q-header-one-word", "quantale", "quantale\n", {}),
    ("q-header-late", "quantale", "# c\n\nquantale x y\n", {}),
    ("q-header-kind", "quantale", "vcat x over 2\n", {}),
    ("q-no-elements", "quantale", "quantale x\nunit: a\n" + QTENSOR, {}),
    ("q-no-unit", "quantale", "quantale x\nelements: a b\n" + QTENSOR, {}),
    ("q-duplicate-labels", "quantale", "quantale x\nelements: a a\nunit: a\n", {}),
    ("q-reserved-label", "quantale", "quantale x\nelements: a b=c\nunit: a\n", {}),
    ("q-unrecognized", "quantale", QHEAD + "unit: b\nfoo: bar\n" + QTENSOR, {}),
    ("q-bad-order", "quantale", "quantale x\nelements: a b\norder: a<b\nunit: b\n" + QTENSOR, {}),
    ("q-bad-tensor", "quantale", QHEAD + "unit: b\ntensor: a*a\n", {}),
    ("q-bad-tensor-no-star", "quantale", QHEAD + "unit: b\ntensor: aa=a\n", {}),
    ("q-undefined-order", "quantale", "quantale x\nelements: a b\norder: a<=zz\nunit: b\n" + QTENSOR, {}),
    ("q-undefined-tensor", "quantale", QHEAD + "unit: b\ntensor: a*a=a a*b=zz b*b=b\n", {}),
    ("q-undefined-unit", "quantale", QHEAD + "unit: zz\n" + QTENSOR, {}),
    ("q-missing-tensor", "quantale", QHEAD + "unit: b\ntensor: a*a=a\n", {}),
    ("q-conflicting-tensor", "quantale", QHEAD + "unit: b\ntensor: a*a=a a*b=a b*a=b b*b=b\n", {}),
    ("q-two-bad-tensor-then-unrecognized", "quantale",
     QHEAD + "unit: b\ntensor: a*a\nfoo\n", {}),
    ("q-two-unrecognized-then-bad-order", "quantale",
     "quantale x\nelements: a b\nfoo\norder: a<b\n", {}),
    ("q-two-undefined-then-unrecognized", "quantale",
     "quantale x\nelements: a b\norder: a<=zz\nunit: b\nfoo\n" + QTENSOR, {}),
    ("q-two-bad-order-then-duplicate", "quantale",
     "quantale x\nelements: a b\norder: a<b\nelements: a a\n", {}),
    ("q-two-undefined-order-lines", "quantale",
     "quantale x\nelements: a b\norder: a<=b\norder: b<=zz\norder: yy<=a\nunit: b\n" + QTENSOR, {}),
    ("c-empty", "category", "", {}),
    ("c-vcat-header", "category", "vcat c over\nelements: a\n", {}),
    ("c-vcat-header-late", "category", "# c\nvcat c on 2\nelements: a\n", {}),
    ("c-tvcat-header", "category", "tvcat c over 2 monad\nelements: a\n", {}),
    ("c-unknown-monad", "category", "tvcat c over 2 monad foo\nelements: a\n", {}),
    ("c-unknown-header", "category", "cat c over 2\nelements: a\n", {}),
    ("c-no-elements", "category", "vcat c over 2\nm[a,a] = 1\n", {}),
    ("c-duplicate-labels", "category", "vcat c over 2\nelements: a a\n", {}),
    ("c-reserved-label", "category", "vcat c over 2\nelements: a{ b\n", {}),
    ("c-unrecognized", "category", "vcat c over 2\nelements: a\nfoo\n", {}),
    ("c-no-bracket", "category", "vcat c over 2\nelements: a\nm[a,a = 1\n", {}),
    ("c-one-label", "category", "vcat c over 2\nelements: a\nm[a] = 1\n", {}),
    ("c-no-equals", "category", "vcat c over 2\nelements: a\nm[a,a] 1\n", {}),
    ("c-undefined-row", "category", "vcat c over 2\nelements: a\nm[zz,a] = 1\n", {}),
    ("c-undefined-column", "category", "vcat c over 2\nelements: a\nm[a,zz] = 1\n", {}),
    ("c-undefined-value", "category", "vcat c over 2\nelements: a\nm[a,a] = 7\n", {}),
    ("c-powerset-row", "category", "tvcat c over 2 monad powerset\nelements: a b\nm[a,a] = 1\n", {}),
    ("c-unknown-quantale", "category", "vcat c over nosuch\nelements: a\nm[a,a] = 1\n", {}),
    ("c-two-entries", "category",
     "vcat c over 2\nelements: a b\nm[a,a] = 1\nm[a,zz] = 1\nm[zz,a] = 1\n", {}),
    ("c-two-entry-then-duplicate", "category", "vcat c over 2\nfoo\nelements: a a\n", {}),
    ("c-two-quantale-then-entry", "category", "vcat c over nosuch\nelements: a\nfoo\n", {}),
    ("c-sibling-bad-tensor", "category", "vcat c over bq\nelements: a\nm[a,a] = b\n",
     {"bq.quantale": b"quantale bq\nelements: a b\norder: a<=b\nunit: b\ntensor: a*a=a a*b=zz b*b=b\n"}),
    ("c-sibling-invalid", "category", "vcat c over bq\nelements: a\nm[a,a] = b\n",
     {"bq.quantale": b"quantale bq\nelements: a b\norder: a<=b\nunit: a\ntensor: a*a=a a*b=a b*b=b\n"}),
    ("c-sibling-not-utf8", "category", "vcat c over bq\nelements: a\nm[a,a] = b\n",
     {"bq.quantale": b"quantale bq\n\nelements: a \xff\n"}),
    ("c-sibling-then-entry", "category", "vcat c over bq\nelements: a\nm[a,zz] = b\n",
     {"bq.quantale": b"quantale bq\nelements: a b\norder: a<=b\nunit: b\ntensor: a*a=a a*b=a b*b=b\n"}),
    ("s-empty", "space", "", {}),
    ("s-header", "space", "space\nelements: a\n", {}),
    ("s-header-kind", "space", "quniform s\nelements: a\n", {}),
    ("s-no-elements", "space", "space s\norder: a<=b\n", {}),
    ("s-duplicate-labels", "space", "space s\nelements: a b a\n", {}),
    ("s-reserved-label", "space", "space s\nelements: a,b\n", {}),
    ("s-unrecognized", "space", "space s\nelements: a b\nrel: a->b\n", {}),
    ("s-bad-order", "space", "space s\nelements: a b\norder: a<b\n", {}),
    ("s-undefined", "space", "space s\nelements: a\norder: a<=b\n", {}),
    ("s-two-undefined-then-unrecognized", "space", "space s\nelements: a\norder: a<=b\nfoo\n", {}),
    ("s-two-bad-order-then-unrecognized", "space", "space s\nelements: a\norder: ab\nfoo\n", {}),
    ("u-empty", "quniform", "", {}),
    ("u-header", "quniform", "quniform u v\nelements: a\n", {}),
    ("u-no-elements", "quniform", "quniform u\nrel: a->a\n", {}),
    ("u-no-rel", "quniform", "quniform u\nelements: a\n", {}),
    ("u-duplicate-labels", "quniform", "quniform u\nelements: a a\nrel: a->a\n", {}),
    ("u-reserved-label", "quniform", "quniform u\nelements: a]\nrel: a->a\n", {}),
    ("u-unrecognized", "quniform", "quniform u\nelements: a\nrel: a->a\norder: a<=a\n", {}),
    ("u-bad-pair", "quniform", "quniform u\nelements: a\nrel: a=>a\n", {}),
    ("u-undefined", "quniform", "quniform u\nelements: a\nrel: a->b\n", {}),
    ("u-two-bad-pair-then-unrecognized", "quniform", "quniform u\nelements: a\nrel: a=>a\nfoo\n", {}),
    ("u-two-undefined-then-bad-pair", "quniform", "quniform u\nelements: a\nrel: a->b\nrel: a=>a\n", {}),
]

# (file, line, message) of the error each malformed file raises
EXPECTED = {
    'q-empty': ('f', 1, 'empty quantale file'),
    'q-comment-only': ('f', 1, 'empty quantale file'),
    'q-header-one-word': ('f', 1, "expected header 'quantale <name>'"),
    'q-header-late': ('f', 3, "expected header 'quantale <name>'"),
    'q-header-kind': ('f', 1, "expected header 'quantale <name>'"),
    'q-no-elements': ('f', 1, "missing 'elements:' line"),
    'q-no-unit': ('f', 1, "missing 'unit:' line"),
    'q-duplicate-labels': ('f', 2, 'duplicate element labels'),
    'q-reserved-label': ('f', 2, "label 'b=c' uses a reserved character"),
    'q-unrecognized': ('f', 5, "unrecognized line 'foo: bar'"),
    'q-bad-order': ('f', 3, "bad order pair 'a<b', want a<=b"),
    'q-bad-tensor': ('f', 5, "bad tensor entry 'a*a', want a*b=c"),
    'q-bad-tensor-no-star': ('f', 5, "bad tensor entry 'aa=a', want a*b=c"),
    'q-undefined-order': ('f', 3, "undefined element label 'zz'"),
    'q-undefined-tensor': ('f', 5, "undefined element label 'zz'"),
    'q-undefined-unit': ('f', 1, "undefined unit label 'zz'"),
    'q-missing-tensor': ('f', 1, "missing tensor entries: [('a', 'b'), ('b', 'a'), ('b', 'b')]"),
    'q-conflicting-tensor': ('f', 5, 'conflicting tensor entries for b*a'),
    'q-two-bad-tensor-then-unrecognized': ('f', 5, "bad tensor entry 'a*a', want a*b=c"),
    'q-two-unrecognized-then-bad-order': ('f', 3, "unrecognized line 'foo'"),
    'q-two-undefined-then-unrecognized': ('f', 5, "unrecognized line 'foo'"),
    'q-two-bad-order-then-duplicate': ('f', 3, "bad order pair 'a<b', want a<=b"),
    'q-two-undefined-order-lines': ('f', 4, "undefined element label 'zz'"),
    'c-empty': ('f', 1, 'empty category file'),
    'c-vcat-header': ('f', 1, "expected 'vcat <name> over <quantale>'"),
    'c-vcat-header-late': ('f', 2, "expected 'vcat <name> over <quantale>'"),
    'c-tvcat-header': ('f', 1, "expected 'tvcat <name> over <quantale> monad <name>'"),
    'c-unknown-monad': ('f', 1, "unknown monad 'foo'"),
    'c-unknown-header': ('f', 1, "unknown header 'cat'"),
    'c-no-elements': ('f', 1, "missing 'elements:' line"),
    'c-duplicate-labels': ('f', 2, 'duplicate element labels'),
    'c-reserved-label': ('f', 2, "label 'a{' uses a reserved character"),
    'c-unrecognized': ('f', 3, "expected 'm[r,c] = v', got 'foo'"),
    'c-no-bracket': ('f', 3, 'missing closing bracket in matrix entry'),
    'c-one-label': ('f', 3, 'matrix entry needs two labels'),
    'c-no-equals': ('f', 3, "expected 'm[r,c] = v', got 'm[a,a] 1'"),
    'c-undefined-row': ('f', 3, "undefined row label 'zz'"),
    'c-undefined-column': ('f', 3, "undefined column label 'zz'"),
    'c-undefined-value': ('f', 3, "undefined value label '7'"),
    'c-powerset-row': ('f', 3, "undefined row label 'a'"),
    'c-unknown-quantale': ('f', 1, "unknown quantale 'nosuch'"),
    'c-two-entries': ('f', 4, "undefined column label 'zz'"),
    'c-two-entry-then-duplicate': ('f', 3, 'duplicate element labels'),
    'c-two-quantale-then-entry': ('f', 1, "unknown quantale 'nosuch'"),
    'c-sibling-bad-tensor': ('bq.quantale', 5, "undefined element label 'zz'"),
    'c-sibling-invalid': ('bq.quantale', 1, "quantale fails validation: {'ok': False, 'law': 'tensor-unit', 'witness': ('b',)}"),
    'c-sibling-not-utf8': ('bq.quantale', 3, 'not UTF-8 text (invalid start byte at byte 25)'),
    'c-sibling-then-entry': ('f', 3, "undefined column label 'zz'"),
    's-empty': ('f', 1, "missing 'elements:' line"),
    's-header': ('f', 1, "expected header 'space <name>'"),
    's-header-kind': ('f', 1, "expected header 'space <name>'"),
    's-no-elements': ('f', 1, "missing 'elements:' line"),
    's-duplicate-labels': ('f', 2, 'duplicate element labels'),
    's-reserved-label': ('f', 2, "label 'a,b' uses a reserved character"),
    's-unrecognized': ('f', 3, "unrecognized line 'rel: a->b'"),
    's-bad-order': ('f', 3, "bad specialization pair 'a<b'"),
    's-undefined': ('f', 3, 'undefined element in pair a<=b'),
    's-two-undefined-then-unrecognized': ('f', 4, "unrecognized line 'foo'"),
    's-two-bad-order-then-unrecognized': ('f', 3, "bad specialization pair 'ab'"),
    'u-empty': ('f', 1, "missing 'elements:' line"),
    'u-header': ('f', 1, "expected header 'quniform <name>'"),
    'u-no-elements': ('f', 1, "missing 'elements:' line"),
    'u-no-rel': ('f', 1, "missing 'rel:' lines"),
    'u-duplicate-labels': ('f', 2, 'duplicate element labels'),
    'u-reserved-label': ('f', 2, "label 'a]' uses a reserved character"),
    'u-unrecognized': ('f', 4, "unrecognized line 'order: a<=a'"),
    'u-bad-pair': ('f', 3, "bad pair 'a=>a', want a->b"),
    'u-undefined': ('f', 3, "undefined element in pair 'a->b'"),
    'u-two-bad-pair-then-unrecognized': ('f', 4, "unrecognized line 'foo'"),
    'u-two-undefined-then-bad-pair': ('f', 3, "undefined element in pair 'a->b'"),
}


def first_error(reader, text, files, tmp_path):
    """(file, line, message) of the error a malformed file raises.

    The reader parses the text; a category file that parses is then run
    through `lawcat check`, which resolves its quantale and its entries.
    """
    target = tmp_path / "f"
    target.write_text(text)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    try:
        READERS[reader](text, str(target))
    except ParseError as err:
        return os.path.basename(err.path), err.line, err.message
    assert reader == "category", "a malformed file parsed"
    return None


@pytest.mark.parametrize("case", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_file_raises_its_first_error(case, tmp_path, capsys):
    name, reader, text, files = case
    got = first_error(reader, text, files, tmp_path)
    if got is None:
        assert main(["check", str(tmp_path / "f")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        match = re.fullmatch(r"error: (.*?):(\d+): (.*)\n", captured.err, re.S)
        got = os.path.basename(match[1]), int(match[2]), match[3]
    assert got == EXPECTED[name]


# (file name, text, line, message): a definition given twice with
# different values is an error at the later line
CONFLICTS = [
    ("entry", "d.vcat",
     "vcat d over 2\nelements: x y\nm[x,x] = 1\nm[y,y] = 1\nm[x,y] = 1\nm[x,y] = 0\n",
     6, "conflicting matrix entries for m[x,y]"),
    ("entry-spaced", "d.tvcat",
     "tvcat d over 2 monad powerset\nelements: x y\nm[{x},x] = 1\nm[{y},y] = 1\nm[ {x} , x ] = 0\n",
     5, "conflicting matrix entries for m[{x},x]"),
    ("elements-vcat", "d.vcat", "vcat d over 2\nelements: x y\nm[x,x] = 1\nelements: x z\n",
     4, "conflicting 'elements:' lines"),
    ("elements-quantale", "d.quantale",
     "quantale d\nelements: a b\norder: a<=b\nelements: b a\nunit: b\n" + QTENSOR,
     4, "conflicting 'elements:' lines"),
    ("elements-space", "d.space", "space d\nelements: a b\norder: a<=b\nelements: a\n",
     4, "conflicting 'elements:' lines"),
    ("elements-quniform", "d.quniform", "quniform d\nelements: a\nrel: a->a\nelements: a b\n",
     4, "conflicting 'elements:' lines"),
    ("unit", "d.quantale", "quantale d\nelements: a b\norder: a<=b\nunit: b\n" + QTENSOR + "unit: a\n",
     6, "conflicting 'unit:' lines"),
    ("tensor", "d.quantale",
     "quantale d\nelements: a b\norder: a<=b\nunit: b\n" + QTENSOR + "tensor: a*b=b\n",
     6, "conflicting tensor entries for a*b"),
]

# the same kinds of file with a definition repeated with its value
REPEATS = [
    ("entry", "d.vcat", "vcat d over 2\nelements: x y\nm[x,x] = 1\nm[y,y] = 1\nm[x,y] = 1\nm[ x, y ] = 1\n"),
    ("elements-vcat", "d.vcat", "vcat d over 2\nelements: x y\nm[x,x] = 1\nelements:  x y\nm[y,y] = 1\n"),
    ("elements-quantale", "d.quantale",
     "quantale d\nelements: a b\norder: a<=b\nelements: a b\nunit: b\n" + QTENSOR),
    ("elements-space", "d.space", "space d\nelements: a b\norder: a<=b\nelements: a b\n"),
    ("elements-quniform", "d.quniform", "quniform d\nelements: a\nrel: a->a\nelements: a\n"),
    ("unit", "d.quantale", "quantale d\nelements: a b\norder: a<=b\nunit: b\n" + QTENSOR + "unit: b\n"),
    ("tensor", "d.quantale",
     "quantale d\nelements: a b\norder: a<=b\nunit: b\n" + QTENSOR + "tensor: a*b=a b*a=a\n"),
]


@pytest.mark.parametrize("case, name, text, line, message", CONFLICTS, ids=[c[0] for c in CONFLICTS])
def test_conflicting_definition_is_an_input_error(tmp_path, capsys, case, name, text, line, message):
    target = tmp_path / name
    target.write_text(text)
    assert main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {target}:{line}: {message}\n"


@pytest.mark.parametrize("case, name, text", REPEATS, ids=[r[0] for r in REPEATS])
def test_repeated_definition_with_the_same_value_is_accepted(tmp_path, capsys, case, name, text):
    target = tmp_path / name
    target.write_text(text)
    assert main(["check", str(target)]) == 0
    assert capsys.readouterr().err == ""
