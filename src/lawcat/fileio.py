"""Plain-text object formats: their readers, the matrix entry writer, and
the quantale a category file names.

One object per file, hand-authorable, diffable.  The first word of the
first non-comment line names the kind: quantale, vcat, tvcat, space or
quniform.  Errors carry the offending line number; a definition given
twice with different values is an error at the later line.

A file is read in one pass: `load_file` reads its bytes once, splits the
text into numbered lines once (`_lines`), and hands that list to the
reader of its kind.  A category's entries are resolved when the category
is (`ParsedCategory.resolve`): each value label is looked up in the
quantale's label table (`Quantale.label_index`), and each entry is written
straight into its row.
"""

from __future__ import annotations

import os

from .errors import LawcatError, ParseError
from .instances import FinitePreorder
from .monad import builtin_monads
from .quantale import Quantale, builtin_quantales, validate_quantale
from .quniform import QuasiUniformity
from .vmatrix import VMatrix


def _lines(text):
    """The numbered lines of a text that hold something once their comment
    is cut and their ends are stripped, as (lineno, line) pairs."""
    return [
        (i, line)
        for i, raw in enumerate(text.splitlines(), 1)
        if (line := raw.partition("#")[0].strip())
    ]


_RESERVED = frozenset(",[]{}=")


def _elements(path, lineno, line, labels):
    """The labels of an `elements:` line, which must not differ from the
    `labels` of an earlier one."""
    new = tuple(line[len("elements:") :].split())
    if len(set(new)) != len(new):
        raise ParseError(path, lineno, "duplicate element labels")
    for lab in new:
        if not _RESERVED.isdisjoint(lab):
            raise ParseError(path, lineno, f"label {lab!r} uses a reserved character")
    return _define(path, lineno, "'elements:' lines", labels, new)


def _define(path, lineno, what, old, new):
    """`new`, unless a different value was defined before it."""
    if old is not None and old != new:
        raise ParseError(path, lineno, f"conflicting {what}")
    return new


def _name(path, lines, kind):
    """The name on the `<kind> <name>` first line; None for no lines."""
    if not lines:
        return None
    lineno, line = lines[0]
    words = line.split()
    if len(words) != 2 or words[0] != kind:
        raise ParseError(path, lineno, f"expected header '{kind} <name>'")
    return words[1]


# Each reader takes a file's `_lines` and walks them in order, raising each
# line's errors before reading the next; what a line names (a label, a
# pair) is checked after the walk.


def _read_quantale(lines, path):
    if not lines:
        raise ParseError(path, 1, "empty quantale file")
    name = _name(path, lines, "quantale")
    labels = unit_label = None
    order_pairs = []
    tensor_entries = {}
    for lineno, line in lines[1:]:
        if line.startswith("elements:"):
            labels = _elements(path, lineno, line, labels)
        elif line.startswith("order:"):
            for tok in line[len("order:") :].split():
                a, sep, b = tok.partition("<=")
                if not sep:
                    raise ParseError(path, lineno, f"bad order pair {tok!r}, want a<=b")
                order_pairs.append((lineno, a, b))
        elif line.startswith("unit:"):
            unit = line[len("unit:") :].strip()
            unit_label = _define(path, lineno, "'unit:' lines", unit_label, unit)
        elif line.startswith("tensor:"):
            for tok in line[len("tensor:") :].split():
                lhs, eq, c = tok.partition("=")
                a, star, b = lhs.partition("*")
                if not (eq and star):
                    raise ParseError(path, lineno, f"bad tensor entry {tok!r}, want a*b=c")
                old = tensor_entries.get((a, b), (None, None))[1]
                c = _define(path, lineno, f"tensor entries for {a}*{b}", old, c)
                tensor_entries[(a, b)] = (lineno, c)
        else:
            raise ParseError(path, lineno, f"unrecognized line {line!r}")
    if labels is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    if unit_label is None:
        raise ParseError(path, 1, "missing 'unit:' line")
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(lineno, lab):
        if lab not in index:
            raise ParseError(path, lineno, f"undefined element label {lab!r}")
        return index[lab]

    n = len(labels)
    pairs = [(resolve(lineno, a), resolve(lineno, b)) for lineno, a, b in order_pairs]
    leq = FinitePreorder.from_pairs(n, pairs).leq
    tensor = [[None] * n for _ in range(n)]
    for (a, b), (lineno, c) in tensor_entries.items():
        i, j = resolve(lineno, a), resolve(lineno, b)
        k = resolve(lineno, c)
        for (x, y) in ((i, j), (j, i)):
            if tensor[x][y] is not None and tensor[x][y] != k:
                raise ParseError(path, lineno, f"conflicting tensor entries for {a}*{b}")
            tensor[x][y] = k
    missing = [
        (labels[i], labels[j]) for i in range(n) for j in range(n) if tensor[i][j] is None
    ]
    if missing:
        raise ParseError(path, 1, f"missing tensor entries: {missing[:4]}")
    if unit_label not in index:
        raise ParseError(path, 1, f"undefined unit label {unit_label!r}")
    return Quantale(name, labels, leq, tensor, index[unit_label])


def matrix_lines(matrix, row_labels, col_labels):
    """The `m[r,c] = v` lines of a matrix's entries above bottom, row by row:
    what `ParsedCategory.resolve` reads back."""
    q = matrix.q
    return [
        f"m[{row_labels[r]},{col_labels[c]}] = {q.labels[v]}"
        for r, row in enumerate(matrix.data)
        for c, v in enumerate(row)
        if v != q.bottom
    ]


class ParsedCategory:
    """A category file read up to its entries, which `resolve` reads."""

    def __init__(self, name, quantale_name, monad, labels, items, path):
        self.name = name
        self.quantale_name = quantale_name
        self.monad = monad
        self.monad_name = monad.name
        self.labels = labels
        self.items = items  # the (lineno, line) pairs of the entry lines
        self.path = path

    def quantale(self):
        """The quantale the file names: a built-in, or else the validated
        sibling `<name>.quantale` in the file's directory."""
        name = self.quantale_name
        q = builtin_quantales().get(name)
        if q is not None:
            return q
        sibling = os.path.join(os.path.dirname(os.path.abspath(self.path)), name + ".quantale")
        if not os.path.exists(sibling):
            raise ParseError(self.path, 1, f"unknown quantale {name!r}")
        q = parse_quantale_text(_read_text(sibling), sibling)
        verdict = validate_quantale(q)
        if not verdict["ok"]:
            raise ParseError(sibling, 1, f"quantale fails validation: {verdict}")
        return q

    def resolve(self):
        """(q, n, the structure matrix) over the quantale and monad it names.

        Each `m[r,c] = v` entry, in file order, is written into row r; an
        entry not given is bottom.
        """
        q = self.quantale()
        path, labels = self.path, self.labels
        n = len(labels)
        size = self.monad.size(n)
        col_index = {lab: i for i, lab in enumerate(labels)}
        row_of = self.monad.row_lookup(col_index)
        values = q.label_index
        rows = [[None] * n for _ in range(size)]
        for lineno, line in self.items:
            lhs, eq, val = line.partition("=")
            if not (eq and line.startswith("m[")):
                raise ParseError(path, lineno, f"expected 'm[r,c] = v', got {line!r}")
            inner = lhs[2:].rstrip()
            if not inner.endswith("]"):
                raise ParseError(path, lineno, "missing closing bracket in matrix entry")
            r, comma, c = inner[:-1].rpartition(",")
            if not comma:
                raise ParseError(path, lineno, "matrix entry needs two labels")
            r, c, val = r.strip(), c.strip(), val.strip()
            i = row_of(r)
            if i is None:
                raise ParseError(path, lineno, f"undefined row label {r!r}")
            j = col_index.get(c)
            if j is None:
                raise ParseError(path, lineno, f"undefined column label {c!r}")
            v = values.get(val)
            if v is None:
                raise ParseError(path, lineno, f"undefined value label {val!r}")
            row = rows[i]
            if row[j] is None:
                row[j] = v
            elif row[j] != v:
                raise ParseError(path, lineno, f"conflicting matrix entries for m[{r},{c}]")
        bottom = q.bottom
        # every value came from q.label_index and every row is n wide
        data = tuple([tuple([bottom if v is None else v for v in row]) for row in rows])
        return q, n, VMatrix.trusted(q, size, n, data)


def _category_header(path, lineno, words):
    """(name, quantale name, monad) of a vcat or tvcat header."""
    if words[0] == "vcat":
        if len(words) != 4 or words[2] != "over":
            raise ParseError(path, lineno, "expected 'vcat <name> over <quantale>'")
        return words[1], words[3], builtin_monads()["id"]
    if words[0] == "tvcat":
        if len(words) != 6 or words[2] != "over" or words[4] != "monad":
            raise ParseError(path, lineno, "expected 'tvcat <name> over <quantale> monad <name>'")
        monad = builtin_monads().get(words[5])
        if monad is None:
            raise ParseError(path, lineno, f"unknown monad {words[5]!r}")
        return words[1], words[3], monad
    raise ParseError(path, lineno, f"unknown header {words[0]!r}")


def _read_category(lines, path):
    """The header and labels; the entry lines are kept for `resolve`."""
    if not lines:
        raise ParseError(path, 1, "empty category file")
    lineno, line = lines[0]
    header = _category_header(path, lineno, line.split())
    labels = None
    items = []
    for item in lines[1:]:
        if item[1].startswith("elements:"):
            labels = _elements(path, *item, labels)
        else:
            items.append(item)
    if labels is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    return ParsedCategory(*header, labels, items, path)


def _read_space(lines, path):
    name = _name(path, lines, "space")
    labels = None
    pairs = []
    for lineno, line in lines[1:]:
        if line.startswith("elements:"):
            labels = _elements(path, lineno, line, labels)
        elif line.startswith("order:"):
            for tok in line[len("order:") :].split():
                a, sep, b = tok.partition("<=")
                if not sep:
                    raise ParseError(path, lineno, f"bad specialization pair {tok!r}")
                pairs.append((lineno, a, b))
        else:
            raise ParseError(path, lineno, f"unrecognized line {line!r}")
    if labels is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    index = {lab: i for i, lab in enumerate(labels)}
    resolved = []
    for lineno, a, b in pairs:
        if a not in index or b not in index:
            raise ParseError(path, lineno, f"undefined element in pair {a}<={b}")
        resolved.append((index[a], index[b]))
    return name, labels, FinitePreorder.from_pairs(len(labels), resolved)


def _read_quniform(lines, path):
    name = _name(path, lines, "quniform")
    labels = None
    rels = []
    for lineno, line in lines[1:]:
        if line.startswith("elements:"):
            labels = _elements(path, lineno, line, labels)
        elif line.startswith("rel:"):
            rels.append((lineno, line[len("rel:") :].split()))
        else:
            raise ParseError(path, lineno, f"unrecognized line {line!r}")
    if labels is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    if not rels:
        raise ParseError(path, 1, "missing 'rel:' lines")
    index = {lab: i for i, lab in enumerate(labels)}
    base = []
    for lineno, toks in rels:
        rel = set()
        for tok in toks:
            a, sep, b = tok.partition("->")
            if not sep:
                raise ParseError(path, lineno, f"bad pair {tok!r}, want a->b")
            if a not in index or b not in index:
                raise ParseError(path, lineno, f"undefined element in pair {tok!r}")
            rel.add((index[a], index[b]))
        base.append(frozenset(rel))
    return name, labels, QuasiUniformity(len(labels), base)


def _text_reader(read):
    """The reader of a whole text, for a reader of its `_lines`."""

    def parse(text, path="<string>"):
        return read(_lines(text), path)

    return parse


parse_quantale_text = _text_reader(_read_quantale)
parse_category_text = _text_reader(_read_category)
parse_space_text = _text_reader(_read_space)
parse_quniform_text = _text_reader(_read_quniform)


READERS = {
    "quantale": _read_quantale,
    "vcat": _read_category,
    "tvcat": _read_category,
    "space": _read_space,
    "quniform": _read_quniform,
}


_CHUNK = 1 << 16


def _read_text(path):
    """The text of a UTF-8 file, read with one open and plain reads.  A path
    that cannot be read (missing, a directory) is a LawcatError with the
    OSError's text, which names the path as open() does; bytes that are not
    UTF-8 are a ParseError at their line."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        if exc.filename is None:  # a read error names no file
            exc.filename = path
        raise LawcatError(str(exc)) from exc
    data = b"".join(chunks)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_file(path):
    """Parse one file into (kind, payload); categories stay unresolved."""
    lines = _lines(_read_text(path))
    if not lines:
        raise ParseError(path, 1, "empty file")
    lineno, line = lines[0]
    kind = line.split()[0]
    reader = READERS.get(kind)
    if reader is None:
        raise ParseError(path, lineno, f"unknown object kind {kind!r}")
    return kind, reader(lines, path)
