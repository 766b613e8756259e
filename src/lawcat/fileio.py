"""Plain-text object formats: their readers, the matrix entry writer, and
the quantale a category file names.

One object per file, hand-authorable, diffable.  The first word of the
first non-comment line names the kind: quantale, vcat, tvcat, space or
quniform.  Errors carry the offending line number; a definition given
twice with different values is an error at the later line.
"""

from __future__ import annotations

import os

from .errors import LawcatError, ParseError
from .instances import FinitePreorder
from .monad import builtin_monad, builtin_monads
from .quantale import Quantale, builtin_quantales, validate_quantale
from .quniform import QuasiUniformity
from .vmatrix import VMatrix


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


_RESERVED = frozenset(",[]{}=")


def _check_labels(path, lineno, labels):
    if len(set(labels)) != len(labels):
        raise ParseError(path, lineno, "duplicate element labels")
    for lab in labels:
        if not _RESERVED.isdisjoint(lab):
            raise ParseError(path, lineno, f"label {lab!r} uses a reserved character")


def _define(path, lineno, what, old, new):
    """`new`, unless a different value was defined before it."""
    if old is not None and old != new:
        raise ParseError(path, lineno, f"conflicting {what}")
    return new


def _named(kind):
    """The header reader of a `<kind> <name>` file."""

    def header(path, lineno, words):
        if len(words) != 2 or words[0] != kind:
            raise ParseError(path, lineno, f"expected header '{kind} <name>'")
        return words[1]

    return header


def _read_lines(text, path, header, handlers, empty=None, others=None):
    """Walk one file's lines in order, raising each line's errors before
    reading the next; returns (header, labels).

    The first line goes to `header(path, lineno, words)`, `elements:` lines
    give the labels, and any other line goes to the handler of the first
    prefix in `handlers` it starts with, with the rest of the line.  A line
    no handler takes is appended to `others`, if given, or is unrecognized.
    `empty`, if given, is the error for a file without lines.
    """
    head = labels = None
    for lineno, line in _lines(text):
        if head is None:
            head = header(path, lineno, line.split())
        elif line.startswith("elements:"):
            new = tuple(line[len("elements:") :].split())
            _check_labels(path, lineno, new)
            labels = _define(path, lineno, "'elements:' lines", labels, new)
        else:
            for prefix, handle in handlers.items():
                if line.startswith(prefix):
                    handle(lineno, line[len(prefix) :])
                    break
            else:
                if others is None:
                    raise ParseError(path, lineno, f"unrecognized line {line!r}")
                others.append((lineno, line))
    if head is None and empty:
        raise ParseError(path, 1, empty)
    if labels is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    return head, labels


def parse_quantale_text(text, path="<string>"):
    order_pairs = []
    unit_label = None
    tensor_entries = {}

    def read_order(lineno, rest):
        for tok in rest.split():
            if "<=" not in tok:
                raise ParseError(path, lineno, f"bad order pair {tok!r}, want a<=b")
            order_pairs.append((lineno, *tok.split("<=", 1)))

    def read_unit(lineno, rest):
        nonlocal unit_label
        unit_label = _define(path, lineno, "'unit:' lines", unit_label, rest.strip())

    def read_tensor(lineno, rest):
        for tok in rest.split():
            if "*" not in tok or "=" not in tok:
                raise ParseError(path, lineno, f"bad tensor entry {tok!r}, want a*b=c")
            lhs, c = tok.split("=", 1)
            a, b = lhs.split("*", 1)
            old = tensor_entries.get((a, b), (None, None))[1]
            c = _define(path, lineno, f"tensor entries for {a}*{b}", old, c)
            tensor_entries[(a, b)] = (lineno, c)

    handlers = {"order:": read_order, "unit:": read_unit, "tensor:": read_tensor}
    name, labels = _read_lines(text, path, _named("quantale"), handlers, "empty quantale file")
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


def _parse_matrix_lines(path, items, row_index, col_index, q):
    entries = {}
    for lineno, line in items:
        if not (line.startswith("m[") and "=" in line):
            raise ParseError(path, lineno, f"expected 'm[r,c] = v', got {line!r}")
        lhs, val = line.split("=", 1)
        inner = lhs.strip()[2:].rstrip()
        if not inner.endswith("]"):
            raise ParseError(path, lineno, "missing closing bracket in matrix entry")
        inner = inner[:-1]
        if inner.count(",") < 1:
            raise ParseError(path, lineno, "matrix entry needs two labels")
        r, c = [part.strip() for part in inner.rsplit(",", 1)]
        val = val.strip()
        if r not in row_index:
            raise ParseError(path, lineno, f"undefined row label {r!r}")
        if c not in col_index:
            raise ParseError(path, lineno, f"undefined column label {c!r}")
        if val not in q.labels:
            raise ParseError(path, lineno, f"undefined value label {val!r}")
        v = q.labels.index(val)
        if entries.setdefault((row_index[r], col_index[c]), v) != v:
            raise ParseError(path, lineno, f"conflicting matrix entries for m[{r},{c}]")
    return entries


def matrix_lines(matrix, row_labels, col_labels):
    """The `m[r,c] = v` lines of a matrix's entries above bottom, row by row:
    what `_parse_matrix_lines` reads back."""
    q = matrix.q
    return [
        f"m[{row_labels[r]},{col_labels[c]}] = {q.labels[v]}"
        for r, row in enumerate(matrix.data)
        for c, v in enumerate(row)
        if v != q.bottom
    ]


class ParsedCategory:
    def __init__(self, name, quantale_name, monad_name, labels, items, path):
        self.name = name
        self.quantale_name = quantale_name
        self.monad_name = monad_name
        self.labels = labels
        self.items = items
        self.path = path

    def resolve(self):
        """Build the structure matrix over the quantale and monad it names.

        The quantale is a built-in, or else the validated sibling
        `<name>.quantale` in the file's directory.
        """
        name = self.quantale_name
        q = builtin_quantales().get(name)
        if q is None:
            sibling = os.path.join(os.path.dirname(os.path.abspath(self.path)), name + ".quantale")
            if not os.path.exists(sibling):
                raise ParseError(self.path, 1, f"unknown quantale {name!r}")
            q = parse_quantale_text(_read_text(sibling), sibling)
            verdict = validate_quantale(q)
            if not verdict["ok"]:
                raise ParseError(sibling, 1, f"quantale fails validation: {verdict}")
        n = len(self.labels)
        col_index = {lab: i for i, lab in enumerate(self.labels)}
        monad = builtin_monad(self.monad_name)
        row_index = {lab: i for i, lab in enumerate(monad.labels(n, self.labels))}
        rows = monad.size(n)
        entries = _parse_matrix_lines(self.path, self.items, row_index, col_index, q)
        data = [[q.bottom] * n for _ in range(rows)]
        for (r, c), v in entries.items():
            data[r][c] = v
        return q, n, VMatrix(q, rows, n, data)


def _category_header(path, lineno, words):
    if words[0] == "vcat":
        if len(words) != 4 or words[2] != "over":
            raise ParseError(path, lineno, "expected 'vcat <name> over <quantale>'")
        return words[1], words[3], "id"
    if words[0] == "tvcat":
        if len(words) != 6 or words[2] != "over" or words[4] != "monad":
            raise ParseError(path, lineno, "expected 'tvcat <name> over <quantale> monad <name>'")
        if words[5] not in builtin_monads():
            raise ParseError(path, lineno, f"unknown monad {words[5]!r}")
        return words[1], words[3], words[5]
    raise ParseError(path, lineno, f"unknown header {words[0]!r}")


def parse_category_text(text, path="<string>"):
    items = []  # the matrix entry lines, read when the category is resolved
    header, labels = _read_lines(text, path, _category_header, {}, "empty category file", items)
    return ParsedCategory(*header, labels, items, path)


def parse_space_text(text, path="<string>"):
    pairs = []

    def read_order(lineno, rest):
        for tok in rest.split():
            if "<=" not in tok:
                raise ParseError(path, lineno, f"bad specialization pair {tok!r}")
            pairs.append((lineno, *tok.split("<=", 1)))

    name, labels = _read_lines(text, path, _named("space"), {"order:": read_order})
    index = {lab: i for i, lab in enumerate(labels)}
    resolved = []
    for lineno, a, b in pairs:
        if a not in index or b not in index:
            raise ParseError(path, lineno, f"undefined element in pair {a}<={b}")
        resolved.append((index[a], index[b]))
    return name, labels, FinitePreorder.from_pairs(len(labels), resolved)


def parse_quniform_text(text, path="<string>"):
    rels = []
    handlers = {"rel:": lambda lineno, rest: rels.append((lineno, rest.split()))}
    name, labels = _read_lines(text, path, _named("quniform"), handlers)
    if not rels:
        raise ParseError(path, 1, "missing 'rel:' lines")
    index = {lab: i for i, lab in enumerate(labels)}
    base = []
    for lineno, toks in rels:
        rel = set()
        for tok in toks:
            if "->" not in tok:
                raise ParseError(path, lineno, f"bad pair {tok!r}, want a->b")
            a, b = tok.split("->", 1)
            if a not in index or b not in index:
                raise ParseError(path, lineno, f"undefined element in pair {tok!r}")
            rel.add((index[a], index[b]))
        base.append(frozenset(rel))
    return name, labels, QuasiUniformity(len(labels), base)


READERS = {
    "quantale": parse_quantale_text,
    "vcat": parse_category_text,
    "tvcat": parse_category_text,
    "space": parse_space_text,
    "quniform": parse_quniform_text,
}


def _read_text(path):
    """The text of a UTF-8 file.  A path that cannot be read (missing, a
    directory) is a LawcatError with the OSError's text, which names the
    path; bytes that are not UTF-8 are a ParseError at their line."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise LawcatError(str(exc)) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_file(path):
    """Parse one file into (kind, payload); categories stay unresolved."""
    text = _read_text(path)
    for lineno, line in _lines(text):
        kind = line.split()[0]
        if kind not in READERS:
            raise ParseError(path, lineno, f"unknown object kind {kind!r}")
        return kind, READERS[kind](text, path)
    raise ParseError(path, 1, "empty file")
