"""Plain-text object formats and their parser.

One object per file, hand-authorable, diffable.  The first word of the
first non-comment line names the kind: quantale, vcat, tvcat, space or
quniform.  Errors carry the offending line number.
"""

from __future__ import annotations

import os

from .errors import ParseError
from .instances import FinitePreorder
from .monad import builtin_monad
from .quantale import Quantale, builtin_quantales, validate_quantale
from .quniform import QuasiUniformity
from .vmatrix import VMatrix


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _check_labels(path, lineno, labels):
    if len(set(labels)) != len(labels):
        raise ParseError(path, lineno, "duplicate element labels")
    for lab in labels:
        if any(ch in lab for ch in ",[]{}="):
            raise ParseError(path, lineno, f"label {lab!r} uses a reserved character")


def parse_quantale_text(text, path="<string>"):
    name = None
    labels = None
    order_pairs = []
    unit_label = None
    tensor_entries = {}
    for lineno, line in _lines(text):
        if name is None:
            words = line.split()
            if len(words) != 2 or words[0] != "quantale":
                raise ParseError(path, lineno, "expected header 'quantale <name>'")
            name = words[1]
            continue
        if line.startswith("elements:"):
            labels = tuple(line[len("elements:") :].split())
            _check_labels(path, lineno, labels)
        elif line.startswith("order:"):
            for tok in line[len("order:") :].split():
                if "<=" not in tok:
                    raise ParseError(path, lineno, f"bad order pair {tok!r}, want a<=b")
                a, b = tok.split("<=", 1)
                order_pairs.append((lineno, a, b))
        elif line.startswith("unit:"):
            unit_label = line[len("unit:") :].strip()
        elif line.startswith("tensor:"):
            for tok in line[len("tensor:") :].split():
                if "*" not in tok or "=" not in tok:
                    raise ParseError(path, lineno, f"bad tensor entry {tok!r}, want a*b=c")
                lhs, c = tok.split("=", 1)
                a, b = lhs.split("*", 1)
                tensor_entries[(a, b)] = (lineno, c)
        else:
            raise ParseError(path, lineno, f"unrecognized line {line!r}")
    if name is None:
        raise ParseError(path, 1, "empty quantale file")
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
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lineno, a, b in order_pairs:
        leq[resolve(lineno, a)][resolve(lineno, b)] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            leq[i][k] = True
                            changed = True
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
        entries[(row_index[r], col_index[c])] = q.labels.index(val)
    return entries


class ParsedCategory:
    def __init__(self, name, quantale_name, monad_name, labels, items, path):
        self.name = name
        self.quantale_name = quantale_name
        self.monad_name = monad_name
        self.labels = labels
        self.items = items
        self.path = path

    def resolve(self, workspace):
        """Build the structure matrix against a quantale and monad table."""
        q = workspace.quantale(self.quantale_name, self.path)
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


def parse_category_text(text, path="<string>"):
    header = None
    labels = None
    items = []
    for lineno, line in _lines(text):
        if header is None:
            words = line.split()
            if words[0] == "vcat":
                if len(words) != 4 or words[2] != "over":
                    raise ParseError(path, lineno, "expected 'vcat <name> over <quantale>'")
                header = (words[1], words[3], "id")
            elif words[0] == "tvcat":
                if len(words) != 6 or words[2] != "over" or words[4] != "monad":
                    raise ParseError(
                        path, lineno, "expected 'tvcat <name> over <quantale> monad <name>'"
                    )
                header = (words[1], words[3], words[5])
            else:
                raise ParseError(path, lineno, f"unknown header {words[0]!r}")
            continue
        if line.startswith("elements:"):
            labels = tuple(line[len("elements:") :].split())
            _check_labels(path, lineno, labels)
        else:
            items.append((lineno, line))
    if header is None:
        raise ParseError(path, 1, "empty category file")
    if labels is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    return ParsedCategory(*header, labels, items, path)


def parse_space_text(text, path="<string>"):
    name = None
    labels = None
    pairs = []
    for lineno, line in _lines(text):
        if name is None:
            words = line.split()
            if len(words) != 2 or words[0] != "space":
                raise ParseError(path, lineno, "expected header 'space <name>'")
            name = words[1]
            continue
        if line.startswith("elements:"):
            labels = tuple(line[len("elements:") :].split())
            _check_labels(path, lineno, labels)
        elif line.startswith("order:"):
            for tok in line[len("order:") :].split():
                if "<=" not in tok:
                    raise ParseError(path, lineno, f"bad specialization pair {tok!r}")
                a, b = tok.split("<=", 1)
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


def parse_quniform_text(text, path="<string>"):
    name = None
    labels = None
    rels = []
    for lineno, line in _lines(text):
        if name is None:
            words = line.split()
            if len(words) != 2 or words[0] != "quniform":
                raise ParseError(path, lineno, "expected header 'quniform <name>'")
            name = words[1]
            continue
        if line.startswith("elements:"):
            labels = tuple(line[len("elements:") :].split())
            _check_labels(path, lineno, labels)
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
            if "->" not in tok:
                raise ParseError(path, lineno, f"bad pair {tok!r}, want a->b")
            a, b = tok.split("->", 1)
            if a not in index or b not in index:
                raise ParseError(path, lineno, f"undefined element in pair {tok!r}")
            rel.add((index[a], index[b]))
        base.append(frozenset(rel))
    return name, labels, QuasiUniformity(len(labels), base)


KINDS = ("quantale", "vcat", "tvcat", "space", "quniform")


def sniff_kind(text, path="<string>"):
    for lineno, line in _lines(text):
        word = line.split()[0]
        if word in KINDS:
            return word
        raise ParseError(path, lineno, f"unknown object kind {word!r}")
    raise ParseError(path, 1, "empty file")


class Workspace:
    """Quantale resolution: built-ins plus sibling .quantale files."""

    def __init__(self):
        self.quantales = dict(builtin_quantales())

    def quantale(self, name, referring_path):
        if name in self.quantales:
            return self.quantales[name]
        sibling = os.path.join(os.path.dirname(os.path.abspath(referring_path)), name + ".quantale")
        if os.path.exists(sibling):
            with open(sibling, encoding="utf-8") as handle:
                q = parse_quantale_text(handle.read(), sibling)
            verdict = validate_quantale(q)
            if not verdict["ok"]:
                raise ParseError(sibling, 1, f"quantale fails validation: {verdict}")
            self.quantales[name] = q
            return q
        raise ParseError(referring_path, 1, f"unknown quantale {name!r}")


def load_file(path, workspace=None):
    """Parse one file into (kind, payload); categories stay unresolved."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    kind = sniff_kind(text, path)
    if kind == "quantale":
        return kind, parse_quantale_text(text, path)
    if kind in ("vcat", "tvcat"):
        return kind, parse_category_text(text, path)
    if kind == "space":
        return kind, parse_space_text(text, path)
    return kind, parse_quniform_text(text, path)
