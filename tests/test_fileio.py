"""The one-pass readers of `lawcat.fileio` against the reference line walk
in `support` (the readers they replaced): on valid files they return equal
objects, on malformed ones they raise the same first error; and a file is
read and split once."""

import itertools
import os
import random

import pytest

from lawcat import fileio
from lawcat.errors import ParseError
from lawcat.fileio import load_file, parse_quantale_text
from lawcat.monad import builtin_monad
from lawcat.tvcat import all_tvcategories
from support import reference_load_file

DATA = os.path.join(os.path.dirname(__file__), "data")
TWO = open(os.path.join(DATA, "two.quantale"), encoding="utf-8").read()


def _quantale(q):
    return q.name, q.labels, q.leq, q.tensor, q.unit


def summary(load, path):
    """What reading the file at `path` gives: the kind, name, labels and
    tables of its object (a category resolved to its matrix), or the error."""
    try:
        kind, payload = load(path)
        if kind == "quantale":
            return kind, _quantale(payload)
        if kind in ("vcat", "tvcat"):
            head = (payload.name, payload.quantale_name, payload.monad_name, payload.labels)
            q, n, matrix = payload.resolve()
            return kind, head, _quantale(q), n, (matrix.rows, matrix.cols, matrix.data)
        name, labels, obj = payload
        if kind == "space":
            return kind, name, labels, obj.n, obj.up, obj.down
        return kind, name, labels, obj.n, obj.base
    except ParseError as err:
        return "ParseError", os.path.basename(err.path), err.line, err.message
    except Exception as err:  # noqa: BLE001 - any other failure must match too
        return type(err).__name__, str(err)


def _same(path):
    ours = summary(load_file, path)
    assert ours == summary(reference_load_file, path), path
    return ours


def _entry_format_files():
    """The small structures test_entry_format writes, as (name, text)."""
    from test_entry_format import _written

    from lawcat.laxext import LaxExtension
    from lawcat.quantale import builtin

    for mname, qname in (("id", "c3"), ("ultra", "2"), ("powerset", "2")):
        ext = LaxExtension(builtin_monad(mname), builtin(qname))
        kind = "vcat" if mname == "id" else "tvcat"
        for n in range(3):
            for i, cat in enumerate(all_tvcategories(ext, n)):
                yield f"{mname}{qname}{n}-{i}.{kind}", _written("s", ext.monad, "xy"[:n], cat.a)


def _valid_files():
    """(file name, text): the pinned seeded inputs of test_cli and the
    small structures of test_entry_format."""
    from test_cli import _pinned_powerset_jobs, _pinned_verdict_jobs

    yield from ((name, text) for _, name, text in _pinned_verdict_jobs())
    yield from _pinned_powerset_jobs()
    yield from _entry_format_files()


@pytest.mark.parametrize("name", sorted(os.listdir(DATA)))
def test_readers_match_the_reference_on_the_data_files(name):
    _same(os.path.join(DATA, name))


def test_readers_match_the_reference_on_seeded_and_small_structures(tmp_path):
    kinds = set()
    for name, text in _valid_files():
        target = tmp_path / name
        target.write_text(text)
        kinds.add(_same(str(target))[0])
    assert kinds == {"vcat", "tvcat", "space"}


def test_a_sibling_quantale_reads_as_the_reference_reads_it(tmp_path):
    (tmp_path / "myq.quantale").write_text(TWO.replace("quantale two", "quantale myq"))
    target = tmp_path / "c.vcat"
    target.write_text("vcat c over myq\nelements: x y\nm[x,x] = t\nm[y,y] = t\nm[x,y] = t\n")
    got = _same(str(target))
    assert got[0] == "vcat" and got[2][0] == "myq"


# ---------------------------------------------------------------------------
# Seeded malformed files: the first error, file by file.

SIBLING = TWO.replace("quantale two", "quantale myq")

# (file name, text) of valid files of all five kinds; `c.vcat` names the
# sibling quantale `myq.quantale`, which is written next to every mutant.
BASES = [
    ("q.quantale", TWO + "# the same tensor, spelled again\ntensor: f*t=f\n"),
    ("c.vcat", "vcat c over myq\nelements: x y\nm[x,x] = t\nm[y,y] = t  # diagonal\nm[x,y] = t\n"),
    ("d.vcat", open(os.path.join(DATA, "chain2.vcat"), encoding="utf-8").read()),
    ("u.tvcat", open(os.path.join(DATA, "chain2u.tvcat"), encoding="utf-8").read()),
    ("p.tvcat", open(os.path.join(DATA, "pair2p.tvcat"), encoding="utf-8").read()),
    ("s.space", open(os.path.join(DATA, "sierpinski.space"), encoding="utf-8").read()),
    ("w.quniform", open(os.path.join(DATA, "pre3.quniform"), encoding="utf-8").read()),
    # indented lines, CRLF line ends, one line of each kind
    ("i.vcat", "  vcat i over 2\r\n\telements: x y\r\n   m[x,x] = 1\r\n m[ y , y ]=1 \r\n"),
    ("t.space", "space t\n  elements: a b c  \n\n  order: a<=b b<=c\n"),
    ("v.quniform", "quniform v\n elements: a b\n  rel: a->a b->b a->b\n"),
]


def _labels(text):
    """The element labels a file defines, and the values its entries use."""
    labels, values = [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("elements:"):
            labels += line[len("elements:") :].split()
        elif line.startswith("m[") and "=" in line:
            values.append(line.rsplit("=", 1)[1].strip())
    return labels, values


def _conflict(rng, text):
    """A definition line of the file, appended again with another value."""
    labels, values = _labels(text)
    lines = [line for line in text.splitlines() if line.split("#", 1)[0].strip()]
    candidates = [line for line in lines[1:] if line.split(":", 1)[0] in ("elements", "unit", "tensor")]
    candidates += [line for line in lines if line.startswith("m[")]
    if not candidates:
        return text
    line = rng.choice(candidates).split("#", 1)[0].rstrip()
    other = rng.choice(sorted(set(labels + values + ["t", "f", "1", "0"])))
    if line.startswith("m["):
        line = line.rsplit("=", 1)[0] + "= " + other
    elif line.startswith("tensor:"):
        line = "tensor: " + rng.choice(line.split()[1:]).split("=", 1)[0] + "=" + other
    elif line.startswith("unit:"):
        line = "unit: " + other
    else:
        line = line + " " + other
    return text + line + "\n"


def _undefined(rng, text):
    """The file with one occurrence of a label replaced by an undefined one."""
    labels, values = _labels(text)
    spots = [
        (i, len(label))
        for label in set(labels + values)
        for i in range(len(text))
        if text.startswith(label, i)
    ]
    if not spots:
        return text
    i, size = rng.choice(spots)
    return text[:i] + "zz" + text[i + size :]


def _delete(token):
    def mutate(rng, text):
        spots = [i for i in range(len(text)) if text.startswith(token, i)]
        if not spots:
            return text
        i = rng.choice(spots)
        return text[:i] + text[i + len(token) :]

    return mutate


def _drop_char(rng, text):
    i = rng.randrange(len(text))
    return text[:i] + text[i + 1 :]


def _duplicate_line(rng, text):
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return "".join(lines[: i + 1] + lines[i:])


def _insert_hash(rng, text):
    """A `#` anywhere, or at the start of a line, cutting it whole."""
    starts = [0] + [i + 1 for i, char in enumerate(text) if char == "\n"]
    i = rng.choice(starts) if rng.random() < 0.5 else rng.randrange(len(text) + 1)
    return text[:i] + "#" + text[i:]


MUTATIONS = [
    _drop_char,
    _duplicate_line,
    _delete("="),
    _delete(","),
    _delete("]"),
    _delete("<="),
    _insert_hash,
    _undefined,
    _conflict,
]


def _mutants(seed, per_base):
    """(file name, text) of seeded mutants of each base file: one to three
    mutations applied in turn, so that some files hold several faults."""
    rng = random.Random(seed)
    for name, text in BASES:
        for _ in range(per_base):
            mutant = text
            for mutate in rng.choices(MUTATIONS, k=rng.choice((1, 1, 2, 3))):
                mutant = mutate(rng, mutant)
            yield name, mutant


def test_malformed_files_raise_what_the_reference_raises(tmp_path):
    (tmp_path / "myq.quantale").write_text(SIBLING)
    outcomes = set()
    for name, text in itertools.chain(BASES, _mutants("fileio-mutants", 400)):
        target = tmp_path / name
        target.write_text(text)
        got = _same(str(target))
        outcomes.add(got[0] if got[0] != "ParseError" else got[3].split(" ", 1)[0])
    # the mutants reach the errors of every reader, and some stay valid
    assert {"quantale", "vcat", "tvcat", "space", "quniform"} <= outcomes
    assert {"undefined", "conflicting", "bad", "unrecognized", "expected"} <= outcomes
    assert "missing" in outcomes and "matrix" in outcomes


# ---------------------------------------------------------------------------
# One read and one split per file.


@pytest.fixture
def counted(monkeypatch):
    """Counts of fileio's reads and line splits."""
    counts = {"read": 0, "split": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(fileio, "_read_text", counting("read", fileio._read_text))
    monkeypatch.setattr(fileio, "_lines", counting("split", fileio._lines))
    return counts


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DATA) if f != "bad.quantale"))
def test_a_file_is_read_and_split_once(counted, name):
    kind, payload = load_file(os.path.join(DATA, name))
    if kind in ("vcat", "tvcat"):
        payload.resolve()
    assert counted == {"read": 1, "split": 1}


def test_a_category_with_a_sibling_quantale_is_read_and_split_twice(counted, tmp_path):
    (tmp_path / "myq.quantale").write_text(SIBLING)
    target = tmp_path / "c.vcat"
    target.write_text("vcat c over myq\nelements: x\nm[x,x] = t\n")
    kind, payload = load_file(str(target))
    assert counted == {"read": 1, "split": 1}
    payload.resolve()
    assert counted == {"read": 2, "split": 2}


# ---------------------------------------------------------------------------
# Where the readers differ from the reference on purpose.


def test_a_tensor_entry_with_its_star_after_the_equals_is_a_bad_entry():
    # the reference walk failed to unpack `a=b*a` (a ValueError, not a
    # ParseError); the reader reports it as the bad entry it is
    text = "quantale x\nelements: a b\norder: a<=b\nunit: b\ntensor: a*a=a a=b*a\n"
    with pytest.raises(ParseError) as err:
        parse_quantale_text(text, "f")
    assert (err.value.line, err.value.message) == (5, "bad tensor entry 'a=b*a', want a*b=c")
