"""Reference checks that more than one test module uses.

The library keeps what its commands run; these are oracles and law
checks that only the tests call, so they live here.  The
`largest-structure search` budget site is `oracle_largest_structure`.
"""

import itertools
import os
import random

from lawcat.completeness import decide_lawvere_complete
from lawcat.errors import LawcatError, ParseError
from lawcat.fileio import parse_quantale_text
from lawcat.instances import FinitePreorder, _points
from lawcat.monad import builtin_monad, builtin_monads
from lawcat.quantale import Quantale, builtin_quantales, validate_quantale
from lawcat.quniform import QuasiUniformity
from lawcat.tvcat import (
    Exponential,
    TVCategory,
    check_tvfunctor,
    hom_xi_category,
    is_tvbimodule,
    unit_tvcategory,
)
from lawcat.vmatrix import VMatrix, all_matrices, precompose_map, select_cols


def identity_matrix(q, n):
    """Unit on the diagonal, bottom elsewhere."""
    return VMatrix(q, n, n, [[q.unit if i == j else q.bottom for j in range(n)] for i in range(n)])


def constant_matrix(q, rows, cols, value):
    return VMatrix(q, rows, cols, [[value] * cols for _ in range(rows)])


def closed_masks(down):
    """Bitmasks of the down-sets, in increasing order, down[x] being the
    mask of the points below x.

    A mask is closed when the down-set of each of its points stays inside
    it; its set bits are walked from the lowest, stopping at the first
    point whose down-set leaves the mask.
    """
    closed = []
    for mask in range(1 << len(down)):
        rest = mask
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & ~mask:
                break
            rest ^= low
        else:
            closed.append(mask)
    return closed


def closed_sets(order):
    """Down-sets of a specialization preorder, as sorted tuples, by a walk
    over all 2^n masks (closed_masks)."""
    return [_points(mask) for mask in closed_masks(order.down)]


def weakly_sober_by_closed_sets(order):
    """weakly_sober's report by the reference search: every closed mask is
    tested against the union of its proper closed subsets.

    c is reducible exactly when the union of all its proper closed subsets
    is c.  One way is clear.  For the other, take a fewest proper closed
    subsets a1, ..., ak whose union is c: k >= 2, since each is proper, and
    closed sets are closed under finite unions, so c = a1 | (a2 | ... | ak)
    with the second set closed and, by minimality, proper.  The masks come
    in increasing order, so the proper subsets of c come before it.
    """
    down = order.down
    closed = closed_masks(down)
    details = []
    sober = True
    for i, c in enumerate(closed):
        if not c:
            continue
        below = 0
        for a in closed[:i]:
            if a & ~c == 0:
                below |= a
        if below == c:
            continue
        generic = tuple(x for x in _points(c) if down[x] == c)
        if not generic:
            sober = False
        details.append({"closed_set": _points(c), "generic_points": generic})
    return {"weakly_sober": sober, "irreducible": details}


def principal_ultrafilter(n, i):
    """The ultrafilter at index i of the ultra monad's T(n): the subsets of
    n containing i, as a frozenset of frozensets."""
    members = []
    for mask in range(1 << n):
        if mask & (1 << i):
            members.append(frozenset(b for b in range(n) if mask & (1 << b)))
    return frozenset(members)


def induced_modules(f, x, y):
    """The module pair of a map: lower = b . Tf, upper = f-transpose . b."""
    ext = x.ext
    tf = ext.monad.tmap(f, x.n, y.n)
    lower = precompose_map(y.a, tf, ext.monad.size(x.n))
    upper = select_cols(y.a, f)
    return lower, upper


def check_evaluation_functor(expo):
    """Evaluation out of base (x) exponential is a functor into the target.

    This is check_tvfunctor(ev, tensor_tvcat(x, expo.category()), y) on
    plain tuples, with the same budget charge and witness.  Its cells,
    a(T pi_x w, p) (x) f(T pi_f w, i) <= b(T ev w, ev(p, i)) for w in
    T(x (x) expo) and each point (p, i), depend on the structure f only
    through the entry f(T pi_f w, i).  So _evaluation_cells tabulates, once
    per base, target and carrier, which values each cell admits, and which
    values each entry of f may take; a candidate f is then checked entry by
    entry, and only a failing one is walked cell by cell, in order, for the
    first violated cell.
    """
    x, y = expo.base, expo.target
    ext = x.ext
    npair = x.n * expo.n
    ext.check_budget("tensor carrier", ext.monad.size(npair) * npair)
    key = ("evaluation cells", x.n, x.a.data, y.n, y.a.data, tuple(expo.carrier))
    cells, admits = ext.cached(key, lambda: _evaluation_cells(expo))
    f = expo.structure.data
    for ok_row, f_row in zip(admits, f):
        for ok, v in zip(ok_row, f_row):
            if not ok[v]:
                for w, point, row, i, passes in cells:
                    if not passes[f[row][i]]:
                        return {"ok": False, "witness": (w, point)}
    return {"ok": True}


def _evaluation_cells(expo):
    """The cells of check_evaluation_functor in order, as (w, point, row, i,
    ok) with ok[v] true when f(row, i) = v passes the cell, and per entry of
    f the values that pass every cell reading it."""
    x, y = expo.base, expo.target
    ext = x.ext
    q = ext.q
    nf = expo.n
    npair = x.n * nf
    tpix, tpif = ext.monad.projections(x.n, nf)
    ev = tuple(expo.carrier[i][p] for p in range(x.n) for i in range(nf))
    tev = ext.monad.tmap(ev, npair, y.n)
    admits = [[(True,) * q.n for _ in range(nf)] for _ in range(ext.monad.size(nf))]
    cells = []
    for w, (sx, row, st) in enumerate(zip(tpix, tpif, tev)):
        for p in range(x.n):
            av = x.a.data[sx][p]
            for i in range(nf):
                bv = y.a.data[st][ev[p * nf + i]]
                ok = tuple(q.leq[q.tensor[av][v]][bv] for v in range(q.n))
                cells.append((w, p * nf + i, row, i, ok))
                admits[row][i] = tuple(map(min, admits[row][i], ok))
    return cells, admits


def oracle_largest_structure(expo):
    """Full search for the largest evaluation-preserving structure (tiny only)."""
    x, y = expo.base, expo.target
    q = x.q
    rows, cols = expo.structure.rows, expo.n
    x.ext.check_budget("largest-structure search", q.n ** (rows * cols))
    best = constant_matrix(q, rows, cols, q.bottom)
    for cand_m in all_matrices(q, rows, cols, x.ext.max_enum):
        cand = Exponential(x, y, expo.carrier, cand_m, False)
        if check_evaluation_functor(cand)["ok"]:
            best = best.join(cand_m)
    return best


def reference_check_tvfunctor(f, x, y):
    """check_tvfunctor as the library wrote it before it read the order
    table: a(s, p) <= b(Tf(s), f(p)) cell by cell through q.le, s-major."""
    ext = x.ext
    tf = ext.monad.tmap(f, x.n, y.n)
    for s in range(ext.monad.size(x.n)):
        for p in range(x.n):
            if not ext.q.le(x.a.data[s][p], y.a.data[tf[s]][f[p]]):
                return {"ok": False, "witness": (s, p)}
    return {"ok": True}


def reference_tensor_tvcat(x, y):
    """tensor_tvcat as the library wrote it before it read the tensor
    table: entry (w, (p, u)) is a(T pi_x w, p) (x) b(T pi_y w, u) through
    q.tens, validated by VMatrix()."""
    ext = x.ext
    q = ext.q
    monad = ext.monad
    n = x.n * y.n
    ext.check_budget("tensor carrier", monad.size(n) * n)
    tpix, tpiy = ext.monad.projections(x.n, y.n)
    data = tuple(
        tuple(
            q.tens(x.a.data[tpix[w]][p], y.a.data[tpiy[w]][u])
            for p in range(x.n)
            for u in range(y.n)
        )
        for w in range(monad.size(n))
    )
    return TVCategory(ext, n, VMatrix(q, monad.size(n), n, data), name=f"{x.name}(x){y.name}")


def check_embeds_maps(ext, samples=20, seed=1, size=3):
    """extend(from_map f) equals from_map(Tf) on random functions."""
    q = ext.q
    monad = ext.monad
    rng = random.Random(seed)
    for _ in range(samples):
        nx = rng.randrange(1, size + 1)
        ny = rng.randrange(1, size + 1)
        f = tuple(rng.randrange(ny) for _ in range(nx))
        lhs = ext.extend(VMatrix.from_map(q, f, nx, ny))
        rhs = VMatrix.from_map(q, monad.tmap(f, nx, ny), monad.size(nx), monad.size(ny))
        if lhs != rhs:
            return {"ok": False, "witness": f}
    return {"ok": True}


def is_category(x):
    """Whether an identity-sized structure over a V with k = top is
    reflexive, top = a(p, p), and transitive, a(p, r) (x) a(r, s) <= a(p, s):
    an O(n^3) scan, the reference for check_tvcategory's identity branch."""
    q = x.ext.q
    top, tens, leq = q.top, q.tensor, q.leq
    a = x.a.data
    for p, row in enumerate(a):
        if row[p] != top:
            return False
        for u, mid in zip(row, a):
            tens_u = tens[u]
            for w, v in zip(mid, row):
                if not leq[tens_u[w]][v]:
                    return False
    return True


def group_quantale():
    """Z/3 with a bottom and a top adjoined, tensor the group sum.

    g1 and g2 are inverse units, so the right adjoint of the row (g1) is
    (g2): unlike over the built-ins, s is not the transpose of r.
    """
    labels = ("bot", "g0", "g1", "g2", "top")

    def tens(a, b):
        if "bot" in (a, b):
            return "bot"
        if "top" in (a, b):
            return "top"
        return f"g{(int(a[1]) + int(b[1])) % 3}"

    q = parse_quantale_text(
        "quantale z3\n"
        f"elements: {' '.join(labels)}\n"
        "order: bot<=g0 bot<=g1 bot<=g2 g0<=top g1<=top g2<=top\n"
        "unit: g0\n"
        f"tensor: {' '.join(f'{a}*{b}={tens(a, b)}' for a in labels for b in labels)}\n"
    )
    assert validate_quantale(q)["ok"]
    return q


def distance_readings(q):
    """The distance each element of a chain stands for: None (inf) for
    bottom, otherwise the number of elements strictly above it."""
    return tuple(
        None if u == q.bottom else sum(q.leq[u][v] for v in range(q.n)) - 1 for u in range(q.n)
    )


def _dist_le(a, b):
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def reference_levels(q, n, row):
    """Level sets A_v: the points whose distance is at most v's."""
    num = distance_readings(q)
    return {v: frozenset(x for x in range(n) if _dist_le(num[row[x]], num[v])) for v in range(q.n)}


def reference_point_distance(cat, pts, x):
    """Least distance into x from the points of pts; None when there is none."""
    num = distance_readings(cat.q)
    finite = [num[cat.a.data[y][x]] for y in pts if num[cat.a.data[y][x]] is not None]
    return min(finite) if finite else None


def reference_closed(cat, levels):
    """d(A_u, x) <= v forces x into the level at u + v, for all u, v, x."""
    q = cat.q
    num = distance_readings(q)
    for u in range(q.n):
        for x in range(cat.n):
            d = reference_point_distance(cat, levels[u], x)
            for v in range(q.n):
                if _dist_le(d, num[v]) and x not in levels[q.tens(u, v)]:
                    return False
    return True


def reference_companion(cat, levels):
    """y is in the level at v when a(y, x) <= u + v for every x in A_u."""
    q = cat.q
    num = distance_readings(q)
    return {
        v: frozenset(
            y
            for y in range(cat.n)
            if all(
                _dist_le(num[cat.a.data[y][x]], num[q.tens(u, v)])
                for u in range(q.n)
                for x in levels[u]
            )
        )
        for v in range(q.n)
    }


def reference_irreducible(cat, levels):
    comp = reference_companion(cat, levels)
    return all(levels[u] & comp[u] for u in range(cat.q.n))


def reference_representable(cat, levels):
    """Points whose distance profile has the family's level sets."""
    return [
        x
        for x in range(cat.n)
        if levels == reference_levels(cat.q, cat.n, cat.a.data[x])
    ]


def reference_approach_surrogate(cat):
    """approach_surrogate's report by distances: each element of the chain
    is read as distance_readings gives it, and the level sets, distances
    from a set, companions and profiles are compared as numbers, with
    None as inf.  Principal carriers are assumed."""
    ext = cat.ext
    q = cat.q
    verdict = decide_lawvere_complete(cat)
    psi_levels = {
        pair.phi.data[0]: reference_levels(q, cat.n, tuple(r[0] for r in pair.psi.data))
        for pair in verdict["pairs"]
    }
    pcat = unit_tvcategory(ext)
    vxi = hom_xi_category(ext)
    mismatches = []
    analysis_complete = True
    for row in itertools.product(range(q.n), repeat=cat.n):
        phi = VMatrix(q, 1, cat.n, (row,))
        bim = is_tvbimodule(phi, pcat, cat)
        functor = check_tvfunctor(row, cat, vxi)["ok"]
        levels = reference_levels(q, cat.n, row)
        closed = reference_closed(cat, levels)
        if not (bim == functor == closed):
            mismatches.append({"row": row, "bimodule": bim, "functor": functor, "closed": closed})
        if bim:
            has_adjoint = row in psi_levels
            irr = reference_irreducible(cat, levels)
            if has_adjoint != irr:
                mismatches.append({"row": row, "has_adjoint": has_adjoint, "irreducible": irr})
            if has_adjoint and reference_companion(cat, levels) != psi_levels[row]:
                mismatches.append({"row": row, "companion_mismatch": True})
            if closed and irr and not reference_representable(cat, levels):
                analysis_complete = False
    agree = not mismatches
    return {
        "mismatches": mismatches,
        "analysis_complete": analysis_complete,
        "lawvere_complete": verdict["complete"],
        "equivalence": agree and analysis_complete == verdict["complete"],
    }


# ---------------------------------------------------------------------------
# The reference file readers: the line walk that `lawcat.fileio` replaced with
# a one-pass reader, kept as it was (public names prefixed `reference_`).  A
# file is split into lines by a generator, once to find its kind and again by
# its reader; each reader walks the lines through handler closures; entries
# are collected into a dict and written into the matrix afterwards.  The
# differential tests (test_fileio) check that the library's readers return
# equal results and raise the same errors.


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


def reference_parse_quantale_text(text, path="<string>"):
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


class ReferenceCategory:
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
            q = reference_parse_quantale_text(_read_text(sibling), sibling)
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


def reference_parse_category_text(text, path="<string>"):
    items = []  # the matrix entry lines, read when the category is resolved
    header, labels = _read_lines(text, path, _category_header, {}, "empty category file", items)
    return ReferenceCategory(*header, labels, items, path)


def reference_parse_space_text(text, path="<string>"):
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


def reference_parse_quniform_text(text, path="<string>"):
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


REFERENCE_READERS = {
    "quantale": reference_parse_quantale_text,
    "vcat": reference_parse_category_text,
    "tvcat": reference_parse_category_text,
    "space": reference_parse_space_text,
    "quniform": reference_parse_quniform_text,
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


def reference_load_file(path):
    """Parse one file into (kind, payload); categories stay unresolved."""
    text = _read_text(path)
    for lineno, line in _lines(text):
        kind = line.split()[0]
        if kind not in REFERENCE_READERS:
            raise ParseError(path, lineno, f"unknown object kind {kind!r}")
        return kind, REFERENCE_READERS[kind](text, path)
    raise ParseError(path, 1, "empty file")
