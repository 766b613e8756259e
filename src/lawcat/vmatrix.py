"""V-matrices: composition, transpose, map embedding, adjunctions.

A matrix r: X -|-> Y over a quantale is a dense rows x cols table of
carrier indices.  Composition is matrix multiplication with tensor as
product and join as sum: (s.r)(x,z) = V_y r(x,y) (x) s(y,z).
"""

from __future__ import annotations

import itertools

from .errors import DEFAULT_MAX_ENUM, BudgetExceeded, DimensionMismatch
from .quantale import same_quantale, tensor_complement_scan


class VMatrix:
    __slots__ = ("q", "rows", "cols", "data")

    def __init__(self, q, rows, cols, data):
        self.q = q
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(row) for row in data)
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise DimensionMismatch(f"declared {rows}x{cols}, got ragged data")

    def __eq__(self, other):
        return (
            isinstance(other, VMatrix)
            and self.q is other.q
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.q), self.rows, self.cols, self.data))

    def __repr__(self):
        return f"VMatrix({self.rows}x{self.cols} over {self.q.name})"

    def entry(self, i, j):
        return self.data[i][j]

    def transpose(self):
        return VMatrix(
            self.q,
            self.cols,
            self.rows,
            tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def le(self, other):
        """Pointwise order."""
        same_quantale(self.q, other.q)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("order compares equal shapes only")
        leq = self.q.leq
        return all(
            leq[self.data[i][j]][other.data[i][j]]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def join(self, other):
        same_quantale(self.q, other.q)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("join needs equal shapes")
        jt = self.q.join_t
        return VMatrix(
            self.q,
            self.rows,
            self.cols,
            tuple(
                tuple(jt[self.data[i][j]][other.data[i][j]] for j in range(self.cols))
                for i in range(self.rows)
            ),
        )

    @staticmethod
    def identity(q, n):
        return VMatrix(
            q, n, n, tuple(tuple(q.unit if i == j else q.bottom for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_map(q, f, n_src, n_tgt):
        """Embed a function as a matrix: unit on the graph, bottom elsewhere."""
        f = tuple(f)
        if len(f) != n_src or any(not (0 <= y < n_tgt) for y in f):
            raise DimensionMismatch("map table does not match declared sets")
        return VMatrix(
            q,
            n_src,
            n_tgt,
            tuple(tuple(q.unit if f[i] == j else q.bottom for j in range(n_tgt)) for i in range(n_src)),
        )

    @staticmethod
    def constant(q, rows, cols, value):
        return VMatrix(q, rows, cols, tuple(tuple(value for _ in range(cols)) for _ in range(rows)))

    def is_map(self):
        """True when the matrix is the embedding of a function."""
        k, bot = self.q.unit, self.q.bottom
        for row in self.data:
            if sum(1 for v in row if v == k) != 1:
                return False
            if any(v not in (k, bot) for v in row):
                return False
        return True

    def as_map(self):
        return tuple(row.index(self.q.unit) for row in self.data)


def mcompose(outer, inner):
    """Composite outer.inner for inner: X -|-> Y and outer: Y -|-> Z."""
    same_quantale(outer.q, inner.q)
    if inner.cols != outer.rows:
        raise DimensionMismatch(
            f"cannot compose {outer.rows}x{outer.cols} after {inner.rows}x{inner.cols}"
        )
    q = inner.q
    tens, join_t, bot = q.tensor, q.join_t, q.bottom
    mid = inner.cols
    out = []
    for x in range(inner.rows):
        rin = inner.data[x]
        row = []
        for z in range(outer.cols):
            acc = bot
            for y in range(mid):
                t = tens[rin[y]][outer.data[y][z]]
                if t != bot:
                    acc = join_t[acc][t]
            row.append(acc)
        out.append(tuple(row))
    return VMatrix(q, inner.rows, outer.cols, tuple(out))


def precompose_map(m, f, n_src):
    """m.f for a function f: row reindexing, (m.f)(x,z) = m(f(x),z)."""
    return VMatrix(m.q, n_src, m.cols, tuple(m.data[f[x]] for x in range(n_src)))


def postcompose_map(g, n_tgt, m):
    """g.m for a function g on the codomain: column joins over fibers."""
    q = m.q
    join_t, bot = q.join_t, q.bottom
    out = []
    for x in range(m.rows):
        row = [bot] * n_tgt
        rdat = m.data[x]
        for y in range(m.cols):
            z = g[y]
            row[z] = join_t[row[z]][rdat[y]]
        out.append(tuple(row))
    return VMatrix(q, m.rows, n_tgt, tuple(out))


def select_cols(m, f):
    """m restricted along a function into its column set: (x,z) -> m(x,f(z))."""
    return VMatrix(
        m.q,
        m.rows,
        len(f),
        tuple(tuple(m.data[x][f[z]] for z in range(len(f))) for x in range(m.rows)),
    )


def check_adjunction(r, s):
    """Decide r -| s for r: X -|-> Y, s: Y -|-> X.

    Evaluates 1_X <= s.r and r.s <= 1_Y, plus the pointwise reading
    (unit join equals the quantale unit on each x; cross terms at
    distinct targets annihilate) and confirms the two agree.
    """
    same_quantale(r.q, s.q)
    q = r.q
    if r.rows != s.cols or r.cols != s.rows:
        raise DimensionMismatch("adjunction needs opposed shapes")
    unit_fail = []
    sr = mcompose(s, r)
    for x in range(r.rows):
        if not q.le(q.unit, sr.data[x][x]):
            unit_fail.append(x)
    counit_fail = []
    rs = mcompose(r, s)
    eye = VMatrix.identity(q, r.cols)
    for y in range(r.cols):
        for y2 in range(r.cols):
            if not q.le(rs.data[y][y2], eye.data[y][y2]):
                counit_fail.append((y, y2))
    ok = not unit_fail and not counit_fail

    pointwise_ok = True
    for x in range(r.rows):
        acc = q.bottom
        for y in range(r.cols):
            acc = q.join(acc, q.tens(r.data[x][y], s.data[y][x]))
        if acc != q.unit:
            pointwise_ok = False
        for y in range(r.cols):
            for y2 in range(r.cols):
                if y != y2 and q.tens(s.data[y][x], r.data[x][y2]) != q.bottom:
                    pointwise_ok = False
    if pointwise_ok != ok:
        raise AssertionError("adjunction characterizations disagree; composition bug")
    return {"is_adjoint": ok, "unit_failures": unit_fail, "counit_failures": counit_fail}


def right_adjoint_candidate(r):
    """Largest s with r.s <= 1_Y; the unique right adjoint when one exists."""
    q = r.q
    data = []
    for y in range(r.cols):
        row = []
        for x in range(r.rows):
            acc = q.top
            for z in range(r.cols):
                bound = q.unit if y == z else q.bottom
                acc = q.meet(acc, q.hom(r.data[x][z], bound))
            row.append(acc)
        data.append(tuple(row))
    return VMatrix(q, r.cols, r.rows, tuple(data))


def is_left_adjoint(r):
    """Left adjointness test via the canonical right adjoint candidate."""
    s = right_adjoint_candidate(r)
    sr = mcompose(s, r)
    k = r.q.unit
    if all(r.q.le(k, sr.data[x][x]) for x in range(r.rows)):
        return s
    return None


def all_matrices(q, rows, cols, max_enum=DEFAULT_MAX_ENUM):
    """Yield every rows x cols matrix over q, in lexicographic entry order."""
    count = q.n ** (rows * cols)
    if count > max_enum:
        raise BudgetExceeded(f"matrix space {rows}x{cols} over {q.name}", count, max_enum)
    for flat in itertools.product(range(q.n), repeat=rows * cols):
        yield VMatrix(q, rows, cols, tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)))


def left_adjoint_map_criterion(q, bound=2, max_enum=DEFAULT_MAX_ENUM):
    """Compare the algebraic map criterion with brute-forced left adjoints.

    (a) evaluates the two hypotheses via the complement scan; (b) finds all
    left adjoint matrices r: X -|-> Y with |X|,|Y| <= bound and tests each
    for being an embedded function; (c) asserts (a) iff (b) on that range.
    The collected adjunctions are returned so order-reversal (adjoint pairs
    reverse the pointwise order) can be checked on the same sweep.
    """
    scan = tensor_complement_scan(q)
    hypotheses = scan["hypotheses_hold"]
    non_maps = []
    adjunctions = []
    total_left = 0
    for nx in range(1, bound + 1):
        for ny in range(1, bound + 1):
            shape_adj = []
            for r in all_matrices(q, nx, ny, max_enum):
                s = is_left_adjoint(r)
                if s is None:
                    continue
                total_left += 1
                shape_adj.append((r, s))
                if not r.is_map():
                    non_maps.append(r)
            adjunctions.append(((nx, ny), shape_adj))
    all_maps = not non_maps
    return {
        "hypotheses_hold": hypotheses,
        "all_left_adjoints_are_maps": all_maps,
        "equivalence_holds": hypotheses == all_maps,
        "left_adjoint_count": total_left,
        "non_map_witnesses": non_maps,
        "adjunctions": adjunctions,
        "scan": scan,
    }


def check_order_reversal(adjunctions):
    """For adjunctions of one shape: r <= r' iff s' <= s, over all pairs."""
    bad = []
    for (shape, pairs) in adjunctions:
        for (r, s) in pairs:
            for (r2, s2) in pairs:
                if r.le(r2) != s2.le(s):
                    bad.append((shape, r, r2))
    return {"ok": not bad, "failures": bad}
