"""V-matrices: composition, transpose, map embedding, adjunctions.

A matrix r: X -|-> Y over a quantale is a dense rows x cols table of
carrier indices.  Composition is matrix multiplication with tensor as
product and join as sum: (s.r)(x,z) = V_y r(x,y) (x) s(y,z).
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatch
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
        n = q.n
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if not (isinstance(v, int) and 0 <= v < n):
                    raise DimensionMismatch(f"entry ({i}, {j}) is {v!r}, not an element of {q.name}")

    @classmethod
    def trusted(cls, q, rows, cols, data):
        """A matrix on data that is already a rows x cols tuple of tuples.

        Nothing is copied or checked: for internal callers that build the
        rows themselves.  Data from a file or a user goes through VMatrix().
        """
        m = object.__new__(cls)
        m.q = q
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

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

    def transpose(self):
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return VMatrix.trusted(self.q, self.cols, self.rows, data)

    def le(self, other):
        """Pointwise order."""
        same_quantale(self.q, other.q)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("order compares equal shapes only")
        return rows_le(self.q, self.data, other.data)

    def join(self, other):
        same_quantale(self.q, other.q)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("join needs equal shapes")
        jt = self.q.join_t
        return VMatrix.trusted(
            self.q,
            self.rows,
            self.cols,
            tuple(
                tuple([jt[u][v] for u, v in zip(row, other_row)])
                for row, other_row in zip(self.data, other.data)
            ),
        )

    @staticmethod
    def from_map(q, f, n_src, n_tgt):
        """Embed a function as a matrix: unit on the graph, bottom elsewhere."""
        f = tuple(f)
        if len(f) != n_src or any(not (0 <= y < n_tgt) for y in f):
            raise DimensionMismatch("map table does not match declared sets")
        blank = (q.bottom,) * n_tgt
        return VMatrix.trusted(
            q, n_src, n_tgt, tuple(blank[:y] + (q.unit,) + blank[y + 1 :] for y in f)
        )

    def is_map(self):
        """True when the matrix is the embedding of a function."""
        k, bot = self.q.unit, self.q.bottom
        for row in self.data:
            if sum(1 for v in row if v == k) != 1:
                return False
            if any(v not in (k, bot) for v in row):
                return False
        return True


def mcompose(outer, inner):
    """Composite outer.inner for inner: X -|-> Y and outer: Y -|-> Z."""
    same_quantale(outer.q, inner.q)
    if inner.cols != outer.rows:
        raise DimensionMismatch(
            f"cannot compose {outer.rows}x{outer.cols} after {inner.rows}x{inner.cols}"
        )
    q = inner.q
    out = compose_rows(q, inner.data, outer.data, outer.cols)
    return VMatrix.trusted(q, inner.rows, outer.cols, out)


def rows_le(q, rows, bound):
    """Whether rows <= bound pointwise, for two tables of one shape."""
    leq = q.leq
    for row, bound_row in zip(rows, bound):
        for u, v in zip(row, bound_row):
            if not leq[u][v]:
                return False
    return True


def composite_le(q, rows, odata, bound):
    """Whether rows.odata <= bound, with no composite built.

    rows are the rows of an inner matrix, odata the data of an outer one
    and bound a table of the composite's shape.  A cell of the composite
    is the join over y of rows[x][y] (x) odata[y][z], and a join is below
    bound[x][z] exactly when every one of its terms is.  So each term is
    compared with its bound, a bottom entry of rows (whose terms are all
    bottom) is skipped, and the loop stops at the first term that is not
    below its bound.
    """
    tens, leq, bot = q.tensor, q.leq, q.bottom
    for rin, brow in zip(rows, bound):
        for u, orow in zip(rin, odata):
            if u == bot:
                continue
            tens_u = tens[u]
            for w, v in zip(orow, brow):
                if not leq[tens_u[w]][v]:
                    return False
    return True


def compose_rows(q, rows, odata, ncols):
    """The rows of outer.inner, from the rows of inner and outer's data, ncols wide."""
    tens, join_t, bot = q.tensor, q.join_t, q.bottom
    cols = range(ncols)
    out = []
    for rin in rows:
        row = [bot] * ncols
        # a bottom entry tensors every entry of its outer row to bottom
        for y, u in enumerate(rin):
            if u == bot:
                continue
            orow = odata[y]
            tens_u = tens[u]
            for z in cols:
                t = tens_u[orow[z]]
                if t != bot:
                    row[z] = join_t[row[z]][t]
        out.append(tuple(row))
    return tuple(out)


def precompose_map(m, f, n_src):
    """m.f for a function f: row reindexing, (m.f)(x,z) = m(f(x),z)."""
    return VMatrix.trusted(m.q, n_src, m.cols, tuple(m.data[f[x]] for x in range(n_src)))


def postcompose_map(g, n_tgt, m):
    """g.m for a function g on the codomain: column joins over fibers."""
    return VMatrix.trusted(m.q, m.rows, n_tgt, postcompose_rows(m.q, g, n_tgt, m.data))


def postcompose_rows(q, g, n_tgt, rows):
    """The rows of g.m from the rows of m: row[z] joins the entries over g's fibre at z."""
    join_t, bot = q.join_t, q.bottom
    out = []
    for rdat in rows:
        row = [bot] * n_tgt
        for z, v in zip(g, rdat):
            row[z] = join_t[row[z]][v]
        out.append(tuple(row))
    return tuple(out)


def select_cols(m, f):
    """m restricted along a function into its column set: (x,z) -> m(x,f(z))."""
    return VMatrix.trusted(m.q, m.rows, len(f), tuple(tuple([row[y] for y in f]) for row in m.data))


def right_adjoint_candidate(r):
    """Largest s with r.s <= 1_Y; the unique right adjoint when one exists.

    s(y, x) is the meet over z of hom(r(x, z), k) at z = y and
    hom(r(x, z), bottom) elsewhere.
    """
    q = r.q
    meet_t, hom_t, k, bot = q.meet_t, q.hom_t, q.unit, q.bottom
    data = []
    for y in range(r.cols):
        row = []
        for rx in r.data:
            acc = q.top
            for z, v in enumerate(rx):
                acc = meet_t[acc][hom_t[v][k if z == y else bot]]
            row.append(acc)
        data.append(tuple(row))
    return VMatrix.trusted(q, r.cols, r.rows, tuple(data))


def is_left_adjoint(r):
    """Left adjointness test via the canonical right adjoint candidate.

    Only the diagonal of s.r is needed: k <= V_y r(x, y) (x) s(y, x).
    """
    s = right_adjoint_candidate(r)
    q = r.q
    tens, join_t, above_k = q.tensor, q.join_t, q.leq[q.unit]
    for x, rx in enumerate(r.data):
        acc = q.bottom
        for y, v in enumerate(rx):
            acc = join_t[acc][tens[v][s.data[y][x]]]
        if not above_k[acc]:
            return None
    return s


def all_matrices(q, rows, cols):
    """Yield every rows x cols matrix over q, in lexicographic entry order.

    Nothing is charged here: each caller has already charged at least
    q.n^(rows * cols) on its extension.  tvcat.all_tvcategories charges
    the "structure space", which is that count, and the oracle of
    completeness.enumerate_adjoint_pairs the "pair space", which is at
    least each of its two sweeps.
    """
    for flat in itertools.product(range(q.n), repeat=rows * cols):
        yield VMatrix.trusted(
            q, rows, cols, tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))
        )


def _left_adjoint_rows(q, ny):
    """(row, s-column) of every 1 x ny left adjoint over q, in lexicographic order."""
    good = []
    for row in itertools.product(range(q.n), repeat=ny):
        s = is_left_adjoint(VMatrix.trusted(q, 1, ny, (row,)))
        if s is not None:
            good.append((row, tuple(v for (v,) in s.data)))
    return good


def left_adjoint_map_criterion(ext, bound=2):
    """Compare the algebraic map criterion with every left adjoint matrix.

    (a) evaluates the two hypotheses via the complement scan; (b) finds all
    left adjoint matrices r: X -|-> Y with |X|,|Y| <= bound and tests each
    for being an embedded function; (c) asserts (a) iff (b) on that range.
    The collected adjunctions are returned so order-reversal (adjoint pairs
    reverse the pointwise order) can be checked on the same sweep.

    Left adjointness is row-local.  The candidate s(y, x) = meet_z
    hom(r(x, z), k if z = y else bottom) reads only row x of r, and the
    test at x, k <= V_y r(x, y) (x) s(y, x), reads only row x of r and
    column x of s.  So r is a left adjoint iff each of its rows is one as
    a 1 x ny matrix, and column x of its right adjoint is that row's.  The
    left adjoints of a shape are then the products of left adjoint rows,
    which row-major lexicographic order lists in `all_matrices` order.
    Each shape still charges its whole matrix space, q.n^(nx*ny), on ext
    before it is listed.  The sweep is the (id, V) case of a (T, V) one,
    so ext holds V and the budget and is extended nowhere.
    """
    q = ext.q
    hypotheses = tensor_complement_scan(q)["hypotheses_hold"]
    non_maps = []
    adjunctions = []
    total_left = 0
    rows_of_width = {}
    for nx in range(1, bound + 1):
        for ny in range(1, bound + 1):
            ext.check_budget(f"matrix space {nx}x{ny} over {q.name}", q.n ** (nx * ny))
            if ny not in rows_of_width:
                rows_of_width[ny] = _left_adjoint_rows(q, ny)
            shape_adj = []
            for rows in itertools.product(rows_of_width[ny], repeat=nx):
                r = VMatrix.trusted(q, nx, ny, tuple(row for row, _ in rows))
                s = VMatrix.trusted(q, ny, nx, tuple(zip(*(col for _, col in rows))))
                shape_adj.append((r, s))
                if not r.is_map():
                    non_maps.append(r)
            total_left += len(shape_adj)
            adjunctions.append(((nx, ny), shape_adj))
    all_maps = not non_maps
    return {
        "hypotheses_hold": hypotheses,
        "all_left_adjoints_are_maps": all_maps,
        "equivalence_holds": hypotheses == all_maps,
        "left_adjoint_count": total_left,
        "non_map_witnesses": non_maps,
        "adjunctions": adjunctions,
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
