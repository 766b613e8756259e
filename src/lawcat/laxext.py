"""Lax extension of a finitary monad to V-matrices, and the algebra on V.

A matrix r is extended threshold by threshold: for every carrier element
v the relation r_v = {(x,y) | r(x,y) >= v} is extended by the span of its
graph under T, and Tr(u,w) is the join of the thresholds whose extended
relation contains (u,w).  The same machinery yields the canonical
algebra structure xi on the quantale carrier, xi(s) = V{v | s in T(up v)}.
"""

from __future__ import annotations

import random
import zlib

from .errors import DEFAULT_MAX_ENUM, BudgetExceeded, GateUnavailable
from .vmatrix import VMatrix, mcompose, postcompose_map, precompose_map


class LaxExtension:
    """A monad/quantale pair with memoized matrix extension and xi.

    Construction refuses inadmissible combinations: the threshold-span
    formula only defines an extension when the unit is the top element
    or T of the empty set is empty.
    """

    def __init__(self, monad, q, max_enum=DEFAULT_MAX_ENUM):
        if monad.size(0) != 0 and q.unit != q.top:
            raise GateUnavailable(
                "unit-top-or-T-empty-empty",
                f"monad {monad.name} has nonempty T0 and {q.name} has k != top",
            )
        self.monad = monad
        self.q = q
        self.max_enum = max_enum
        self._memo = {}
        self._xi = None
        self._unit_maps = {}
        self._mult_maps = {}
        self._mult_fibers = {}
        self._caps = None
        self.cache = {}

    def unit_map(self, n):
        if n not in self._unit_maps:
            self._unit_maps[n] = self.monad.unit_map(n)
        return self._unit_maps[n]

    def mult_map(self, n):
        if n not in self._mult_maps:
            self._mult_maps[n] = self.monad.mult_map(n)
        return self._mult_maps[n]

    def mult_fibers(self, n):
        """Preimage lists of the multiplication, indexed by T(n)."""
        if n not in self._mult_fibers:
            mu = self.mult_map(n)
            fibers = [[] for _ in range(self.monad.size(n))]
            for big, small in enumerate(mu):
                fibers[small].append(big)
            self._mult_fibers[n] = tuple(tuple(f) for f in fibers)
        return self._mult_fibers[n]

    def extend(self, m):
        """Extension T(m): T(rows) -|-> T(cols) of a matrix m.

        When the carrier grows and m has duplicate rows or columns, the
        quotient by the row and column classes is extended and read back
        through T of the class maps.  This is exact because the extension
        commutes with maps: T(r.q) = T(r).Tq and T(c°.r) = (Tc)°.T(r)
        (laws (a) and (b) of check_extension_laws).
        """
        key = (m.rows, m.cols, m.data)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        trows = self.monad.size(m.rows)
        tcols = self.monad.size(m.cols)
        if trows * tcols > self.max_enum:
            raise BudgetExceeded("extended matrix size", trows * tcols, self.max_enum)
        if (trows > m.rows or tcols > m.cols) and (
            len(set(m.data)) < m.rows or len(set(_columns(m))) < m.cols
        ):
            result = self._extend_quotient(m, trows, tcols)
        else:
            result = _threshold_extend(self.monad, self.q, m)
        self._memo[key] = result
        return result

    def _extend_quotient(self, m, trows, tcols):
        monad, q = self.monad, self.q
        rq, row_reps = _classes(m.data)
        cq, col_reps = _classes(_columns(m))
        small = VMatrix(
            q,
            len(row_reps),
            len(col_reps),
            [[m.data[i][j] for j in col_reps] for i in row_reps],
        )
        rows = _threshold_extend(monad, q, small).data
        # A side without duplicates has the identity as class map: skip it.
        # Otherwise each row of the quotient's extension is re-indexed once
        # and shared by every row in its T(rq) class.
        if small.cols < m.cols:
            tcq = monad.tmap(cq, m.cols, small.cols)
            rows = [tuple([row[b] for b in tcq]) for row in rows]
        if small.rows < m.rows:
            rows = [rows[a] for a in monad.tmap(rq, m.rows, small.rows)]
        return VMatrix(q, trows, tcols, rows)

    def capabilities(self):
        """Machine-checked gates consumed by conditional results.

        t1_is_one and t_empty_is_empty are exact; tensor_strict is exact
        over T(V x V); m_natural is the equality form of the oplax
        multiplication law sampled over generated matrices, and is False
        when the budget skipped a sample.
        """
        if self._caps is None:
            compat = check_xi_compat(self, samples=8)
            laws = check_extension_laws(self, samples=12)
            self._caps = {
                "t1_is_one": self.monad.size(1) == 1,
                "t_empty_is_empty": self.monad.size(0) == 0,
                "tensor_strict": compat["tensor_strict"],
                "m_natural": laws["m_natural"],
            }
        return self._caps

    def xi(self):
        """Algebra table on the quantale carrier: xi(s) = V{v | s in T(up v)}."""
        if self._xi is not None:
            return self._xi
        q = self.q
        tn = self.monad.size(q.n)
        acc = [q.bottom] * tn
        for v in range(q.n):
            up = [u for u in range(q.n) if q.leq[v][u]]
            incl = self.monad.tmap(tuple(up), len(up), q.n)
            for z in range(self.monad.size(len(up))):
                s = incl[z]
                acc[s] = q.join_t[acc[s]][v]
        self._xi = tuple(acc)
        return self._xi


def _threshold_extend(monad, q, m):
    """Unreduced extension: the join over thresholds v of v on T(r_v).

    Base case of LaxExtension.extend, and the reference it is tested against.
    """
    trows = monad.size(m.rows)
    tcols = monad.size(m.cols)
    out = [[q.bottom] * tcols for _ in range(trows)]
    for v in range(q.n):
        if v == q.bottom:
            continue
        pairs = [
            (x, y)
            for x in range(m.rows)
            for y in range(m.cols)
            if q.leq[v][m.data[x][y]]
        ]
        for (i, j) in monad.extend_relation(pairs, m.rows, m.cols):
            out[i][j] = q.join_t[out[i][j]][v]
    return VMatrix(q, trows, tcols, out)


def _columns(m):
    return tuple(zip(*m.data)) if m.rows else ((),) * m.cols


def _classes(vectors):
    """Class of each vector under equality, numbered by first appearance,
    and the index of the first member of each class."""
    ids = {}
    classes = tuple([ids.setdefault(v, len(ids)) for v in vectors])
    return classes, [classes.index(c) for c in range(len(ids))]


def check_xi(ext, max_enum=DEFAULT_MAX_ENUM):
    """Eilenberg-Moore laws for xi, plus its link with the extended element matrix.

    Verifies xi . e_V = id on V, xi . m_V = xi . T(xi) on T^2(V), and that
    the extension of i: 1 -|-> V (the matrix whose entry at v is v itself)
    satisfies Ti(Tq(y), y) = xi(y) for the collapse map q: V -> 1, with
    Ti(x, y) <= xi(y) everywhere.
    """
    q = ext.q
    monad = ext.monad
    xi = ext.xi()
    n = q.n
    tn = monad.size(n)
    for u in range(n):
        if xi[ext.unit_map(n)[u]] != u:
            return {"ok": False, "law": "xi-unit", "witness": q.labels[u]}
    ttn = monad.size(tn)
    if ttn > max_enum:
        raise BudgetExceeded("T^2 of quantale carrier", ttn, max_enum)
    mu = ext.mult_map(n)
    txi = monad.tmap(xi, tn, n)
    for big in range(ttn):
        if xi[mu[big]] != xi[txi[big]]:
            return {"ok": False, "law": "xi-mult", "witness": big}

    i_mat = VMatrix(q, 1, n, (tuple(range(n)),))
    ti = ext.extend(i_mat)
    tq_map = monad.tmap((0,) * n, n, 1)
    for y in range(tn):
        if ti.data[tq_map[y]][y] != xi[y]:
            return {"ok": False, "law": "xi-Ti-link", "witness": y}
        for x in range(monad.size(1)):
            if not q.le(ti.data[x][y], xi[y]):
                return {"ok": False, "law": "xi-Ti-bound", "witness": (x, y)}
    return {"ok": True}


def check_xi_functor(ext):
    """xi as a structure-preserving map: T hom(x,y) <= hom(xi x, xi y)."""
    q = ext.q
    hom_mat = VMatrix(q, q.n, q.n, q.hom_t)
    thom = ext.extend(hom_mat)
    xi = ext.xi()
    tn = ext.monad.size(q.n)
    bad = [
        (x, y)
        for x in range(tn)
        for y in range(tn)
        if not q.le(thom.data[x][y], q.hom(xi[x], xi[y]))
    ]
    return {"ok": not bad, "failures": bad}


def _pair_index(nx, ny):
    def idx(x, y):
        return x * ny + y

    return idx


def check_xi_compat(ext, samples=20, seed=0, max_enum=DEFAULT_MAX_ENUM):
    """Compatibility of xi with the tensor, the unit and the extension.

    Checks, with witnesses: xi(T k) dominates k on T1; the tensor-algebra
    inequality xi(T pi1 w) (x) xi(T pi2 w) <= xi(T tensor (w)) together with
    the strictness flag; per-element preservation of binary joins by
    hom(u,-) and the induced inequality xi . T(hom(u,-)) <= hom(u,-) . xi;
    and the span/algebra factorization of the extension on sampled matrices.
    """
    q = ext.q
    monad = ext.monad
    xi = ext.xi()
    n = q.n
    report = {}

    t1 = monad.size(1)
    k_map = monad.tmap((q.unit,), 1, n)
    unit_ineq = all(q.le(q.unit, xi[k_map[z]]) for z in range(t1))
    unit_eq = all(xi[k_map[z]] == q.unit for z in range(t1))
    report["unit_inequality"] = unit_ineq
    report["unit_equality"] = unit_eq

    nn = n * n
    tnn = monad.size(nn)
    if tnn > max_enum:
        raise BudgetExceeded("T of V x V", tnn, max_enum)
    idx = _pair_index(n, n)
    pi1 = tuple(u for u in range(n) for _ in range(n))
    pi2 = tuple(v for _ in range(n) for v in range(n))
    tens_map = tuple(q.tensor[u][v] for u in range(n) for v in range(n))
    tpi1 = monad.tmap(pi1, nn, n)
    tpi2 = monad.tmap(pi2, nn, n)
    ttens = monad.tmap(tens_map, nn, n)
    tensor_le = True
    tensor_strict = True
    for w in range(tnn):
        lhs = q.tens(xi[tpi1[w]], xi[tpi2[w]])
        rhs = xi[ttens[w]]
        if not q.le(lhs, rhs):
            tensor_le = False
        if lhs != rhs:
            tensor_strict = False
    report["tensor_inequality"] = tensor_le
    report["tensor_strict"] = tensor_strict

    hom_sup = {}
    hom_xi_ineq = {}
    tn = monad.size(n)
    for u in range(n):
        hom_sup[q.labels[u]] = all(
            q.hom(u, q.join(v, w)) == q.join(q.hom(u, v), q.hom(u, w))
            for v in range(n)
            for w in range(n)
        )
        hom_u = tuple(q.hom_t[u])
        thom_u = monad.tmap(hom_u, n, n)
        hom_xi_ineq[q.labels[u]] = all(
            q.le(xi[thom_u[s]], q.hom(u, xi[s])) for s in range(tn)
        )
    report["hom_preserves_nonempty_sups"] = hom_sup
    report["hom_xi_inequality"] = hom_xi_ineq

    rng = random.Random(seed)
    diagram_ok = True
    witness = None
    for _ in range(samples):
        nx = rng.randrange(1, 3)
        ny = rng.randrange(1, 3)
        r = VMatrix(
            q, nx, ny, tuple(tuple(rng.randrange(n) for _ in range(ny)) for _ in range(nx))
        )
        tr = ext.extend(r)
        pidx = _pair_index(nx, ny)
        pix = tuple(x for x in range(nx) for _ in range(ny))
        piy = tuple(y for _ in range(nx) for y in range(ny))
        r_map = tuple(r.data[x][y] for x in range(nx) for y in range(ny))
        tpix = monad.tmap(pix, nx * ny, nx)
        tpiy = monad.tmap(piy, nx * ny, ny)
        tor = monad.tmap(r_map, nx * ny, n)
        joined = [[q.bottom] * tr.cols for _ in range(tr.rows)]
        for w in range(monad.size(nx * ny)):
            a, b = tpix[w], tpiy[w]
            joined[a][b] = q.join(joined[a][b], xi[tor[w]])
        if tuple(tuple(row) for row in joined) != tr.data:
            diagram_ok = False
            witness = r.data
            break
    report["span_algebra_diagram"] = diagram_ok
    report["span_algebra_witness"] = witness
    return report


def _random_matrix(rng, q, rows, cols):
    return VMatrix(
        q, rows, cols, tuple(tuple(rng.randrange(q.n) for _ in range(cols)) for _ in range(rows))
    )


def check_extension_laws(ext, samples=25, seed=None, size=2):
    """The extension laws on generated matrices, each with a witness slot.

    (a) transpose compatibility, (b) oplaxity of composition with equality
    when either factor is a map, (c) monotonicity, (d) oplaxity of the unit,
    (e) oplaxity of the multiplication (the equality case is recorded as the
    m-naturality flag), (f) strict composition when the tensor is the meet,
    (g) strictness for postcomposition with maps.  Law (e) samples whose
    double extension exceeds the budget are counted in laws["e"]["skipped"],
    and any skip makes the m-naturality flag False.
    """
    q = ext.q
    monad = ext.monad
    if seed is None:
        seed = zlib.crc32(f"{monad.name}/{q.name}".encode())
    rng = random.Random(seed)
    laws = {key: {"ok": True, "checked": 0, "witness": None} for key in "abcdefg"}
    laws["f"]["applicable"] = q.is_meet_tensor()
    laws["e"]["skipped"] = 0
    m_natural = True

    def note(law, ok, witness):
        laws[law]["checked"] += 1
        if not ok and laws[law]["ok"]:
            laws[law]["ok"] = False
            laws[law]["witness"] = witness

    for _ in range(samples):
        nx = rng.randrange(1, size + 1)
        ny = rng.randrange(1, size + 1)
        nz = rng.randrange(1, size + 1)
        a = _random_matrix(rng, q, nx, ny)
        b = _random_matrix(rng, q, ny, nz)
        ta = ext.extend(a)
        tb = ext.extend(b)

        note("a", ext.extend(a.transpose()) == ta.transpose(), a.data)

        comp = mcompose(b, a)
        tcomp = ext.extend(comp)
        note("b", mcompose(tb, ta).le(tcomp), (a.data, b.data))

        a2 = a.join(_random_matrix(rng, q, nx, ny))
        note("c", ta.le(ext.extend(a2)), (a.data, a2.data))

        e_x = ext.unit_map(nx)
        e_y = ext.unit_map(ny)
        lhs_d = postcompose_map(e_y, monad.size(ny), a)
        rhs_d = precompose_map(ta, e_x, nx)
        note("d", lhs_d.le(rhs_d), a.data)

        try:
            t2a = ext.extend(ta)
            mu_y = ext.mult_map(ny)
            mu_x = ext.mult_map(nx)
            lhs_e = postcompose_map(mu_y, monad.size(ny), t2a)
            rhs_e = precompose_map(ta, mu_x, monad.size(monad.size(nx)))
            note("e", lhs_e.le(rhs_e), a.data)
            if lhs_e != rhs_e:
                m_natural = False
        except BudgetExceeded:
            laws["e"]["skipped"] += 1

        if laws["f"]["applicable"]:
            note("f", mcompose(tb, ta) == tcomp, (a.data, b.data))

        g = tuple(rng.randrange(nz) for _ in range(ny))
        g_mat = VMatrix.from_map(q, g, ny, nz)
        tg = monad.tmap(g, ny, nz)
        lhs_g = ext.extend(mcompose(g_mat, a))
        rhs_g = postcompose_map(tg, monad.size(nz), ta)
        note("g", lhs_g == rhs_g, (a.data, g))

        f = tuple(rng.randrange(ny) for _ in range(nx))
        f_mat = VMatrix.from_map(q, f, nx, ny)
        comp_bf = mcompose(b, f_mat)
        tf_mat = VMatrix.from_map(q, monad.tmap(f, nx, ny), monad.size(nx), monad.size(ny))
        note("b", ext.extend(comp_bf) == mcompose(tb, tf_mat), (f, b.data))

    # A sample the budget skipped was not checked, so it grants nothing.
    laws["m_natural"] = m_natural and laws["e"]["skipped"] == 0
    laws["ok"] = all(laws[key]["ok"] for key in "abcdefg")
    return laws


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
