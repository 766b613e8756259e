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
from .monad import BoundedStore, IdentityMonad
from .vmatrix import VMatrix, mcompose, postcompose_map, precompose_map

# Cells (rows x columns, summed over the entries) one extend memo may hold.
# A store past it evicts the oldest entries first; an extension larger than
# the whole budget is not stored.
MEMO_CELLS = 1 << 15


class LaxExtension:
    """A monad/quantale pair, its extension of V-matrices, and what derives from the pair alone.

    Construction refuses inadmissible combinations: the threshold-span
    formula only defines an extension when the unit is the top element
    or T of the empty set is empty.  Each kept value lives with what it
    depends on.  extend memoizes, over a monad other than the identity,
    the extension of each matrix's quotient and of each matrix with two
    or more columns in the quantale's q.extension_memos[monad], a
    BoundedStore of MEMO_CELLS cells: T(m) depends only on the monad, the
    quantale's tables and m, so every extension of the pair shares it,
    and it is freed with the quantale.  Sharing pays in a process that
    decides many structures over one (T, V), each with an extension of
    its own: the suite, a library sweep, perfbench's loop over cli.main.
    The unit and multiplication tables, their fibres and T of product
    projections are read from the monad (FiniteMonad.unit_table, ...),
    and a category keeps its own verdict and dual.  This instance's
    cache, filled through cached, holds xi, its compatibility report,
    the capabilities and the categories derived from the pair, since
    some of them hold the extension or were built under its budget.
    max_enum is the one budget of every enumeration built on this
    extension, enforced by check_budget.
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
        memo = q.extension_memos.get(monad)
        if memo is None:
            # built only on a miss; setdefault keeps one memo if threads race
            memo = q.extension_memos.setdefault(monad, BoundedStore(MEMO_CELLS, _cells))
        self._memo = memo
        self.cache = {}

    def cached(self, key, build):
        """The value under key, built by build() on the first request.

        build must not return None, which marks a missing entry.
        """
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = build()
        return value

    def check_budget(self, what, needed):
        """Refuse an enumeration of needed candidates above the budget."""
        if needed > self.max_enum:
            raise BudgetExceeded(what, needed, self.max_enum)

    def extend(self, m):
        """Extension T(m): T(rows) -|-> T(cols) of a matrix m.

        Over the identity monad (and so the ultrafilter monad) the threshold
        loop rebuilds m cell by cell, so m itself is returned.  Otherwise m
        is reduced to its quotient, the distinct rows in sorted order
        restricted to the distinct columns in sorted order, which is
        extended by the threshold loop, memoized under its shape and data,
        and read back through T of each class map that is not the identity.
        This is exact because the extension commutes with maps:
        T(r.q) = T(r).Tq and T(c°.r) = (Tc)°.T(r) (laws (a) and (b) of
        check_extension_laws).  A one-column quotient is the inclusion
        column of a value set, at most 2^|V| entries; a matrix with two or
        more columns is also memoized under its own data, so that a repeat
        costs one lookup.  That second entry pays for itself: over 1,000
        seeded `complete` jobs in one process it answers 1,538 extensions,
        1,281 of them phi rows that the adjoint-pair walk extends again and
        198 a file's structure, which check_tvcategory's scan extended
        before kleisli_table.  Without it, job_p99_ms on that workload was
        about 10% higher.
        """
        trows = self.monad.size(m.rows)
        tcols = self.monad.size(m.cols)
        self.check_budget("extended matrix size", trows * tcols)
        if isinstance(self.monad, IdentityMonad):
            return m
        memo = self._memo
        if m.cols != 1:
            key = (m.rows, m.cols, m.data)
            hit = memo.get(key)
            if hit is not None:
                return hit
        rows, rq = _classes(m.data)
        cols, cq = _classes(tuple(zip(*rows)) if rows else ((),) * m.cols)
        qkey = (len(rows), len(cols), tuple(zip(*cols)) if cols else ((),) * len(rows))
        result = memo.get(qkey)
        if result is None:
            small = VMatrix.trusted(self.q, *qkey)
            result = _threshold_extend(self.monad, self.q, small)
            memo.remember(qkey, result)
        if rq is not None or cq is not None:
            # Each row of the quotient's extension is re-indexed once and
            # shared by every row in its T(rq) class.
            out = result.data
            if cq is not None:
                tcq = self.monad.tmap(cq, m.cols, len(cols))
                out = [tuple([row[b] for b in tcq]) for row in out]
            if rq is not None:
                out = [out[a] for a in self.monad.tmap(rq, m.rows, len(rows))]
            result = VMatrix.trusted(self.q, trows, tcols, tuple(out))
            if m.cols != 1:
                memo.remember(key, result)
        return result

    def capabilities(self):
        """Machine-checked gates consumed by conditional results.

        t1_is_one and t_empty_is_empty are exact; tensor_strict is exact
        over T(V x V).  The sampled m-naturality flag is not a capability:
        it is check_extension_laws(ext)["m_natural"].
        """
        return self.cached(("capabilities",), self._build_capabilities)

    def xi_compat(self):
        """check_xi_compat(self), the report the capabilities read, computed once."""
        return self.cached(("xi_compat",), lambda: check_xi_compat(self))

    def _build_capabilities(self):
        return {
            "t1_is_one": self.monad.size(1) == 1,
            "t_empty_is_empty": self.monad.size(0) == 0,
            "tensor_strict": self.xi_compat()["tensor_strict"],
        }

    def xi(self):
        """Algebra table on the quantale carrier: xi(s) = V{v | s in T(up v)}."""
        return self.cached(("xi",), self._build_xi)

    def _build_xi(self):
        q = self.q
        tn = self.monad.size(q.n)
        acc = [q.bottom] * tn
        for v in range(q.n):
            up = [u for u in range(q.n) if q.leq[v][u]]
            incl = self.monad.tmap(tuple(up), len(up), q.n)
            for z in range(self.monad.size(len(up))):
                s = incl[z]
                acc[s] = q.join_t[acc[s]][v]
        return tuple(acc)


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
    return VMatrix.trusted(q, trows, tcols, tuple(map(tuple, out)))


def _cells(m):
    """The measure of an extend memo entry: its rows x columns."""
    return m.rows * m.cols


def _classes(vectors):
    """The distinct vectors in sorted order, and the class map sending each
    vector to its position among them, or None when that is the identity."""
    reps = tuple(sorted(set(vectors)))
    if reps == vectors:
        return reps, None
    pos = {v: i for i, v in enumerate(reps)}
    return reps, [pos[v] for v in vectors]


def check_xi(ext):
    """Eilenberg-Moore laws for xi, plus its link with the extended element matrix.

    Verifies xi . e_V = id on V, xi . m_V = xi . T(xi) on T^2(V), and that
    the extension of i: 1 -|-> V (the matrix whose entry at v is v itself)
    satisfies Ti(Tq(y), y) = xi(y) for the collapse map q: V -> 1, with
    Ti(x, y) <= xi(y) everywhere.  The multiplication law reads s only
    through (m(s), T(xi)(s)), so it is decided on monad.mult_image(xi, ...),
    the distinct such pairs; only when it fails does the loop over T^2(V)
    run, to name the first failing s.
    """
    q = ext.q
    monad = ext.monad
    xi = ext.xi()
    n = q.n
    tn = monad.size(n)
    for u, s in enumerate(monad.unit_table(n)):
        if xi[s] != u:
            return {"ok": False, "law": "xi-unit", "witness": q.labels[u]}
    ttn = monad.size(tn)
    ext.check_budget("T^2 of quantale carrier", ttn)
    if any(xi[t] != xi[u] for t, u in monad.mult_image(xi, n, n)):
        mu = monad.mult_table(n)
        txi = monad.tmap(xi, tn, n)
        for big in range(ttn):
            if xi[mu[big]] != xi[txi[big]]:
                return {"ok": False, "law": "xi-mult", "witness": big}

    ti = ext.extend(VMatrix.trusted(q, 1, n, (tuple(range(n)),))).data
    leq = q.leq
    for y, (tq, v) in enumerate(zip(monad.tmap((0,) * n, n, 1), xi)):
        if ti[tq][y] != v:
            return {"ok": False, "law": "xi-Ti-link", "witness": y}
        for x, row in enumerate(ti):
            if not leq[row[y]][v]:
                return {"ok": False, "law": "xi-Ti-bound", "witness": (x, y)}
    return {"ok": True}


def check_xi_functor(ext):
    """xi as a structure-preserving map: T hom(x,y) <= hom(xi x, xi y)."""
    q = ext.q
    leq, hom_t = q.leq, q.hom_t
    thom = ext.extend(VMatrix.trusted(q, q.n, q.n, hom_t))
    xi = ext.xi()
    bad = [
        (x, y)
        for x, (row, u) in enumerate(zip(thom.data, xi))
        for y, (w, v) in enumerate(zip(row, xi))
        if not leq[w][hom_t[u][v]]
    ]
    return {"ok": not bad, "failures": bad}


def check_xi_compat(ext):
    """Compatibility of xi with the unit and the tensor.

    Checks that xi(T k) dominates k on T1, and the tensor-algebra
    inequality xi(T pi1 w) (x) xi(T pi2 w) <= xi(T tensor (w)) with its
    strictness flag, both decided on monad.tmap_image of (pi1, pi2,
    tensor), the distinct triples over T(V x V), since they read w only
    through it and carry no witness.
    """
    q = ext.q
    monad = ext.monad
    xi = ext.xi()
    n = q.n

    above_k = q.leq[q.unit]
    unit_ok = all(above_k[xi[s]] for s in monad.tmap((q.unit,), 1, n))

    nn = n * n
    ext.check_budget("T of V x V", monad.size(nn))
    pi1 = tuple(u for u in range(n) for _ in range(n))
    pi2 = tuple(v for _ in range(n) for v in range(n))
    tens_map = tuple(q.tensor[u][v] for u in range(n) for v in range(n))
    image = monad.tmap_image(((pi1, n), (pi2, n), (tens_map, n)), nn)
    tens, leq = q.tensor, q.leq
    sides = {(tens[xi[s1]][xi[s2]], xi[st]) for s1, s2, st in image}
    return {
        "unit_inequality": unit_ok,
        "tensor_inequality": all(leq[lhs][rhs] for lhs, rhs in sides),
        "tensor_strict": all(lhs == rhs for lhs, rhs in sides),
    }


def _random_matrix(rng, q, rows, cols):
    """rows x cols entries drawn row by row from rng."""
    draw, n = rng.randrange, q.n
    return VMatrix.trusted(
        q, rows, cols, tuple(tuple([draw(n) for _ in range(cols)]) for _ in range(rows))
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

        e_x = monad.unit_table(nx)
        e_y = monad.unit_table(ny)
        lhs_d = postcompose_map(e_y, monad.size(ny), a)
        rhs_d = precompose_map(ta, e_x, nx)
        note("d", lhs_d.le(rhs_d), a.data)

        try:
            t2a = ext.extend(ta)
            mu_y = monad.mult_table(ny)
            mu_x = monad.mult_table(nx)
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
