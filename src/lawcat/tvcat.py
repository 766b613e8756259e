"""Monad-enriched categories: structures a: TX -|-> X and their calculus.

Covers the axiom checker, finite preorders and the categories they give,
Kleisli composition, functors, bimodules with
the double-functor characterization, duals, tensors, the canonical
structure on the quantale, exponentials and the Yoneda morphism.
Conditional constructions check their hypotheses instead of assuming
them.  Every budget is the extension's max_enum.
"""

from __future__ import annotations

import functools
import itertools

from .errors import GateUnavailable
from .laxext import _classes
from .monad import IdentityMonad
from .vmatrix import (
    VMatrix,
    all_matrices,
    compose_rows,
    mcompose,
    postcompose_map,
    precompose_map,
    select_cols,
)


class TVCategory:
    """Carrier set of size n with a structure matrix T(n) -|-> n.

    checked is check_tvcategory's verdict on the structure once it is
    known: passed by a constructor that has just run the check or built
    a category by construction (tvcategory, all_tvcategories,
    order_tvcategory, the CLI), or kept by verdict().  None
    means not yet checked; a category's (T, V) and matrix never change,
    so neither does its verdict, nor its dual, which dual_tvcategory
    builds on the first call and keeps here.
    """

    def __init__(self, ext, n, a, name="", checked=None):
        if a.rows != ext.monad.size(n) or a.cols != n:
            raise ValueError(f"structure must be {ext.monad.size(n)}x{n}, got {a.rows}x{a.cols}")
        self.ext = ext
        self.n = n
        self.a = a
        self.name = name
        self.checked = checked
        self._dual = None

    def verdict(self):
        """check_tvcategory on this structure, run on the first call only."""
        if self.checked is None:
            self.checked = check_tvcategory(self.ext, self.n, self.a)
        return self.checked

    @property
    def q(self):
        return self.ext.q

    @property
    def monad(self):
        return self.ext.monad

    def __repr__(self):
        return f"TVCategory({self.name or self.n}, {self.monad.name}/{self.q.name})"

    def __eq__(self, other):
        return (
            isinstance(other, TVCategory)
            and self.ext is other.ext
            and self.n == other.n
            and self.a == other.a
        )

    def __hash__(self):
        return hash((id(self.ext), self.n, self.a.data))


def check_tvcategory(ext, n, a):
    """Reflexivity and transitivity (lax unit and associativity) with witnesses.

    (R): k <= a(e(x), x) for every x.  (T): Ta(s, t) (x) a(t, x) <= a(m(s), x)
    for every s in T(T(n)), t in T(n), x.  Let a' be the k distinct rows of a
    in sorted order and rq: T(n) -> k the class map, so a = a'.rq and, by
    law (a) of check_extension_laws, row s of Ta is row T(rq)(s) of Ta'.  So
    (T) reads s only through the pair (m(s), T(rq)(s)), and it is decided on
    monad.mult_image(rq, n, k), the distinct such pairs, against the T(k)
    rows of Ta' instead of the T(T(n)) rows of Ta, each cell once
    (_first_failure).  A violated cell settles the verdict;
    _transitivity_scan, the s-ordered reference, then names the first
    failing (s, t, x).  Where T(n) x T(k) is no smaller than T(T(n)), as
    when the rows of a are distinct, the image cannot be smaller than
    T(T(n)) and the scan runs alone.  Over the identity monad (and so the
    ultrafilter monad) Ta = a and m is the identity, so (T) reads
    a(p, r) (x) a(r, s) <= a(p, s), an O(n^3) loop over the rows of a;
    the scan runs only on a failure, to name the witness.  Reflexivity
    is checked before the sweep is charged, so a budget below it still
    reports a structure that is not reflexive.
    """
    q = ext.q
    monad = ext.monad
    data = a.data
    leq_k = q.leq[q.unit]
    for x, s in enumerate(monad.unit_table(n)):
        if not leq_k[data[s][x]]:
            return {"ok": False, "law": "reflexivity", "witness": (x,)}
    tn = monad.size(n)
    ttn = monad.size(tn)
    ext.check_budget("associativity sweep", ttn * tn)
    if isinstance(monad, IdentityMonad):
        if _transitive(q, data):
            return {"ok": True}
        return _transitivity_scan(ext, n, a)
    rows, rq = _classes(data)
    if tn * monad.size(len(rows)) >= ttn:
        # The image has at most |T(n)| |T(k)| pairs, no fewer than the
        # rows the scan reads, and the scan also names the witness.
        return _transitivity_scan(ext, n, a)
    ta = ext.extend(VMatrix.trusted(q, len(rows), n, rows)).data
    image = monad.mult_image(rq, n, len(rows))
    if _first_failure(q, a, tn, ((None, t, ta[r]) for t, r in image)) is None:
        return {"ok": True}
    return _transitivity_scan(ext, n, a)


def _transitive(q, a):
    """Whether a(p, r) (x) a(r, s) <= a(p, s) for all p, r, s of a square a."""
    tens, leq = q.tensor, q.leq
    for row in a:
        for u, mid in zip(row, a):
            tens_u = tens[u]
            for w, v in zip(mid, row):
                if not leq[tens_u[w]][v]:
                    return False
    return True


def _transitivity_scan(ext, n, a):
    """(T) over every s in T(T(n)) in order: the reference and witness finder."""
    mu = ext.monad.mult_table(n)
    reads = zip(range(len(mu)), mu, ext.extend(a).data)
    failure = _first_failure(ext.q, a, ext.monad.size(n), reads)
    if failure is None:
        return {"ok": True}
    return {"ok": False, "law": "transitivity", "witness": failure}


def _first_failure(q, a, tn, reads):
    """The first (s, t, x) with Ta(s, t) (x) a(t, x) not below a(m(s), x).

    reads yields (s, m(s), row s of Ta).  The loop over x depends only on
    (m(s), Ta(s, t), t), so each such cell is checked once, when a
    non-bottom entry first reads it; a skipped cell equals one that
    passed, so the first failure found is the first in the order of reads.
    """
    bot = q.bottom
    tens = q.tensor
    leq = q.leq
    # checked[t][u][s2]: u (x) a(s2, -) stays below row t of a
    checked = [None] * tn
    for s, t, row in reads:
        checked_t = checked[t]
        if checked_t is None:
            checked_t = checked[t] = [[False] * tn for _ in range(q.n)]
        a_t = a.data[t]
        for s2, u in enumerate(row):
            if u != bot and not checked_t[u][s2]:
                tens_u = tens[u]
                for x, w in enumerate(a.data[s2]):
                    if not leq[tens_u[w]][a_t[x]]:
                        return (s, s2, x)
                checked_t[u][s2] = True
    return None


class FinitePreorder:
    """Reflexive transitive relation on {0..n-1}, held as its up masks.

    up[x] is the mask of the points y with x <= y.  It is the
    representation: down[y], the mask of the points x with x <= y, is
    computed from it (in a specialization order down[x] is the closure of
    x), and leq, the n x n boolean table, is built on its first read.

    One check, on the masks, refuses a relation that is not reflexive and
    transitive, with a ValueError naming the first failing cell: row by
    row, the diagonal first (bit x of up[x]), then the least y in up[x]
    whose up[y] is not inside up[x], with the least z of up[y] outside it,
    so x <= y <= z without x <= z.  FinitePreorder(n, leq) takes a table,
    refuses one that is not n x n, and runs the check on its rows' masks;
    from_up builds from masks that come from outside and runs the same
    check.  trusted builds from masks that are a preorder by construction
    (enumerate_preorders, from_pairs' closure, a kernel, the discrete
    order) and runs none; a test compares it with from_up on every
    preorder on at most 5 points.
    """

    def __init__(self, n, leq):
        rows = [tuple(row) for row in leq]
        if list(map(len, rows)) != [n] * n:
            raise ValueError(f"not a {n}x{n} table")
        bits = [1 << y for y in range(n)]
        up = tuple([sum(itertools.compress(bits, row)) for row in rows])
        _check_preorder(up)
        self._keep(n, up)

    @classmethod
    def from_up(cls, n, up):
        """The preorder whose up masks are up, after the constructor's check."""
        up = tuple(up)
        if len(up) != n or any(mask >> n for mask in up):
            raise ValueError(f"not {n} masks on {n} points")
        _check_preorder(up)
        return cls.trusted(n, up)

    @classmethod
    def trusted(cls, n, up):
        """The preorder whose up masks are up, n masks on n points that the
        caller knows to be reflexive and transitive: down is derived, and
        nothing is checked."""
        order = cls.__new__(cls)
        order._keep(n, tuple(up))
        return order

    @classmethod
    def from_pairs(cls, n, pairs):
        """Reflexive-transitive closure of generating pairs (Warshall, on masks).

        The closure is a preorder, so it is built trusted; a pair with a
        point outside 0..n-1 is refused with a ValueError.
        """
        up = [1 << x for x in range(n)]
        for (x, y) in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) is not on {n} points")
            up[x] |= 1 << y
        for k in range(n):
            for x in range(n):
                if up[x] >> k & 1:
                    up[x] |= up[k]
        return cls.trusted(n, up)

    def converse(self):
        """The converse preorder, y <= x when x <= y, built without a check.

        The converse of a preorder is a preorder: x <= x reads the same both
        ways, and z >= y >= x gives z >= x by transitivity of the original.
        Its up masks are this order's down masks and its down masks are
        this order's up masks.
        """
        order = type(self).__new__(type(self))
        order.n, order.up, order.down = self.n, self.down, self.up
        return order

    def _keep(self, n, up):
        """Keep n and the tuple up, and derive down from it."""
        self.n, self.up = n, up
        down = [0] * n
        for x, mask in enumerate(up):
            bit = 1 << x
            while mask:
                low = mask & -mask
                down[low.bit_length() - 1] |= bit
                mask ^= low
        self.down = tuple(down)

    @functools.cached_property
    def leq(self):
        """The boolean table, leq[x][y] when x <= y, built on its first read."""
        n = self.n
        return tuple([tuple([bool(mask >> y & 1) for y in range(n)]) for mask in self.up])

    def __eq__(self, other):
        return isinstance(other, FinitePreorder) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"FinitePreorder({self.n})"


def _check_preorder(up):
    """Refuse up masks that are not reflexive and transitive, row by row."""
    for x, mask in enumerate(up):
        if not mask >> x & 1:
            raise ValueError(f"not reflexive: ({x}, {x}) is missing")
        rest = mask
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            if up[y] & ~mask:
                z = _points(up[y] & ~mask)[0]
                raise ValueError(f"not transitive: ({x}, {y}) and ({y}, {z}), not ({x}, {z})")
            rest ^= low


def _points(mask):
    """The set bits of mask, lowest first."""
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length() - 1)
        mask ^= low
    return tuple(points)


def tvcategory(ext, n, a, name=""):
    verdict = check_tvcategory(ext, n, a)
    if not verdict["ok"]:
        raise ValueError(f"not a (T,V)-category: {verdict}")
    return TVCategory(ext, n, a, name, verdict)


def order_tvcategory(ext, order, name=""):
    """A preorder as a structure: k at (e(x), y) when x <= y, bottom elsewhere.

    order is a FinitePreorder, reflexive and transitive by
    construction; the row at e(x) is read off its up mask up[x].  Over the identity and ultrafilter monads the structure
    is then a category, so it carries check_tvcategory's verdict
    {"ok": True}: a(x, x) = k, and a(p, r) (x) a(r, s) is k (x) k = k when
    p <= r <= s, where p <= s, and bottom otherwise, as bottom absorbs.
    Over powerset it carries nothing.
    """
    q = ext.q
    n = order.n
    pick = (q.bottom, q.unit)
    data = [(q.bottom,) * n] * ext.monad.size(n)
    for s, mask in zip(ext.monad.unit_table(n), order.up):
        data[s] = tuple([pick[mask >> y & 1] for y in range(n)])
    checked = {"ok": True} if isinstance(ext.monad, IdentityMonad) else None
    return TVCategory(ext, n, VMatrix.trusted(q, len(data), n, tuple(data)), name, checked)


def discrete_tvcategory(ext, n):
    """Structure transpose of the unit: the free reflexive structure."""
    discrete = FinitePreorder.trusted(n, [1 << x for x in range(n)])
    return order_tvcategory(ext, discrete, name=f"discrete{n}")


def em_algebra_category(ext, n):
    """The free algebra on n points as a category: carrier T(n), structure m."""

    def build():
        tn = ext.monad.size(n)
        ttn = ext.monad.size(tn)
        m_emb = VMatrix.from_map(ext.q, ext.monad.mult_table(n), ttn, tn)
        return tvcategory(ext, tn, m_emb, name=f"|{n}|")

    return ext.cached(("em", n), build)


def unit_tvcategory(ext):
    """The one-point category: unit on the image of e, bottom elsewhere."""
    return ext.cached(("unit",), lambda: discrete_tvcategory(ext, 1))


def hom_xi_category(ext):
    """The quantale itself, structured by residuation after the algebra map.

    Built once per extension and not checked: its verdict() runs
    check_tvcategory on the first call only.
    """

    def build():
        q = ext.q
        xi = ext.xi()
        tn = ext.monad.size(q.n)
        data = tuple(q.hom_t[u] for u in xi)
        return TVCategory(ext, q.n, VMatrix.trusted(q, tn, q.n, data), name="V-hom-xi")

    return ext.cached(("homxi",), build)


def kleisli_compose(ext, b, a, n_src):
    """b * a = b . T(a) . m-transpose, for a: T(n_src) -|-> Y, b: T(Y) -|-> Z.

    b is composed with the rows of T(a) . m-transpose (_kleisli_rows),
    which is exact, since the tensor distributes over their joins.
    """
    if a.rows != ext.monad.size(n_src) or b.rows != ext.monad.size(a.cols):
        raise ValueError("kleisli shapes do not line up")
    q = ext.q
    rows = _kleisli_rows(ext, ext.extend(a).data, n_src)
    return VMatrix.trusted(q, a.rows, b.cols, compose_rows(q, rows, b.data, b.cols))


def _kleisli_rows(ext, ta, n):
    """The rows of Ta . m-transpose, for Ta with T(T(n)) rows.

    Row s joins the rows of Ta over the fibre of m at s, which holds e(s)
    and so is never empty.  A one-element fibre, every fibre over the
    identity monad, is Ta's row itself; the join skips the bottom entries
    of the later rows, which leave it unchanged.
    """
    join_t, bot = ext.q.join_t, ext.q.bottom
    rows = []
    for fiber in ext.monad.mult_fibers(n):
        row = ta[fiber[0]]
        if len(fiber) > 1:
            row = list(row)
            for big in fiber[1:]:
                for t, w in enumerate(ta[big]):
                    if w != bot:
                        row[t] = join_t[row[t]][w]
            row = tuple(row)
        rows.append(row)
    return rows


def kleisli_table(x):
    """Ta . m-transpose as a plain T(X) x T(X) table: the Kleisli hom of x."""
    return _kleisli_rows(x.ext, x.ext.extend(x.a).data, x.n)


def check_tvfunctor(f, x, y):
    """a(s, p) <= b(Tf(s), f(p)) for all s in TX and p in X."""
    ext = x.ext
    leq = ext.q.leq
    ydata, points = y.a.data, range(x.n)
    for s, (row, t) in enumerate(zip(x.a.data, ext.monad.tmap(f, x.n, y.n))):
        brow = ydata[t]
        for p in points:
            if not leq[row[p]][brow[f[p]]]:
                return {"ok": False, "witness": (s, p)}
    return {"ok": True}


def is_tvbimodule(psi, x, y):
    """Direct laws: psi * a <= psi and b * psi <= psi."""
    ext = x.ext
    left = kleisli_compose(ext, psi, x.a, x.n)
    right = kleisli_compose(ext, y.a, psi, x.n)
    return left.le(psi) and right.le(psi)


def dual_tvcategory(x):
    """Dual category on carrier TX via the algebra and forgetful round trip,
    built on the first call and kept on x."""
    if x._dual is None:
        ext = x.ext
        monad = ext.monad
        tn = monad.size(x.n)
        ta = ext.extend(x.a)
        c = postcompose_map(monad.mult_table(x.n), tn, ta.transpose())
        a_op = select_cols(ext.extend(c), monad.unit_table(tn))
        x._dual = TVCategory(ext, tn, a_op, name=f"{x.name or x.n}^op")
    return x._dual


def tensor_tvcat(x, y):
    """Pointwise tensor structure on the product carrier.

    Validity of the result is conditional on strictness of the algebra map
    against the tensor (the tensor_strict capability); it is not checked here.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    n = x.n * y.n
    ext.check_budget("tensor carrier", monad.size(n) * n)
    tpix, tpiy = monad.projections(x.n, y.n)
    tens, xdata, ydata = q.tensor, x.a.data, y.a.data
    data = tuple(
        tuple([tens_u[v] for tens_u in map(tens.__getitem__, xdata[r]) for v in ydata[c]])
        for r, c in zip(tpix, tpiy)
    )
    return TVCategory(ext, n, VMatrix.trusted(q, len(data), n, data), name=f"{x.name}(x){y.name}")


def check_tvbimodule(psi, x, y):
    """Direct module laws against the double-functor characterization.

    The direct verdict uses Kleisli composition.  The second route reads
    psi as a map on T(X) x Y and asks for functoriality both out of the
    free-algebra tensor and out of the dual tensor, into the canonical
    structure on the quantale.  Agreement is recorded, not enforced: the
    characterization holds when the multiplication is natural, the equality
    case of law (e) that check_extension_laws samples as m_natural.
    """
    ext = x.ext
    monad = ext.monad
    direct = is_tvbimodule(psi, x, y)
    v_cat = hom_xi_category(ext)
    xbar = em_algebra_category(ext, x.n)
    xop = dual_tvcategory(x)
    psi_map = tuple(
        psi.data[s][yy] for s in range(monad.size(x.n)) for yy in range(y.n)
    )
    via = True
    for source in (xbar, xop):
        prod = tensor_tvcat(source, y)
        if not check_tvfunctor(psi_map, prod, v_cat)["ok"]:
            via = False
    return {
        "direct": direct,
        "via_functors": via,
        "agree": direct == via,
        "ok": direct,
    }


def check_tv_adjunction(ext, phi, psi, x, y):
    """phi -| psi for phi: (Y) -|-> X and psi: (X) -|-> Y between categories.

    Unit: b <= psi * phi on Y; counit: phi * psi <= a on X.
    """
    unit = y.a.le(kleisli_compose(ext, psi, phi, y.n))
    counit = kleisli_compose(ext, phi, psi, x.n).le(x.a)
    return {"unit": unit, "counit": counit, "is_adjoint": unit and counit}


def all_tvcategories(ext, n):
    """Every structure on an n-point carrier passing both axioms, in the
    lexicographic entry order of all_matrices, each carrying its verdict.

    Over the identity monad (and so the ultrafilter monad) the structures
    are listed by _square_categories' backtracking; over powerset every
    matrix is filtered through check_tvcategory.  The "structure space"
    charge, |V|^(|T(n)| n), comes first either way, and is the only one:
    it is the count all_matrices lists, so the filter charges nothing more.
    """
    q = ext.q
    tn = ext.monad.size(n)
    ext.check_budget("structure space", q.n ** (tn * n))
    if isinstance(ext.monad, IdentityMonad):
        return [TVCategory(ext, n, a, checked={"ok": True}) for a in _square_categories(q, n)]
    cats = []
    for a in all_matrices(q, tn, n):
        verdict = check_tvcategory(ext, n, a)
        if verdict["ok"]:
            cats.append(TVCategory(ext, n, a, checked=verdict))
    return cats


def _square_categories(q, n):
    """Every n x n matrix a over q with k <= a(x, x) and
    a(p, r) (x) a(r, s) <= a(p, s), in lexicographic entry order.

    The n * n cells are assigned by backtracking in row-major order, each
    trying its values in increasing order, so the matrices come out in
    the order all_matrices yields them.  A diagonal cell tries only the
    values above k.  Each triple (p, r, s) is checked once, when the last
    of its three cells in row-major order is assigned, so a full
    assignment is a category exactly when it passes every check.
    """
    size = n * n
    above_k = [v for v in range(q.n) if q.leq[q.unit][v]]
    values = [above_k if c % (n + 1) == 0 else range(q.n) for c in range(size)]
    last = [[] for _ in range(size)]
    for p, r, s in itertools.product(range(n), repeat=3):
        cells = (p * n + r, r * n + s, p * n + s)
        last[max(cells)].append(cells)
    tens, leq = q.tensor, q.leq
    a = [0] * size
    out = []

    def fill(c):
        if c == size:
            rows = tuple([tuple(a[i * n : i * n + n]) for i in range(n)])
            out.append(VMatrix.trusted(q, n, n, rows))
            return
        for v in values[c]:
            a[c] = v
            if all(leq[tens[a[pr]][a[rs]]][a[ps]] for pr, rs, ps in last[c]):
                fill(c + 1)

    fill(0)
    return out


def exponentiable(x):
    """The function-space precondition: a . Ta = a . m as matrices."""
    ext = x.ext
    ta = ext.extend(x.a)
    lhs = mcompose(x.a, ta)
    monad = ext.monad
    rhs = precompose_map(x.a, monad.mult_table(x.n), monad.size(monad.size(x.n)))
    return lhs == rhs


class Exponential:
    """Function space Y^X: functor carrier plus the largest structure."""

    def __init__(self, base, target, carrier, structure):
        self.base = base
        self.target = target
        self.carrier = carrier
        self.structure = structure

    @property
    def n(self):
        return len(self.carrier)

    def category(self):
        return TVCategory(self.base.ext, self.n, self.structure, name="expo")


def exponential_tvcat(x, y):
    """Build Y^X: carrier of functorial maps, structure by the evaluation bound.

    Requires the precondition a . Ta = a . m on the base.  The structure
    entry at (p, h) is the largest v such that tensoring v onto the base
    structure keeps evaluation below the target structure, computed as a
    meet of residuals over the fiber of p.  Empty fibers produce the empty
    meet (top).
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    if not exponentiable(x):
        raise GateUnavailable("exponentiable", "base fails a.Ta = a.m")
    pcat = unit_tvcategory(ext)
    xp = tensor_tvcat(x, pcat)
    ext.check_budget("function space", y.n ** x.n)
    funcs = [
        h
        for h in itertools.product(range(y.n), repeat=x.n)
        if check_tvfunctor(h, xp, y)["ok"]
    ]
    nf = len(funcs)
    npair = x.n * nf
    ext.check_budget("exponential structure sweep", monad.size(npair) * nf)
    tpix, tpif = monad.projections(x.n, nf)
    ev = tuple(funcs[i][p] for p in range(x.n) for i in range(nf))
    tev = monad.tmap(ev, npair, y.n)
    rows = monad.size(nf)
    meet_t, hom_t = q.meet_t, q.hom_t
    bound = [[q.top] * nf for _ in range(rows)]
    for fiber_row, r, t in zip(tpif, tpix, tev):
        homs = [hom_t[u] for u in x.a.data[r]]
        brow = y.a.data[t]
        cell = bound[fiber_row]
        for i, h in enumerate(funcs):
            acc = cell[i]
            for hom_u, p in zip(homs, h):
                acc = meet_t[acc][hom_u[brow[p]]]
            cell[i] = acc
    structure = VMatrix.trusted(q, rows, nf, tuple(map(tuple, bound)))
    return Exponential(x, y, funcs, structure)


def yoneda(x):
    """Yoneda data into the presheaf space over the free algebra.

    Builds V^{|X|}, the map p |-> a(-, p), and returns: the bound
    inequality at every (s, phi); for each presheaf the equivalence of the
    reverse inequality with functoriality out of the dual; the restricted
    presheaf carrier; and full-and-faithfulness onto it when T1 = 1.
    An independent residual formula for the structure on the image of the
    Yoneda map is compared entrywise as an oracle.

    V^{|X|} depends only on the extension and the size of X, so it is
    built once per extension and size and kept under ("presheaves", n).
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    expo = ext.cached(
        ("presheaves", x.n),
        lambda: exponential_tvcat(em_algebra_category(ext, x.n), hom_xi_category(ext)),
    )
    v_cat = hom_xi_category(ext)
    index = {h: i for i, h in enumerate(expo.carrier)}
    y_map = []
    for p in range(x.n):
        col = tuple(x.a.data[s][p] for s in range(tn))
        if col not in index:
            return {"ok": False, "law": "yoneda-column-not-in-carrier", "witness": p}
        y_map.append(index[col])
    fcat = expo.category()
    y_funct = check_tvfunctor(tuple(y_map), x, fcat)
    ty = monad.tmap(tuple(y_map), x.n, expo.n)

    kc = kleisli_table(x)

    leq, tens, meet_t, hom_t = q.leq, q.tensor, q.meet_t, q.hom_t
    ty_rows = [expo.structure.data[t] for t in ty]
    bound_ok = True
    oracle_ok = True
    for s, row in enumerate(ty_rows):
        homs = [hom_t[kc_t[s]] for kc_t in kc]
        for v, phi in zip(row, expo.carrier):
            if not leq[v][phi[s]]:
                bound_ok = False
            expected = q.top
            for hom_u, w in zip(homs, phi):
                expected = meet_t[expected][hom_u[w]]
            if v != expected:
                oracle_ok = False

    xop = dual_tvcategory(x)
    equivalence_ok = True
    hat = []
    for i, phi in enumerate(expo.carrier):
        reverse = all(leq[u][row[i]] for u, row in zip(phi, ty_rows))
        functor_dual = check_tvfunctor(phi, xop, v_cat)["ok"]
        vfunctor_oracle = all(
            leq[tens[kc_t[s]][u]][w] for s, u in enumerate(phi) for kc_t, w in zip(kc, phi)
        )
        if reverse != functor_dual or reverse != vfunctor_oracle:
            equivalence_ok = False
        if functor_dual:
            hat.append(i)

    ff_ok = None
    if monad.size(1) == 1:
        ff_ok = all(
            expo.structure.data[ty[s]][y_map[p]] == x.a.data[s][p]
            for s in range(tn)
            for p in range(x.n)
        )
    return {
        "ok": bound_ok and equivalence_ok and y_funct["ok"] and oracle_ok,
        "yoneda_is_functor": y_funct["ok"],
        "bound_inequality": bound_ok,
        "structure_oracle": oracle_ok,
        "equivalence": equivalence_ok,
        "hat_carrier": hat,
        "presheaf_count": expo.n,
        "fully_faithful": ff_ok,
    }
