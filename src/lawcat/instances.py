"""Finite incarnations: orders, finite spaces, and the distance surrogate.

Finite topological spaces are stored as their specialization preorder,
a FinitePreorder (defined in tvcat and re-exported here): x below y
means x lies in the closure of y, so closed sets are the down-sets.
Convergence of the principal ultrafilter at x to y reads as
y below x, which turns a space into a structure over the two-element
quantale under the ultrafilter monad and back, losslessly.

The distance-style analysis converts modules from the point into
level-set families over a truncated addition chain and replays the
closedness, irreducibility and representability conditions.
"""

from __future__ import annotations

import itertools

from .completeness import decide_lawvere_complete
from .errors import GateUnavailable
from .tvcat import (
    FinitePreorder,
    _points,
    check_tvfunctor,
    hom_xi_category,
    is_tvbimodule,
    order_tvcategory,
    unit_tvcategory,
)
from .vmatrix import VMatrix


def enumerate_preorders(n):
    """All preorders on n labeled points, in the order of their off-diagonal masks.

    Bit i of the mask is the i-th off-diagonal pair (x, y), x != y, in
    row-major order, so row x owns one block of bits, above the blocks of
    the rows before it, and within the block the bits of up[x] other than
    x keep their order.  Increasing mask order is therefore lexicographic
    order on (up[n-1], ..., up[0]), each compared as an integer.  The rows
    are filled by backtracking from the last point to the first, each
    trying its masks that contain x in increasing order
    (sub = (sub - rest) & rest walks the subsets of rest upward), so the
    preorders come out in increasing mask order.

    Up masks form a preorder iff each up[x] holds x and, for every pair of
    points, y in up[x] forces up[y] inside up[x].  A candidate u for up[x]
    is checked against every later row y, the pairs whose second row is
    now known: y in u forces up[y] inside u, and x in up[y] forces u
    inside up[y].  Each pair is checked once, so a full assignment that
    passes is a preorder and every preorder passes.  n = 5 gives 6,942
    preorders out of 2^20 masks.
    """
    up = [0] * n
    out = []

    def fill(x):
        if x < 0:
            out.append(FinitePreorder.from_up(n, up))
            return
        bit = 1 << x
        rest = ((1 << n) - 1) ^ bit
        later = [(1 << y, up[y]) for y in range(x + 1, n)]
        sub = 0
        while True:
            u = sub | bit
            if all(
                (not u & ybit or not uy & ~u) and (not uy & bit or not u & ~uy)
                for ybit, uy in later
            ):
                up[x] = u
                fill(x - 1)
            if sub == rest:
                return
            sub = (sub - rest) & rest

    fill(n - 1)
    return out


def tvcategory_from_space(ext, order):
    """Convergence structure of the space with specialization preorder order:
    the principal filter at x reaches y when y is below x.

    That is the converse preorder, whose up masks are order's down masks.
    """
    n = order.n
    if ext.monad.size(n) != n:
        raise GateUnavailable("principal carriers", "space bridge needs TX = X")
    return order_tvcategory(ext, FinitePreorder.from_up(n, order.down), name="space")


def weakly_sober(order):
    """Irreducible closed sets and their generic points, plus the verdict.

    order is the space's specialization preorder: the closed sets are its
    down-sets, and the closure of x is down[x].  A nonempty closed set is
    irreducible when it is not the union of two proper closed subsets, and
    a generic point is one whose closure is the whole set.  The space is
    weakly sober when every irreducible closed set has a generic point.

    On a finite space the irreducible closed sets are the point closures
    (cf. Monoidal Topology, ch. III).  A nonempty down-set c is the union
    of the closures of its points, each inside c.  If none is all of c,
    take fewest points x1, ..., xk whose closures cover c: k >= 2, and
    c = down[x1] | (down[x2] | ... | down[xk]) splits c into two proper
    closed sets.  Conversely, if down[x] = a | b with a, b closed, x lies
    in one of them, which then holds down[x].  So the irreducible closed
    sets are the distinct down[x], listed here in increasing mask order,
    the generic points of down[x] are the y with down[y] = down[x], and
    every finite space is weakly sober.
    """
    generic = {}
    for x, mask in enumerate(order.down):
        generic.setdefault(mask, []).append(x)
    details = [
        {"closed_set": _points(c), "generic_points": tuple(xs)} for c, xs in sorted(generic.items())
    ]
    return {"weakly_sober": True, "irreducible": details}


def space_lawvere_complete(ext, order, oracle=False):
    """Lawvere completeness of the space read as an (ultrafilter, 2)-category.

    order is the space's specialization preorder; ext is the caller's
    (ultrafilter, 2) extension, shared by its spaces.
    """
    cat = tvcategory_from_space(ext, order)
    return decide_lawvere_complete(cat, oracle)["complete"]


def sober_vs_lawvere(ext, order, oracle=False):
    """Both sides of the space-level equivalence: weak sobriety by the
    point closures (weakly_sober), completeness by the adjoint-pair search."""
    sober = weakly_sober(order)["weakly_sober"]
    lawvere = space_lawvere_complete(ext, order, oracle)
    return {"weakly_sober": sober, "lawvere": lawvere, "agree": sober == lawvere}


def _num(q, idx):
    return q.numeric[idx]


def _num_le(a, b):
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


class VariableSet:
    """Level-set family over a chain: one subset per chain element.

    Families are monotone in the numeric order with the infinite level
    equal to the whole carrier; on a finite chain this is exactly the
    image of the level-set encoding of maps into the chain (the
    intersection form of the constraint collapses at the top finite
    level, so monotonicity is the faithful finite reading).
    """

    def __init__(self, q, n, levels):
        self.q = q
        self.n = n
        self.levels = {v: frozenset(pts) for v, pts in levels.items()}
        for v in range(q.n):
            for u in range(q.n):
                if _num_le(_num(q, v), _num(q, u)) and not self.levels[v] <= self.levels[u]:
                    raise ValueError("family is not monotone")
        if self.levels[q.bottom] != frozenset(range(n)):
            raise ValueError("infinite level must be the whole carrier")

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.levels == other.levels

    def __repr__(self):
        return f"VariableSet({self.levels})"


def variable_set_from_row(q, n, row):
    """Level sets A_v = points whose value is numerically at most v."""
    levels = {
        v: [x for x in range(n) if _num_le(_num(q, row[x]), _num(q, v))]
        for v in range(q.n)
    }
    return VariableSet(q, n, levels)


def point_distance(cat, pts, x):
    """Least structure value into x over principal filters on the subset."""
    vals = [_num(cat.q, cat.a.data[y][x]) for y in pts]
    finite = [v for v in vals if v is not None]
    if finite:
        return min(finite)
    return None


def is_closed_varset(cat, vs):
    """d(A_u, x) <= v forces x into the level at u + v, for all u, v, x."""
    q = cat.q
    for u in range(q.n):
        for x in range(cat.n):
            d = point_distance(cat, vs.levels[u], x)
            for v in range(q.n):
                if _num_le(d, _num(q, v)) and x not in vs.levels[q.tens(u, v)]:
                    return False
    return True


def companion_varset(cat, vs):
    """The candidate right-adjoint family of a level-set family."""
    q = cat.q
    levels = {}
    for v in range(q.n):
        pts = []
        for y in range(cat.n):
            ok = True
            for u in range(q.n):
                uv = q.tens(u, v)
                for x in vs.levels[u]:
                    if not _num_le(_num(q, cat.a.data[y][x]), _num(q, uv)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                pts.append(y)
        levels[v] = pts
    return levels


def is_irreducible_varset(cat, vs):
    """Each level meets its companion level.

    The infinite half-line quantifies this over strictly positive levels
    because the joint infimum may not be attained there; on a finite chain
    every infimum is a minimum, so the faithful reading includes level
    zero.
    """
    q = cat.q
    comp = companion_varset(cat, vs)
    for u in range(q.n):
        if not set(vs.levels[u]) & set(comp[u]):
            return False
    return True


def representable_varset(cat, vs):
    """Points whose structure row reproduces the family as distance balls."""
    q = cat.q
    reps = []
    for x in range(cat.n):
        if all(
            set(vs.levels[v])
            == {y for y in range(cat.n) if _num_le(_num(q, cat.a.data[x][y]), _num(q, v))}
            for v in range(q.n)
        ):
            reps.append(x)
    return reps


def approach_surrogate(cat):
    """Level-set analysis of one structure against the module machinery.

    For every row vector from the point: the module laws must agree with
    closedness of its family; existence of a right adjoint must agree
    with irreducibility; the point-induced families are exactly the
    distance profiles.  Returns the two completeness verdicts and the
    per-row agreement record.
    """
    ext = cat.ext
    q = cat.q
    if q.numeric is None:
        raise GateUnavailable("chain quantale", "level-set analysis needs numeric values")
    if ext.monad.size(cat.n) != cat.n or ext.monad.size(1) != 1:
        raise GateUnavailable("principal carriers", "analysis collapses filters to points")
    verdict = decide_lawvere_complete(cat)
    adjoint_phis = {pair.phi.data[0] for pair in verdict["pairs"]}
    pcat = unit_tvcategory(ext)
    vxi = hom_xi_category(ext)

    psi_levels = {
        pair.phi.data[0]: variable_set_from_row(
            q, cat.n, tuple(r[0] for r in pair.psi.data)
        ).levels
        for pair in verdict["pairs"]
    }

    mismatches = []
    analysis_complete = True
    for row in itertools.product(range(q.n), repeat=cat.n):
        phi = VMatrix(q, 1, cat.n, (row,))
        bim = is_tvbimodule(phi, pcat, cat)
        functor = check_tvfunctor(row, cat, vxi)["ok"]
        vs = variable_set_from_row(q, cat.n, row)
        closed = is_closed_varset(cat, vs)
        if not (bim == functor == closed):
            mismatches.append({"row": row, "bimodule": bim, "functor": functor, "closed": closed})
        if bim:
            has_adjoint = row in adjoint_phis
            irr = is_irreducible_varset(cat, vs)
            if has_adjoint != irr:
                mismatches.append({"row": row, "has_adjoint": has_adjoint, "irreducible": irr})
            if has_adjoint:
                comp = {v: frozenset(pts) for v, pts in companion_varset(cat, vs).items()}
                if comp != psi_levels[row]:
                    mismatches.append({"row": row, "companion_mismatch": True})
            if closed and irr:
                reps = representable_varset(cat, vs)
                if not reps:
                    analysis_complete = False
    agree = not mismatches
    return {
        "mismatches": mismatches,
        "analysis_complete": analysis_complete,
        "lawvere_complete": verdict["complete"],
        "equivalence": agree and analysis_complete == verdict["complete"],
    }
