"""Finite incarnations: orders, finite spaces, and the distance surrogate.

Finite topological spaces are stored as their specialization preorder,
a FinitePreorder (defined in tvcat and re-exported here): x below y
means x lies in the closure of y, so closed sets are the down-sets.
Convergence of the principal ultrafilter at x to y reads as
y below x, which turns a space into a structure over the two-element
quantale under the ultrafilter monad and back, losslessly.

The distance-style analysis converts modules from the point into
level-set families over a chain, such as a truncated addition chain,
and replays the closedness, irreducibility and representability
conditions.  A level set is a threshold of the chain's lattice order,
kept as a bitmask of points (level_masks), and each condition is a
mask test on the quantale's order, tensor and join tables.
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
    points, y in up[x] forces up[y] inside up[x].  When row x is filled,
    its pairs with the later rows y are the ones whose second row is
    known.  x in up[y] forces up[x] inside up[y], so row x walks only the
    subsets of bound, the meet of the later rows that hold x; and y in
    up[x] forces up[y] inside up[x], checked for the later points of each
    candidate.  Each pair is settled once, so a full assignment is a
    preorder and every preorder is reached, and each is built trusted.
    n = 5 gives 6,942 preorders out of 2^20 masks.
    """
    up = [0] * n
    full = (1 << n) - 1
    out = []

    def fill(x):
        if x < 0:
            out.append(FinitePreorder.trusted(n, up))
            return
        bit = 1 << x
        bound = full
        for uy in up[x + 1 :]:
            if uy & bit:
                bound &= uy
        rest = bound ^ bit
        sub = 0
        while True:
            u = sub | bit
            later = u >> (x + 1)
            while later:
                low = later & -later
                if up[low.bit_length() + x] & ~u:
                    break
                later ^= low
            else:
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
    if ext.monad.size(order.n) != order.n:
        raise GateUnavailable("principal carriers", "space bridge needs TX = X")
    return order_tvcategory(ext, order.converse(), name="space")


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


def level_masks(q, row):
    """The level sets of a row over a chain, as masks: bit x of the mask at
    v is set when v <= row[x] in the lattice order.

    The level at bottom holds every point, and the levels shrink as v
    grows.  On a chain the row is the largest v whose level holds x, so a
    family of levels determines its row and the row its family.
    """
    leq = q.leq
    return [sum(1 << x for x, w in enumerate(row) if leq[v][w]) for v in range(q.n)]


def companion_masks(q, balls, levels):
    """The candidate right-adjoint family of a level family, as masks.

    balls[y] is level_masks of the point's row a(y, -), its balls: the
    mask at w holds the points within distance w of y.  y lies in the
    companion level at v when u (x) v <= a(y, x) for every u and every x
    in the level at u: each level at u lies in y's ball at u (x) v.
    """
    tens = q.tensor
    return [
        sum(
            1 << y
            for y, ball in enumerate(balls)
            if all(not level & ~ball[tens[u][v]] for u, level in enumerate(levels))
        )
        for v in range(q.n)
    ]


def approach_surrogate(cat):
    """Level-set analysis of one structure against the module machinery.

    For every row vector from the point: the module laws must agree with
    closedness of its family; existence of a right adjoint must agree
    with irreducibility, and the adjoint's own family with the companion
    family; a closed irreducible family must be a point's distance
    profile.  Returns the two completeness verdicts and the per-row
    agreement record.

    V must be a chain: the "chain quantale" gate refuses a V with two
    incomparable elements.  The distance reading of a chain sends bottom
    to inf and any other element to the number of elements strictly
    above it, which is what the labels of the built-in chains say (c4
    reads inf, 2, 1, 0).  So "at most as distances" is the lattice order
    reversed: a is at most b as distances iff b <= a.  The level
    set of a row at v, the points at distance at most v, is therefore
    the threshold mask level_masks(q, row)[v], and each test reads the
    quantale's own tables:

    - the distance d(A_u, x) from the level at u to x is the least
      distance, the join of a(y, x) over y in A_u; the empty join is
      bottom, an infinite distance;
    - the family is closed when d(A_u, x) <= v puts x into the level at
      u (x) v, for all u, v and x.  The levels shrink as v grows and the
      tensor is monotone, so v = d(A_u, x) is the strongest instance:
      closed iff x lies in the level at u (x) d(A_u, x);
    - the companion family is companion_masks, and the family is
      irreducible when each level meets its companion level.  Over the
      half-line only strictly positive levels count, since an infimum
      there need not be attained; on a finite chain every infimum is a
      minimum, so level zero counts too;
    - a point x represents the family when its distance profile has the
      same levels, that is when a(x, -) is the row.
    """
    ext = cat.ext
    q = cat.q
    leq, tens, join_t = q.leq, q.tensor, q.join_t
    if not all(leq[u][v] or leq[v][u] for u in range(q.n) for v in range(u)):
        raise GateUnavailable("chain quantale", "level-set analysis needs every two values comparable")
    if ext.monad.size(cat.n) != cat.n or ext.monad.size(1) != 1:
        raise GateUnavailable("principal carriers", "analysis collapses filters to points")
    verdict = decide_lawvere_complete(cat)
    psi_levels = {
        phi[0]: level_masks(q, [v for (v,) in psi])
        for psi, phi in (pair.tables for pair in verdict["pairs"])
    }
    pcat = unit_tvcategory(ext)
    vxi = hom_xi_category(ext)
    a = cat.a.data
    balls = [level_masks(q, a[x]) for x in range(cat.n)]

    # dist[mask][x] = d(A, x) for the points A of mask: the join of the
    # rows a(y, -) over y in A, the empty join bottom
    dist = [(q.bottom,) * cat.n]
    for mask in range(1, 1 << cat.n):
        low = mask & -mask
        dist.append(tuple([join_t[u][v] for u, v in zip(dist[mask ^ low], a[low.bit_length() - 1])]))

    mismatches = []
    analysis_complete = True
    for row in itertools.product(range(q.n), repeat=cat.n):
        phi = VMatrix.trusted(q, 1, cat.n, (row,))
        bim = is_tvbimodule(phi, pcat, cat)
        functor = check_tvfunctor(row, cat, vxi)["ok"]
        levels = level_masks(q, row)
        closed = all(
            levels[tens[u][d]] >> x & 1
            for u, level in enumerate(levels)
            for x, d in enumerate(dist[level])
        )
        if not (bim == functor == closed):
            mismatches.append({"row": row, "bimodule": bim, "functor": functor, "closed": closed})
        if bim:
            has_adjoint = row in psi_levels
            companion = companion_masks(q, balls, levels)
            irr = all(level & comp for level, comp in zip(levels, companion))
            if has_adjoint != irr:
                mismatches.append({"row": row, "has_adjoint": has_adjoint, "irreducible": irr})
            if has_adjoint and companion != psi_levels[row]:
                mismatches.append({"row": row, "companion_mismatch": True})
            if closed and irr and levels not in balls:
                analysis_complete = False
    agree = not mismatches
    return {
        "mismatches": mismatches,
        "analysis_complete": analysis_complete,
        "lawvere_complete": verdict["complete"],
        "equivalence": agree and analysis_complete == verdict["complete"],
    }
