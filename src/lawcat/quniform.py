"""Quasi-uniform spaces as filters of reflexive relations, at finite scale.

Entourage filters on a finite carrier are principal: the up-closure of
the intersection w of the base, which is a preorder, so a nonempty base
of reflexive relations is valid iff w.w <= w.  Filters of subsets are
principal too, so a filter pair is its two minimum sets, as bitmasks,
read on w's down and up masks: every Cauchy pair converges, and the
minimal ones are the neighbourhood pairs (decide_cauchy_complete).  The
bridge to modules reads filters of relations between the carrier and
the point by their minima too: they are the module pairs of the
(id, 2)-category on w, which the library's adjoint-pair enumeration
finds.
"""

from __future__ import annotations

import functools

from .completeness import decide_lawvere_complete
from .instances import enumerate_preorders
from .tvcat import FinitePreorder, _points, order_tvcategory


def rel_compose(r, s):
    """r then s: pairs (x,z) with some y, (x,y) in r and (y,z) in s."""
    by_src = {}
    for (y, z) in s:
        by_src.setdefault(y, []).append(z)
    return frozenset((x, z) for (x, y) in r for z in by_src.get(y, ()))


class QuasiUniformity:
    """Carrier size and a base of relations; entourages are derived.

    w, the intersection of the base, is derived on construction, and
    order, w as a FinitePreorder, on its first read.
    """

    def __init__(self, n, base):
        self.n = n
        self.base = [frozenset(r) for r in base]
        self.w = frozenset.intersection(*self.base) if self.base else None

    @functools.cached_property
    def order(self):
        """w as a FinitePreorder, whose down and up masks the Cauchy side reads.

        For a nonempty base, the base is valid iff w is a preorder.
        all_quniformities proves "only if".  For "if": a reflexive w makes
        every base relation reflexive, and w is in the intersection
        closure with w.w <= w <= r for every r there.  So an invalid base
        raises FinitePreorder's ValueError, which names the first failing
        cell; an empty base, which has no w, raises one too.  The preorder
        is built from w's up masks on the first read and kept, so every
        reader of u shares one.
        """
        if self.w is None:
            raise ValueError("empty base: w is undefined")
        up = [0] * self.n
        for x, y in self.w:
            up[x] |= 1 << y
        return FinitePreorder.from_up(self.n, up)

    def __repr__(self):
        return f"QuasiUniformity(n={self.n}, base={len(self.base)})"


def validate_quniformity(u):
    """Reflexivity of every base relation and square roots for intersections.

    With the base reflexive, w.w <= w decides the square-root law (see
    QuasiUniformity.order); the closure walk runs only on a failure, to
    name the witness.
    """
    if not u.base:
        return {"ok": False, "law": "empty-base", "witness": None}
    for i, r in enumerate(u.base):
        for x in range(u.n):
            if (x, x) not in r:
                return {"ok": False, "law": "reflexivity", "witness": (i, x)}
    if rel_compose(u.w, u.w) <= u.w:
        return {"ok": True}
    # the intersections of nonempty subfamilies of the base, each kept
    # once, in order of first occurrence: set() of this list fills its
    # table as set() of the list with repeats would, so the set iterates,
    # and names its witness, in the same order
    closure, seen = [], set()
    for r in u.base:
        for c in [c & r for c in closure] + [r]:
            if c not in seen:
                seen.add(c)
                closure.append(c)
    closure = set(closure)
    squares = [rel_compose(v, v) for v in closure]
    for r in closure:
        if not any(square <= r for square in squares):
            return {"ok": False, "law": "square-root", "witness": sorted(r)}
    return {"ok": True}


def lax_algebra_bridge(u):
    """The entourage filter as a reflexive transitive filter-algebra.

    The entourages are the relations containing the base intersection w,
    so both laws are decided on w alone, in O(n^3), without listing the
    2^(n*n - |w|) entourages: every entourage is reflexive iff w is, and,
    since b.b grows with b, an entourage a has a square root b.b <= a
    among the entourages iff w.w <= a, so every entourage has one iff
    w.w <= w.  A failing law names the first failing entourage in the
    canonical order of entourages, by their sorted pair lists.
    """
    assert u.w is not None
    w = u.w
    missing = [(x, x) for x in range(u.n) if (x, x) not in w]
    if missing:
        a = _first_entourage_missing(u, missing)
        x = next(x for x in range(u.n) if (x, x) not in a)
        return {"ok": False, "law": "unit", "witness": (sorted(a), x)}
    missing = rel_compose(w, w) - w
    if missing:
        return {
            "ok": False,
            "law": "composition",
            "witness": sorted(_first_entourage_missing(u, missing)),
        }
    return {"ok": True, "entourage_count": 2 ** (u.n * u.n - len(w))}


def _first_entourage_missing(u, missing):
    """The first entourage, in the canonical order, without some pair of missing.

    That order compares sorted pair lists, where a list precedes its
    extensions.  So the first such entourage takes every pair up to the
    largest pair of w, and leaves out the largest missing pair when that
    lies below it (missing is disjoint from w).
    """
    if not u.w:
        return frozenset()
    top, last = max(u.w), max(missing)
    pairs = ((x, y) for x in range(u.n) for y in range(u.n))
    return frozenset(p for p in pairs if p <= top and p != last)


def meet(masks, points):
    """The meet of masks[x] over the points x of the mask points."""
    out = (1 << len(masks)) - 1
    for x in _points(points):
        out &= masks[x]
    return out


def is_minimal_pair(down, up, left, right):
    """A filter pair (left, right) is minimal Cauchy iff right = U(left) and left = D(right).

    U(L) is the meet of up over L and D(R) the meet of down over R, so
    L x R lies inside w iff R <= U(L), iff L <= D(R): that is Cauchy.
    Being Cauchy is inherited by finer pairs: a smaller rectangle inside w
    stays inside w.  A coarser Cauchy pair (L', R') contains the one-point
    extension of (L, R) by any point of L' or R' outside L or R, which is
    then Cauchy too.  So (L, R) is minimal iff it is Cauchy and no pair
    that adds one point to one side is.  Adding y to R keeps it Cauchy iff
    y is in U(L), and adding x to L iff x is in D(R); so no one-point
    extension is Cauchy iff U(L) <= R and D(R) <= L, which with Cauchy
    is R = U(L) and L = D(R).
    """
    return right == meet(up, left) and left == meet(down, right)


def decide_cauchy_complete(u):
    """Both forms of completeness, which hold on every finite carrier.

    (i) every Cauchy filter pair converges; (ii) every minimal Cauchy
    filter pair is a neighbourhood pair.  A filter pair is given by its
    two minima, nonempty masks (L, R); it is Cauchy iff L x R lies in w.
    Any z in L & R gives L <= down[z] and R <= up[z]: the pair converges
    to z.  If it is minimal, R = U(L) and L = D(R) (is_minimal_pair), so
    by transitivity down[z] <= L and up[z] <= R: it is (down[z], up[z]).
    Each such pair is minimal, as U(down[z]) = up[z] and D(up[z]) =
    down[z], and points with the same down mask share their up mask.  So
    minimal_pairs lists the distinct neighbourhood pairs, as point
    tuples, in increasing (L, R).  An invalid base raises u.order's
    ValueError.
    """
    order = u.order
    pairs = sorted(set(zip(order.down, order.up)))
    return {
        "complete": True,
        "minimal_are_neighbourhoods": True,
        "minimal_pairs": [(_points(left), _points(right)) for left, right in pairs],
    }


def decide_lawvere_q(ext, u, oracle=False):
    """Point-representability of every adjoint module pair.

    ext is the caller's (id, 2) extension; oracle=True asks
    decide_lawvere_complete for its unpruned reference enumeration.  A
    module pair of u is a pair of principal filters of relations from and
    to the point, given by their minima: an up-set phi and a down-set psi
    of w (the module laws) that meet (the unit), with psi x phi inside w
    (the counit).  These are the adjoint pairs of the (id, 2)-category on
    w, so decide_lawvere_complete finds them.  A pair's key, (points where
    psi = top, points where phi = top), is also the key of its filter pair
    (psi, phi).

    Returns the module-side verdict, the Cauchy-side verdict computed
    independently (with its minimal-pair form), and their agreement.  It
    also reports the bimodule/filter bridge between the two sides: forward,
    every module pair's filter pair is minimal Cauchy; bijection, the
    module pairs give exactly the minimal Cauchy pairs.  An invalid base
    raises u.order's ValueError.
    """
    verdict = decide_lawvere_complete(order_tvcategory(ext, u.order), oracle)
    top = ext.q.top
    from_mods = {
        (
            tuple(s for s, (v,) in enumerate(psi) if v == top),
            tuple(p for p, v in enumerate(phi[0]) if v == top),
        )
        for psi, phi in (pair.tables for pair in verdict["pairs"])
    }
    cauchy = decide_cauchy_complete(u)
    minimal = set(cauchy["minimal_pairs"])
    return {
        "lawvere": verdict["complete"],
        "cauchy": cauchy["complete"],
        "minimal_are_neighbourhoods": cauchy["minimal_are_neighbourhoods"],
        "agree": verdict["complete"] == cauchy["complete"],
        "pair_count": verdict["pair_count"],
        "module_pairs": sorted(from_mods),
        "forward": from_mods <= minimal,
        "bijection": from_mods == minimal,
        "minimal_cauchy_pairs": len(minimal),
    }


def all_quniformities(n):
    """Every quasi-uniformity on n points, one singleton base [w] per preorder w.

    These are the distinct base intersections w of the walk over all bases
    of reflexive relations, each kept with the first base that gives it,
    in the walk's order.  A valid base makes w reflexive, and the
    square-root law at w gives some v in the intersection closure with
    v.v <= w; v contains w, so w.w <= v.v <= w: w is a preorder.  Every
    preorder is a valid singleton base.  Relation i of the walk has the
    i-th off-diagonal mask, and base mask r takes relation i when bit i
    of r is set; the intersection of relations below index i has a mask
    below i, so the walk first meets w at r = 1 << index(w), as the
    singleton base [w].  So the walk lists the preorders in increasing
    mask order, which is the order of enumerate_preorders.
    """
    return [
        QuasiUniformity(n, [frozenset((x, y) for x, up in enumerate(p.up) for y in _points(up))])
        for p in enumerate_preorders(n)
    ]


def curated_three_point():
    """Hand-picked three-point instances for the exhaustive appendix sweep."""
    diag = frozenset((x, x) for x in range(3))
    full = frozenset((x, y) for x in range(3) for y in range(3))
    chain = diag | {(0, 1), (1, 2), (0, 2)}
    vee = diag | {(0, 1), (0, 2)}
    sym01 = diag | {(0, 1), (1, 0)}
    single = diag | {(0, 1)}
    return [
        QuasiUniformity(3, [diag]),
        QuasiUniformity(3, [full]),
        QuasiUniformity(3, [chain]),
        QuasiUniformity(3, [vee]),
        QuasiUniformity(3, [sym01]),
        QuasiUniformity(3, [single]),
        QuasiUniformity(3, [single, diag | {(1, 2)}]),
        QuasiUniformity(3, [chain, diag | {(2, 1)}]),
        QuasiUniformity(3, [full, chain]),
    ]
