"""Quasi-uniform spaces as filters of reflexive relations, at finite scale.

Entourage filters on a finite carrier are principal: the up-closure of
the intersection of the base.  Filters of subsets are principal too, so
filter pairs are represented by their two minimum sets and all the
Cauchy machinery becomes exact set arithmetic.  The bridge to modules
reads filters of relations between the carrier and the point by their
minima too: they are the module pairs of the (id, 2)-category on the
base intersection, which the library's adjoint-pair enumeration finds.
"""

from __future__ import annotations

from .completeness import decide_lawvere_complete
from .instances import enumerate_preorders
from .tvcat import order_tvcategory


def rel_compose(r, s):
    """r then s: pairs (x,z) with some y, (x,y) in r and (y,z) in s."""
    by_src = {}
    for (y, z) in s:
        by_src.setdefault(y, []).append(z)
    return frozenset((x, z) for (x, y) in r for z in by_src.get(y, ()))


class QuasiUniformity:
    """Carrier size and a base of relations; entourages are derived."""

    def __init__(self, n, base):
        self.n = n
        self.base = [frozenset(r) for r in base]
        self.w = frozenset.intersection(*self.base) if self.base else None

    def __repr__(self):
        return f"QuasiUniformity(n={self.n}, base={len(self.base)})"

    def nbhd_left(self, x0):
        """Points reaching x0 through every entourage."""
        return frozenset(x for x in range(self.n) if (x, x0) in self.w)

    def nbhd_right(self, x0):
        return frozenset(y for y in range(self.n) if (x0, y) in self.w)


def validate_quniformity(u):
    """Reflexivity of every base relation and square roots for intersections."""
    if not u.base:
        return {"ok": False, "law": "empty-base", "witness": None}
    for i, r in enumerate(u.base):
        for x in range(u.n):
            if (x, x) not in r:
                return {"ok": False, "law": "reflexivity", "witness": (i, x)}
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


class FilterPair:
    """Pair of principal subset filters with pairwise intersection."""

    def __init__(self, n, left_min, right_min):
        self.n = n
        self.left = frozenset(left_min)
        self.right = frozenset(right_min)
        if not self.left or not self.right:
            raise ValueError("improper filter in pair")
        if not self.left & self.right:
            raise ValueError("filter pair members must intersect")

    def key(self):
        return (tuple(sorted(self.left)), tuple(sorted(self.right)))

    def __eq__(self, other):
        return isinstance(other, FilterPair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FilterPair({sorted(self.left)}, {sorted(self.right)})"


def is_cauchy(u, fp):
    """Some member rectangle fits inside every entourage."""
    return all((x, y) in u.w for x in fp.left for y in fp.right)


def converges_to(u, fp):
    """All points x0 with the pair inside the two neighbourhood filters."""
    out = []
    for x0 in range(u.n):
        if fp.left <= u.nbhd_left(x0) and fp.right <= u.nbhd_right(x0):
            out.append(x0)
    return out


def is_minimal_cauchy(u, fp):
    """Cauchy, and no strictly coarser pair (larger minima) is Cauchy.

    Being Cauchy is inherited by finer pairs: a smaller rectangle inside w
    stays inside w.  A coarser Cauchy pair (L, R) contains the one-point
    extension of fp by any point of L or R outside fp's minima, which is
    then Cauchy too.  So it suffices to try the pairs that add one point to
    one side.
    """
    if not is_cauchy(u, fp):
        return False
    w = u.w
    left_ext = (x for x in range(u.n) if x not in fp.left)
    if any(all((x, y) in w for y in fp.right) for x in left_ext):
        return False
    right_ext = (y for y in range(u.n) if y not in fp.right)
    return not any(all((x, y) in w for x in fp.left) for y in right_ext)


def neighbourhood_pair(u, x0):
    return FilterPair(u.n, u.nbhd_left(x0), u.nbhd_right(x0))


def cauchy_machinery(u, fp):
    return {
        "is_cauchy": is_cauchy(u, fp),
        "converges_to": converges_to(u, fp),
        "is_minimal": is_minimal_cauchy(u, fp),
    }


def all_filter_pairs(n):
    subsets = []
    for mask in range(1, 1 << n):
        subsets.append(frozenset(x for x in range(n) if mask & (1 << x)))
    out = []
    for left in subsets:
        for right in subsets:
            if left & right:
                out.append(FilterPair(n, left, right))
    return out


def decide_cauchy_complete(u):
    """Both forms of completeness, computed independently and compared.

    (i) every Cauchy filter pair converges; (ii) every minimal Cauchy
    filter pair is a neighbourhood pair.
    """
    pairs = all_filter_pairs(u.n)
    all_converge = all(converges_to(u, fp) for fp in pairs if is_cauchy(u, fp))
    nbhd = {neighbourhood_pair(u, x0) for x0 in range(u.n)}
    minimal = [fp for fp in pairs if is_minimal_cauchy(u, fp)]
    minimal_are_nbhd = all(fp in nbhd for fp in minimal)
    if all_converge != minimal_are_nbhd:
        raise AssertionError("the two completeness forms disagree; machinery bug")
    return {
        "complete": all_converge,
        "minimal_are_neighbourhoods": minimal_are_nbhd,
        "minimal_pairs": [fp.key() for fp in minimal],
    }


def decide_lawvere_q(ext, u):
    """Point-representability of every adjoint module pair.

    ext is the caller's (id, 2) extension.  A module pair of u is a pair of
    principal filters of relations from and to the point, given by their
    minima: an up-set phi and a down-set psi of w (the module laws) that
    meet (the unit), with psi x phi inside w (the counit).  These are the
    adjoint pairs of the (id, 2)-category on w, so decide_lawvere_complete
    finds them.  A pair's key, (points where psi = top, points where
    phi = top), is also the key of its filter pair (psi, phi).

    Returns the module-side verdict, the Cauchy-side verdict computed
    independently (with its minimal-pair form), and their agreement.  It
    also reports the bimodule/filter bridge between the two sides: forward,
    every module pair's filter pair is minimal Cauchy; bijection, the
    module pairs give exactly the minimal Cauchy pairs.
    """
    n = u.n
    leq_w = [[(x, y) in u.w for y in range(n)] for x in range(n)]
    verdict = decide_lawvere_complete(order_tvcategory(ext, leq_w))
    top = ext.q.top
    from_mods = {
        (
            tuple(s for s, (v,) in enumerate(pair.psi.data) if v == top),
            tuple(p for p, v in enumerate(pair.phi.data[0]) if v == top),
        )
        for pair in verdict["pairs"]
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
        QuasiUniformity(n, [frozenset((x, y) for x in range(n) for y in range(n) if p.leq[x][y])])
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
