"""Quasi-uniform spaces as filters of reflexive relations, at finite scale.

Entourage filters on a finite carrier are principal: the up-closure of
the intersection of the base.  Filters of subsets are principal too, so
filter pairs are represented by their two minimum sets and all the
Cauchy machinery becomes exact set arithmetic.  The bridge to modules
works with filters of relations between the carrier and the point,
again by their minima, with composition and reverse-inclusion order.
"""

from __future__ import annotations


def rel_compose(r, s):
    """r then s: pairs (x,z) with some y, (x,y) in r and (y,z) in s."""
    by_src = {}
    for (y, z) in s:
        by_src.setdefault(y, []).append(z)
    return frozenset((x, z) for (x, y) in r for z in by_src.get(y, ()))


def rel_image(r, pts):
    return frozenset(z for (y, z) in r if y in pts)


def rel_preimage(r, pts):
    return frozenset(y for (y, z) in r if z in pts)


class QuasiUniformity:
    """Carrier size and a base of relations; entourages are derived."""

    def __init__(self, n, base):
        self.n = n
        self.base = [frozenset(r) for r in base]
        self.w = frozenset.intersection(*self.base) if self.base else None

    def __repr__(self):
        return f"QuasiUniformity(n={self.n}, base={len(self.base)})"

    def entourages(self):
        """All relations containing the base intersection, canonical order."""
        assert self.w is not None
        allpairs = [(x, y) for x in range(self.n) for y in range(self.n)]
        rest = [p for p in allpairs if p not in self.w]
        out = []
        for mask in range(1 << len(rest)):
            extra = {rest[i] for i in range(len(rest)) if mask & (1 << i)}
            out.append(self.w | extra)
        return sorted(out, key=lambda r: sorted(r))

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
    canonical order of entourages().
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
    """The first entourage, in the order of entourages(), without some pair of missing.

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


class RelFilterModule:
    """Module pair candidate: principal filters of relations to and from the point.

    phi_min is the minimum subset standing for the filter of relations
    from the point into the carrier, psi_min the one towards the point.
    """

    def __init__(self, u, phi_min, psi_min):
        self.u = u
        self.phi = frozenset(phi_min)
        self.psi = frozenset(psi_min)

    def key(self):
        return (tuple(sorted(self.psi)), tuple(sorted(self.phi)))

    def is_phi_bimodule(self):
        # composing with the structure filter keeps the minimum inside
        return rel_image(self.u.w, self.phi) <= self.phi

    def is_psi_bimodule(self):
        return rel_preimage(self.u.w, self.psi) <= self.psi

    def is_adjoint(self):
        unit = bool(self.phi & self.psi)
        counit = all((x, y) in self.u.w for x in self.psi for y in self.phi)
        return unit and counit

    def filter_pair(self):
        return FilterPair(self.u.n, self.psi, self.phi)


def adjoint_module_pairs(u):
    """All adjoint bimodule pairs from and to the point, canonically ordered."""
    out = []
    for phi_mask in range(1, 1 << u.n):
        phi = frozenset(x for x in range(u.n) if phi_mask & (1 << x))
        for psi_mask in range(1, 1 << u.n):
            psi = frozenset(x for x in range(u.n) if psi_mask & (1 << x))
            cand = RelFilterModule(u, phi, psi)
            if cand.is_phi_bimodule() and cand.is_psi_bimodule() and cand.is_adjoint():
                out.append(cand)
    out.sort(key=RelFilterModule.key)
    return out


def point_induced_module(u, x0):
    """The pair cut out by the map picking x0: structure after and before it."""
    return RelFilterModule(u, u.nbhd_right(x0), u.nbhd_left(x0))


def decide_lawvere_q(u):
    """Point-representability of every adjoint module pair.

    Returns the module-side verdict, the Cauchy-side verdict computed
    independently (with its minimal-pair form), and their agreement.  It
    also reports the bimodule/filter bridge between the two sides: forward,
    every module pair's filter pair is minimal Cauchy; bijection, the
    module pairs give exactly the minimal Cauchy pairs.
    """
    mods = adjoint_module_pairs(u)
    induced = {point_induced_module(u, x0).key() for x0 in range(u.n)}
    lawvere = all(m.key() in induced for m in mods)
    cauchy = decide_cauchy_complete(u)
    minimal = set(cauchy["minimal_pairs"])
    from_mods = {m.filter_pair().key() for m in mods}
    return {
        "lawvere": lawvere,
        "cauchy": cauchy["complete"],
        "minimal_are_neighbourhoods": cauchy["minimal_are_neighbourhoods"],
        "agree": lawvere == cauchy["complete"],
        "pair_count": len(mods),
        "forward": from_mods <= minimal,
        "bijection": from_mods == minimal,
        "minimal_cauchy_pairs": len(minimal),
    }


def all_quniformities(n):
    """Every quasi-uniformity generated from a base of reflexive relations."""
    diag = frozenset((x, x) for x in range(n))
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    rels = []
    for mask in range(1 << len(offdiag)):
        extra = frozenset(offdiag[i] for i in range(len(offdiag)) if mask & (1 << i))
        rels.append(diag | extra)
    out = []
    seen = set()
    for r in range(1, 1 << len(rels)):
        base = [rels[i] for i in range(len(rels)) if r & (1 << i)]
        u = QuasiUniformity(n, base)
        if validate_quniformity(u)["ok"] and u.w not in seen:
            seen.add(u.w)
            out.append(u)
    return out


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
