"""Finitary Set-monads with canonically indexed carriers.

Each monad enumerates T(X) for the abstract set X = {0..n-1} and exposes
the functor action, unit and multiplication as index tables, so matrices
over T-carriers are ordinary dense matrices.  T applied twice is T of a
set of size |T(n)|, which keeps the indexing uniform at every depth.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded

HARD_CARRIER_CAP = 1 << 20


class FiniteMonad:
    """Interface: size, functor action, unit, multiplication, labels."""

    name = "?"

    def size(self, n):
        raise NotImplementedError

    def tmap(self, f, n_src, n_tgt):
        """Index table of T(f) for f given as an index table."""
        raise NotImplementedError

    def unit_map(self, n):
        raise NotImplementedError

    def mult_map(self, n):
        raise NotImplementedError

    def labels(self, n, base):
        raise NotImplementedError

    def extend_relation(self, pairs, nx, ny):
        """Span extension of a plain relation: T of the graph set, projected.

        The graph is enumerated as an abstract finite set; the result is the
        set of (T q(z), T p(z)) for z in T(graph), with q, p the projections.
        """
        pairs = sorted(pairs)
        g = len(pairs)
        if self.size(g) > HARD_CARRIER_CAP:
            raise BudgetExceeded("span extension over relation graph", self.size(g), HARD_CARRIER_CAP)
        qmap = tuple(p[0] for p in pairs)
        pmap = tuple(p[1] for p in pairs)
        tq = self.tmap(qmap, g, nx)
        tp = self.tmap(pmap, g, ny)
        return frozenset(zip(tq, tp))

    def __repr__(self):
        return f"<monad {self.name}>"


class IdentityMonad(FiniteMonad):
    name = "id"

    def size(self, n):
        return n

    def tmap(self, f, n_src, n_tgt):
        return tuple(f)

    def unit_map(self, n):
        return tuple(range(n))

    def mult_map(self, n):
        return tuple(range(n))

    def labels(self, n, base):
        return tuple(base)


class UltrafilterMonad(IdentityMonad):
    """Ultrafilters on a finite set: all principal, indexed by their point.

    Index arithmetic is that of the identity monad, but each element
    carries its filter-family semantics through `family`, which returns
    the up-closed, intersection-closed, prime collection of subsets.
    """

    name = "ultra"

    def family(self, n, i):
        """The principal ultrafilter at i as a frozenset of frozensets."""
        members = []
        for mask in range(1 << n):
            if mask & (1 << i):
                members.append(frozenset(b for b in range(n) if mask & (1 << b)))
        return frozenset(members)


class PowersetMonad(FiniteMonad):
    """Covariant powerset: T(X) = subsets of X as bitmasks, e = singleton, m = union."""

    name = "powerset"

    def size(self, n):
        if n >= 24:
            raise BudgetExceeded("powerset carrier", 1 << n, HARD_CARRIER_CAP)
        return 1 << n

    def tmap(self, f, n_src, n_tgt):
        # Doubling: the masks in [2^b, 2^(b+1)) are the masks below 2^b
        # with bit b added, so their images gain f(b).
        out = [0]
        for b in range(n_src):
            bit = 1 << f[b]
            out += [img | bit for img in out]
        return tuple(out)

    def unit_map(self, n):
        return tuple(1 << x for x in range(n))

    def mult_map(self, n):
        tn = self.size(n)
        if self.size(tn) > HARD_CARRIER_CAP:
            raise BudgetExceeded("powerset multiplication table", self.size(tn), HARD_CARRIER_CAP)
        out = [0]
        for b in range(tn):
            out += [u | b for u in out]
        return tuple(out)

    def labels(self, n, base):
        return tuple(
            "{" + ",".join(base[b] for b in range(n) if mask & (1 << b)) + "}"
            for mask in range(1 << n)
        )

    def extend_relation(self, pairs, nx, ny):
        # Subsets of the graph project exactly to the pairs (A, B) where
        # every point of A sees B and every point of B is seen from A, so
        # the span can be evaluated without materializing 2^|graph| sets.
        succ = [0] * nx
        pred = [0] * ny
        for (x, y) in pairs:
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        tn_x, tn_y = 1 << nx, 1 << ny
        succ_of = [0] * tn_x
        for a in range(1, tn_x):
            low = (a & -a).bit_length() - 1
            succ_of[a] = succ_of[a & (a - 1)] | succ[low]
        pre_of = [0] * tn_y
        for b in range(1, tn_y):
            low = (b & -b).bit_length() - 1
            pre_of[b] = pre_of[b & (b - 1)] | pred[low]
        out = []
        for a in range(tn_x):
            sa = succ_of[a]
            for b in range(tn_y):
                if (a & ~pre_of[b]) == 0 and (b & ~sa) == 0:
                    out.append((a, b))
        return frozenset(out)


def span_extend_relation(monad, pairs, nx, ny):
    """Reference span extension that always enumerates T(graph)."""
    return FiniteMonad.extend_relation(monad, pairs, nx, ny)


_MONADS = None


def builtin_monads():
    global _MONADS
    if _MONADS is None:
        _MONADS = {"id": IdentityMonad(), "powerset": PowersetMonad(), "ultra": UltrafilterMonad()}
    return _MONADS


def builtin_monad(name):
    cat = builtin_monads()
    if name not in cat:
        raise KeyError(f"unknown monad {name!r}; have {sorted(cat)}")
    return cat[name]


def _all_functions(n_src, n_tgt):
    return itertools.product(range(n_tgt), repeat=n_src)


def check_functor_laws(monad, max_n=3):
    """T(id) = id and T(g.f) = T(g).T(f) for all functions on small sets."""
    for n in range(max_n + 1):
        ident = tuple(range(n))
        if monad.tmap(ident, n, n) != tuple(range(monad.size(n))):
            return {"ok": False, "law": "functor-identity", "witness": n}
    for n, m, p in itertools.product(range(max_n + 1), repeat=3):
        for f in _all_functions(n, m):
            tf = monad.tmap(f, n, m)
            for g in _all_functions(m, p):
                tg = monad.tmap(g, m, p)
                gf = tuple(g[f[x]] for x in range(n))
                if monad.tmap(gf, n, p) != tuple(tg[tf[i]] for i in range(monad.size(n))):
                    return {"ok": False, "law": "functor-composition", "witness": (n, m, p, f, g)}
    return {"ok": True}


def check_naturality(monad, max_n=3):
    """e and m are natural for the plain functor on all small functions."""
    for n, m in itertools.product(range(max_n + 1), repeat=2):
        e_n, e_m = monad.unit_map(n), monad.unit_map(m)
        mu_n, mu_m = monad.mult_map(n), monad.mult_map(m)
        for f in _all_functions(n, m):
            tf = monad.tmap(f, n, m)
            if tuple(tf[e_n[x]] for x in range(n)) != tuple(e_m[f[x]] for x in range(n)):
                return {"ok": False, "law": "unit-naturality", "witness": (n, m, f)}
            ttf = monad.tmap(tf, monad.size(n), monad.size(m))
            lhs = tuple(tf[mu_n[i]] for i in range(monad.size(monad.size(n))))
            rhs = tuple(mu_m[ttf[i]] for i in range(monad.size(monad.size(n))))
            if lhs != rhs:
                return {"ok": False, "law": "mult-naturality", "witness": (n, m, f)}
    return {"ok": True}


def check_monad_laws(monad, max_n=3, max_enum=HARD_CARRIER_CAP):
    """Unit and associativity laws, pointwise on enumerated carriers.

    Unit laws run for |X| <= max_n; the associativity square needs T^3(X)
    and is checked for every |X| <= max_n whose triple carrier fits the
    budget (the sizes actually checked are reported).
    """
    assoc_checked = []
    for n in range(max_n + 1):
        tn = monad.size(n)
        e = monad.unit_map(n)
        te = monad.tmap(e, n, tn)
        mu = monad.mult_map(n)
        for i in range(tn):
            if mu[te[i]] != i:
                return {"ok": False, "law": "mult-after-Te", "witness": (n, i)}
        e_t = monad.unit_map(tn)
        for i in range(tn):
            if mu[e_t[i]] != i:
                return {"ok": False, "law": "mult-after-eT", "witness": (n, i)}
        ttn = monad.size(tn)
        try:
            tttn = monad.size(ttn)
        except BudgetExceeded:
            continue
        if tttn > max_enum:
            continue
        mu_t = monad.mult_map(tn)
        tmu = monad.tmap(mu, ttn, tn)
        for i in range(tttn):
            if mu[tmu[i]] != mu[mu_t[i]]:
                return {"ok": False, "law": "mult-associativity", "witness": (n, i)}
        assoc_checked.append(n)
    return {"ok": True, "associativity_checked_sizes": assoc_checked}


def _weak_pullback_cover(monad, f, g, nx, ny, nz):
    """Does T send the pullback of (f, g) to a weak pullback?

    The achievable pairs (T pi1, T pi2) over T(pullback) are exactly the
    span extension of the pullback relation, so the check reduces to: every
    (u, v) with Tf(u) = Tg(v) lies in that extension.
    """
    rel = [(x, y) for x in range(nx) for y in range(ny) if f[x] == g[y]]
    achievable = monad.extend_relation(rel, nx, ny)
    tf = monad.tmap(f, nx, nz)
    tg = monad.tmap(g, ny, nz)
    for u in range(monad.size(nx)):
        for v in range(monad.size(ny)):
            if tf[u] == tg[v] and (u, v) not in achievable:
                return (u, v)
    return None


def m_square_gap(monad, f, nx, ny):
    """Where the naturality square of m at f fails to be a weak pullback.

    Returns the first (alpha, beta) with m(alpha) = Tf(beta) that is not
    (TTf(s), m(s)) for any s in TT(nx), or None when the square is one.
    """
    tf = monad.tmap(f, nx, ny)
    ttf = monad.tmap(tf, monad.size(nx), monad.size(ny))
    mu_x, mu_y = monad.mult_map(nx), monad.mult_map(ny)
    achieved = {(ttf[s], mu_x[s]) for s in range(monad.size(monad.size(nx)))}
    for alpha in range(monad.size(monad.size(ny))):
        for beta in range(monad.size(nx)):
            if mu_y[alpha] == tf[beta] and (alpha, beta) not in achieved:
                return alpha, beta
    return None


def check_bc(monad, max_n=3):
    """Empirical Beck-Chevalley report for the functor and for m.

    Functor: every pullback square of functions between sets of size
    <= max_n maps to a weak pullback.  m: every naturality square of the
    multiplication is a weak pullback.  Verdicts are reported as found.
    """
    functor_ok = True
    functor_witness = None
    for nx, ny, nz in itertools.product(range(max_n + 1), repeat=3):
        for f in _all_functions(nx, nz):
            for g in _all_functions(ny, nz):
                w = _weak_pullback_cover(monad, f, g, nx, ny, nz)
                if w is not None:
                    functor_ok = False
                    functor_witness = (nx, ny, nz, f, g, w)
                    break
            if not functor_ok:
                break
        if not functor_ok:
            break

    m_witness = None
    for nx, ny in itertools.product(range(max_n + 1), repeat=2):
        for f in _all_functions(nx, ny):
            gap = m_square_gap(monad, f, nx, ny)
            if gap is not None:
                m_witness = (nx, ny, f, *gap)
                break
        if m_witness is not None:
            break

    return {
        "functor_bc": functor_ok,
        "functor_witness": functor_witness,
        "m_bc": m_witness is None,
        "m_witness": m_witness,
        "max_n": max_n,
    }


def monad_capabilities(monad, bc_max_n=None):
    """Capability flags consumed by the conditional theorems downstream."""
    if bc_max_n is None:
        bc_max_n = 2 if monad.name == "powerset" else 3
    bc = check_bc(monad, bc_max_n)
    return {
        "t1_is_one": monad.size(1) == 1,
        "t_empty_is_empty": monad.size(0) == 0,
        "functor_bc": bc["functor_bc"],
        "m_bc": bc["m_bc"],
        "bc_max_n": bc_max_n,
    }


def enumerate_filter_families(n):
    """All ultrafilters on {0..n-1} found by scanning every family of subsets.

    Oracle used to confirm that ultrafilters on a finite set are exactly the
    principal ones: a family qualifies when it is a proper filter (upward
    closed, closed under intersection, without the empty set) that is prime
    in the strong sense of containing A or its complement for every A.
    """
    subsets = [frozenset(b for b in range(n) if m & (1 << b)) for m in range(1 << n)]
    found = []
    for fam_mask in range(1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if fam_mask & (1 << i)]
        famset = set(fam)
        if not fam or frozenset() in famset:
            continue
        ok = True
        for a in fam:
            for b in subsets:
                if a <= b and b not in famset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in fam:
                for b in fam:
                    if a & b not in famset:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            full = frozenset(range(n))
            for a in subsets:
                if (a in famset) == (full - a in famset):
                    ok = False
                    break
        if ok:
            found.append(frozenset(famset))
    return found
