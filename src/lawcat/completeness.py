"""Completeness by exhaustive adjoint-pair enumeration.

An adjoint pair on (X, a) is a left module phi from the one-point
category with right adjoint psi; the category is complete when every
such pair is induced by a point.  The enumerator resolves phi from psi
through the residual bound (adjoints are unique), with an unpruned
reference enumeration kept for cross-checking.
"""

from __future__ import annotations

import weakref

from .errors import GateUnavailable
from .monad import IdentityMonad, monad_capabilities
from .tvcat import (
    TVCategory,
    check_tv_adjunction,
    check_tvfunctor,
    hom_xi_category,
    is_tvbimodule,
    kleisli_table,
    unit_tvcategory,
)
# Unused here: the perfbench tracer tests wrap this direct import by name.
from .tvcat import kleisli_compose  # noqa: F401
from .vmatrix import VMatrix, all_matrices


# Keyed on the monad object (held weakly): two monads may share a name.
_MONAD_CAPS = weakref.WeakKeyDictionary()


def _caps(monad):
    if monad not in _MONAD_CAPS:
        _MONAD_CAPS[monad] = monad_capabilities(monad)
    return _MONAD_CAPS[monad]


def completeness_gate(ext):
    """Which hypothesis legitimizes the one-point reduction, if any.

    T1 = 1 is read off the monad exactly; only without it is the sampled
    Beck-Chevalley sweep of monad_capabilities run.
    """
    if ext.monad.size(1) == 1:
        return "T1=1"
    if _caps(ext.monad)["m_bc"]:
        return "m-BC"
    return None


class AdjointPair:
    """A candidate pair with cached verdicts and an optional representative."""

    __slots__ = ("phi", "psi", "representative")

    def __init__(self, phi, psi, representative=None):
        self.phi = phi
        self.psi = psi
        self.representative = representative

    def key(self):
        return (self.psi.data, self.phi.data)

    def __repr__(self):
        return f"AdjointPair(rep={self.representative})"


def _kc_closed_psis(q, kc, tn):
    """Every psi with kc[s][t] (x) psi[t] <= psi[s] for all s, t.

    Backtracking over the coordinates in order: a value is rejected as soon
    as the constraint fails against itself or an assigned coordinate, in
    either direction.  The result is in itertools.product order.
    """
    tens, leq = q.tensor, q.leq
    values = range(q.n)
    psi = [q.bottom] * tn
    out = []

    def assign(i):
        if i == tn:
            out.append(tuple(psi))
            return
        kc_i = kc[i]
        for v in values:
            if not leq[tens[kc_i[i]][v]][v]:
                continue
            for j in range(i):
                w = psi[j]
                if not (leq[tens[kc_i[j]][w]][v] and leq[tens[kc[j][i]][v]][w]):
                    break
            else:
                psi[i] = v
                assign(i + 1)

    assign(0)
    return out


def _pruned_pairs(x, kc, pcat):
    """The adjoint pairs of enumerate_adjoint_pairs, unsorted, on plain tuples.

    Every psi has one shape, so the budget check that extend would make on
    each is made once, before the walk (which always yields the bottom psi).
    Over the identity monad (and so the ultrafilter monad) with at least one
    point the walk is _identity_pairs; otherwise, and as its reference in
    the tests, it is _pairs_by_extension.
    """
    ext = x.ext
    ext.check_budget("extended matrix size", ext.monad.size(x.n) * ext.monad.size(1))
    if x.n and isinstance(ext.monad, IdentityMonad):
        return _identity_pairs(x, kc, pcat.a.data[0][0])
    return _pairs_by_extension(x, kc, pcat)


def _identity_pairs(x, kc, c):
    """The adjoint pairs over the identity monad: psi walked with phi carried.

    Here T(n) = n, T1 = 1, every extension is the matrix itself and the
    one-point category is the 1 x 1 matrix (c), with c = k.  phi is the
    residual bound phi[p] = meet_t hom(psi[t], a[t][p]); the walk assigns psi
    as _kc_closed_psis does (with the same kc checks) and carries its prefix
    meets phi_i[p] = phi_{i-1}[p] meet hom(psi[i], a[i][p]) down each branch.

    The unit c <= V_x phi[x] (x) psi[x] is the cut.  After psi[i] is
    assigned, let U = V_{x<=i} phi_i[x] (x) psi[x] v V_{x>i} phi_i[x] (x) top.
    Every leaf below has phi[x] <= phi_i[x] (phi only meets in more terms)
    and psi[x] <= top, so, (x) and joins being monotone, its unit join is at
    most U: when c <= U fails, no leaf of the branch meets the unit, and the
    branch is cut.  At the last coordinate U is the unit join itself, so
    every leaf meets the unit.

    Of the module laws only the a side of the phi law is left to check at
    a leaf, phi[t] (x) a[t][p] <= phi[p].  The unit-category halves of both
    laws read k (x) v <= v (pcat's Kleisli table is (k)): the quantale unit
    law k (x) v = v, which validate_quantale enforces on every loaded
    quantale and the quantale-laws suite item checks on the built-ins.  The
    counit holds by construction of phi, as in _pairs_by_extension.
    """
    q = x.ext.q
    n = x.n
    tens, leq, join_t, meet_t, hom_t = q.tensor, q.leq, q.join_t, q.meet_t, q.hom_t
    bot, top = q.bottom, q.top
    a = x.a.data
    leq_c = leq[c]
    values = range(q.n)
    tens_top = [tens[u][top] for u in values]
    # hom(v, a[i][p]) over p, for each coordinate i and value v
    homs = [[tuple([hom_t[v][w] for w in a[i]]) for v in values] for i in range(n)]
    last = n - 1
    psi = [bot] * n
    pairs = []

    def leaf(phi):
        for t, u in enumerate(phi):
            if u == bot:
                continue
            tens_u = tens[u]
            for w, v in zip(a[t], phi):
                if not leq[tens_u[w]][v]:
                    return
        pairs.append(
            AdjointPair(
                VMatrix.trusted(q, 1, n, (phi,)),
                VMatrix.trusted(q, n, 1, tuple([(v,) for v in psi])),
            )
        )

    def assign(i, prefix):
        kc_i = kc[i]
        homs_i = homs[i]
        for v in values:
            if not leq[tens[kc_i[i]][v]][v]:
                continue
            for j in range(i):
                w = psi[j]
                if not (leq[tens[kc_i[j]][w]][v] and leq[tens[kc[j][i]][v]][w]):
                    break
            else:
                psi[i] = v
                phi = tuple([meet_t[f][h] for f, h in zip(prefix, homs_i[v])])
                acc = bot
                for u, w in zip(phi, psi[: i + 1]):
                    acc = join_t[acc][tens[u][w]]
                    if leq_c[acc]:
                        break
                else:
                    for u in phi[i + 1 :]:
                        acc = join_t[acc][tens_top[u]]
                        if leq_c[acc]:
                            break
                    else:
                        continue
                if i == last:
                    leaf(phi)
                else:
                    assign(i + 1, phi)

    assign(0, (top,) * n)
    return pairs


def _pairs_by_extension(x, kc, pcat):
    """The adjoint pairs over any monad, unsorted, through the extension of phi.

    Walks only the psi satisfying the kc half of the psi-module law.  Each
    of them is extended on its tuple by LaxExtension.extend_column, through
    the inclusion column of its values, and becomes a VMatrix only in a kept
    pair.  The caller
    makes the budget check that extend would make on each psi.  At
    each psi the kernel checks the unit-category half of the psi law,
    resolves phi from the residual bound, and checks the unit and both
    phi-module laws.  Each check is a loop over an index list fixed before
    the walk and stops at the first violated cell.  The unit, which rejects
    most candidates, goes first.
    An inequality (join of terms) <= bound is tested term by term; the unit,
    a lower bound, joins its terms only until the join reaches it.  The
    counit phi * psi <= a holds by construction: each of its terms is
    u (x) phi[t][z] with u = Tpsi[big][t], and phi[t][z] is a meet that
    includes hom(u, a[m(big)][z]), so the term is at most
    u (x) hom(u, a[m(big)][z]) <= a[m(big)][z].
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    n = x.n
    tn = monad.size(n)
    t1 = monad.size(1)
    tens, leq, join_t, meet_t, hom_t = q.tensor, q.leq, q.join_t, q.meet_t, q.hom_t
    bot, top = q.bottom, q.top
    a = x.a.data
    # The one-point category's structure is bottom off the image of e, and a
    # term with a bottom factor is bottom: only these entries add to a join.
    pa = [(t, row[0]) for t, row in enumerate(pcat.a.data) if row[0] != bot]
    kcp = kleisli_table(pcat)
    fib_n = ext.mult_fibers(n)
    fib_1 = ext.mult_fibers(1)
    # a(m(big), p) for every p, as columns over T(T(n))
    a_mu = [tuple(a[s][p] for s in ext.mult_map(n)) for p in range(n)]
    # psi law, unit-category half: Tpsi[big][t] (x) c <= psi[s], big over m^-1(s)
    psi_unit = [
        (big, t, tuple(tens[u][c] for u in range(q.n)), s)
        for s in range(tn)
        for big in fib_n[s]
        for t, c in pa
    ]
    # unit: c <= V_{big in m^-1(s)} V_t Tphi[big][t] (x) psi[t]
    phi_unit = [(leq[c], fib_1[s]) for s, c in pa]
    # phi law, unit-category half: kcp[s][t] (x) phi[t] <= phi[s]
    phi_kcp = [(tens[kcp[s][t]], s, t) for s in range(t1) for t in range(t1) if kcp[s][t] != bot]
    # phi law, a side: Tphi[big][t] (x) a[t] <= phi[s], big over m^-1(s)
    phi_a = [(s, big) for s in range(t1) for big in fib_1[s]]

    extend_column = ext.extend_column

    def pair_at(flat):
        psi_rows = tuple([(v,) for v in flat])
        tpsi = extend_column(flat)
        for big, t, tens_c, s in psi_unit:
            if not leq[tens_c[tpsi[big][t]]][flat[s]]:
                return None
        phi_rows = []
        for z in range(t1):
            col = [row[z] for row in tpsi]
            row = []
            for a_p in a_mu:
                acc = top
                for u, w in zip(col, a_p):
                    acc = meet_t[acc][hom_t[u][w]]
                row.append(acc)
            phi_rows.append(tuple(row))
        phi_rows = tuple(phi_rows)
        phi = VMatrix.trusted(q, t1, n, phi_rows)
        tphi = ext.extend(phi).data
        for leq_c, bigs in phi_unit:
            acc = bot
            for big in bigs:
                for u, w in zip(tphi[big], flat):
                    acc = join_t[acc][tens[u][w]]
                    if leq_c[acc]:
                        break
                else:
                    continue
                break
            else:
                return None
        for tens_k, s, t in phi_kcp:
            for w, v in zip(phi_rows[t], phi_rows[s]):
                if not leq[tens_k[w]][v]:
                    return None
        for s, big in phi_a:
            phi_s = phi_rows[s]
            for t, u in enumerate(tphi[big]):
                if u == bot:
                    continue
                tens_u = tens[u]
                for w, v in zip(a[t], phi_s):
                    if not leq[tens_u[w]][v]:
                        return None
        return AdjointPair(phi, VMatrix.trusted(q, tn, 1, psi_rows))

    pairs = []
    for flat in _kc_closed_psis(q, kc, tn):
        pair = pair_at(flat)
        if pair is not None:
            pairs.append(pair)
    return pairs


def enumerate_adjoint_pairs(x, oracle=False):
    """All adjoint module pairs from the one-point category into x.

    The pruned path backtracks over the psi space, resolves the unique
    left-adjoint candidate for each module and verifies the pair; with
    oracle=True both sides are enumerated independently and crossed.
    The enumeration is meaningful with or without a reduction gate; the
    caller labels the verdict by completeness_gate.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    t1 = monad.size(1)
    pcat = unit_tvcategory(ext)
    psi_count = q.n ** tn
    ext.check_budget("psi space", psi_count)
    # Built on both paths: its extension is the next budget check either way.
    kc = kleisli_table(x)

    if not oracle:
        pairs = _pruned_pairs(x, kc, pcat)
    else:
        phi_count = q.n ** (t1 * x.n)
        ext.check_budget("pair space", phi_count * psi_count)
        psis = [psi for psi in all_matrices(q, tn, 1, ext.max_enum) if is_tvbimodule(psi, x, pcat)]
        phis = [phi for phi in all_matrices(q, t1, x.n, ext.max_enum) if is_tvbimodule(phi, pcat, x)]
        pairs = [
            AdjointPair(phi, psi)
            for psi in psis
            for phi in phis
            if check_tv_adjunction(ext, phi, psi, x, pcat)["is_adjoint"]
        ]
    pairs.sort(key=AdjointPair.key)
    return pairs


def representables(x):
    """The representing point of each representable pair, keyed as AdjointPair.key.

    The points are taken in order.  Point p induces the pair with
    psi = a(-, p) and phi = a(Tp(-), -); a key keeps the first p that
    induces it and is a functor from the one-point category.
    """
    ext = x.ext
    monad = ext.monad
    a = x.a.data
    t1 = monad.size(1)
    tn = monad.size(x.n)
    pcat = unit_tvcategory(ext)
    index = {}
    for p in range(x.n):
        tf = monad.tmap((p,), 1, x.n)
        key = (tuple([(a[s][p],) for s in range(tn)]), tuple([tuple(a[tf[z]]) for z in range(t1)]))
        if key not in index and check_tvfunctor((p,), pcat, x)["ok"]:
            index[key] = p
    return index


def representative_for(x, pair):
    """The point, if any, whose induced module pair reproduces this one exactly."""
    return representables(x).get(pair.key())


def decide_lawvere_complete(x, oracle=False):
    """Search every adjoint pair for a representing point.

    The verdict is labeled Lawvere completeness only under a reduction
    gate; the non-representable list carries the lexicographically least
    witnesses first for reproducibility.
    """
    gate = completeness_gate(x.ext)
    pairs = enumerate_adjoint_pairs(x, oracle)
    index = representables(x)
    non_rep = []
    reps = []
    for pair in pairs:
        rep = index.get(pair.key())
        pair.representative = rep
        if rep is None:
            non_rep.append(pair)
        else:
            reps.append(rep)
    return {
        "complete": not non_rep,
        "gate": gate,
        "notion": "Lawvere completeness" if gate else "point-completeness (sufficient test only)",
        "pair_count": len(pairs),
        "representatives": reps,
        "non_representable": non_rep,
        "pairs": pairs,
    }


def uniqueness_of_adjoints(pairs):
    """Adjoints determine each other: no side occurs with two partners."""
    by_psi = {}
    by_phi = {}
    for pair in pairs:
        if by_psi.setdefault(pair.psi.data, pair.phi.data) != pair.phi.data:
            return False
        if by_phi.setdefault(pair.phi.data, pair.psi.data) != pair.psi.data:
            return False
    return True


def certify_v_complete(ext, oracle=False):
    """Completeness certificate for the quantale with its canonical structure.

    Machine-verifies the structural precondition (the derived structure on
    the free carrier equals residuation conjugated by the algebra map),
    decides completeness, and replays the three identities from which the
    representing point is extracted on every enumerated pair.
    """
    q = ext.q
    monad = ext.monad
    if monad.size(1) != 1:
        raise GateUnavailable("T1=1", f"monad {monad.name}")
    vcat = hom_xi_category(ext)
    xi = ext.xi()
    tn = monad.size(q.n)
    kc = kleisli_table(vcat)
    precond_ok = all(
        kc[s][t] == q.hom(xi[s], xi[t]) for s in range(tn) for t in range(tn)
    )
    if not precond_ok:
        witness = next(
            (s, t)
            for s in range(tn)
            for t in range(tn)
            if kc[s][t] != q.hom(xi[s], xi[t])
        )
        return {"certified": False, "precondition": False, "witness": witness}

    verdict = decide_lawvere_complete(vcat, oracle)
    k_dot = ext.unit_map(q.n)[q.unit]
    identities_ok = True
    id_witness = None
    for pair in verdict["pairs"]:
        psi = [row[0] for row in pair.psi.data]
        if pair.representative != psi[k_dot]:
            identities_ok = False
            id_witness = ("representative", pair.key())
            break
        first = q.join_all(q.tens(psi[u], xi[u]) for u in range(tn))
        if psi[k_dot] != first:
            identities_ok = False
            id_witness = ("first", pair.key())
            break
        for v in range(tn):
            rhs = q.join_all(q.tens(q.hom(xi[v], xi[u]), psi[u]) for u in range(tn))
            if q.hom(xi[v], psi[k_dot]) != rhs:
                identities_ok = False
                id_witness = ("second", pair.key(), v)
                break
            if psi[v] != rhs:
                identities_ok = False
                id_witness = ("third", pair.key(), v)
                break
        if not identities_ok:
            break
    return {
        "certified": verdict["complete"] and identities_ok,
        "precondition": True,
        "complete": verdict["complete"],
        "identities": identities_ok,
        "identity_witness": id_witness,
        "pair_count": verdict["pair_count"],
    }


def kernel_preorder_category(ext, f, n_src):
    """Source of a surjection with the kernel equivalence as structure."""
    q = ext.q
    tn = ext.monad.size(n_src)
    e = ext.unit_map(n_src)
    data = [[q.bottom] * n_src for _ in range(tn)]
    for p in range(n_src):
        for p2 in range(n_src):
            if f[p] == f[p2]:
                data[e[p]][p2] = q.unit
    return TVCategory(ext, n_src, VMatrix(q, tn, n_src, data), name="kernel")


def ord_section_extract(ext, f, n_src, n_tgt):
    """Build a section of a surjection by representing its fiber pairs.

    Equips the target with the discrete order and the source with the
    kernel of f; each fiber indicator is then an adjoint pair on the
    kernel category whose representative picks one preimage, and the
    assembled map g satisfies f . g = id.
    """
    f = tuple(f)
    if ext.monad.size(1) != 1 or ext.monad.size(n_src) != n_src:
        raise GateUnavailable("identity-sized carrier", "section extraction runs over plain orders")
    image = set(f)
    if image != set(range(n_tgt)):
        raise ValueError("map is not surjective")
    q = ext.q
    x = kernel_preorder_category(ext, f, n_src)
    g = []
    for y in range(n_tgt):
        phi = VMatrix(q, 1, n_src, (tuple(q.unit if f[p] == y else q.bottom for p in range(n_src)),))
        psi = VMatrix(q, n_src, 1, tuple((q.unit if f[p] == y else q.bottom,) for p in range(n_src)))
        pair = AdjointPair(phi, psi)
        pcat = unit_tvcategory(ext)
        if not (is_tvbimodule(phi, pcat, x) and is_tvbimodule(psi, x, pcat)):
            raise AssertionError("fiber pair is not a module pair")
        if not check_tv_adjunction(ext, phi, psi, x, pcat)["is_adjoint"]:
            raise AssertionError("fiber pair is not adjoint")
        rep = representative_for(x, pair)
        if rep is None:
            raise AssertionError("fiber pair has no representative")
        g.append(rep)
    if any(f[g[y]] != y for y in range(n_tgt)):
        raise AssertionError("extracted section does not split f")
    return tuple(g)
