"""Completeness by exhaustive adjoint-pair enumeration.

An adjoint pair on (X, a) is a left module phi from the one-point
category with right adjoint psi; the category is complete when every
such pair is induced by a point.  Outside a theorem's reach the
enumerator resolves phi from psi through the residual bound (adjoints
are unique), with an unpruned reference enumeration kept for checking.
"""

from __future__ import annotations

import weakref

from .errors import GateUnavailable
from .monad import IdentityMonad, PowersetMonad, monad_capabilities
from .tvcat import (
    check_tv_adjunction,
    check_tvfunctor,
    hom_xi_category,
    is_tvbimodule,
    kleisli_table,
    order_tvcategory,
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


def _join_prime_unit(q):
    """Whether V is integral (k = top) and top is join-irreducible, tested as
    "top is not the join of all other elements", which also excludes
    top = bottom (the empty join)."""
    top = q.top
    return q.unit == top and q.join_all([u for u in range(q.n) if u != top]) != top


def _is_category(x):
    """Whether an identity-sized structure is reflexive, k = top <= a(p, p),
    and transitive, a(p, r) (x) a(r, s) <= a(p, s): an O(n^3) scan."""
    q = x.ext.q
    top, tens, leq = q.top, q.tensor, q.leq
    a = x.a.data
    for p, row in enumerate(a):
        if row[p] != top:
            return False
        for u, mid in zip(row, a):
            tens_u = tens[u]
            for w, v in zip(mid, row):
                if not leq[tens_u[w]][v]:
                    return False
    return True


def _pruned_pairs(x):
    """The adjoint pairs of enumerate_adjoint_pairs, unsorted.

    Over an integral V (k = top) whose top is join-irreducible and not
    bottom (_join_prime_unit), and over the identity, ultrafilter and
    powerset monads, every pair's psi is a column kc(-, t) of the Kleisli
    table with kc(t, t) = top (the theorem below).  There the pairs of an
    id or ultra category are its representables (the shortcut, which
    builds neither the Kleisli table nor the one-point category), and
    every other structure checks its at most |T(n)| distinct candidate
    columns (_kleisli_column_pairs).  Every other V, and any other monad,
    takes the walk of _generic_pairs.

    The theorem.  Let a be any T(n) x n matrix, (phi, psi) a pair, e1 the
    unit point of T(1), and laws (b), (c), (d) those of
    check_extension_laws.
    - The unit top = k <= V_{Z in m^-1(e1)} V_t Tphi(Z, t) (x) psi(t) is
      a finite join equal to the join-irreducible top, so some term is
      top, and as u (x) w <= u (x) top = u: there are Z0 in m^-1(e1) and
      t0 with Tphi(Z0, t0) = psi(t0) = top.
    - The kc half of the psi-module law, kc(s, t) (x) psi(t) <= psi(s),
      at t0 gives psi >= kc(-, t0).
    - The counit reads phi.Tpsi <= a.m.  By laws (c) and (b), with
      equality at the map m, Tphi.TTpsi <= T(phi.Tpsi) <= Ta.Tm, and at
      (S, t0) the left side is at least TTpsi(S, Z0) (x) Tphi(Z0, t0).  So
      TTpsi(S, Z0) <= Ta(Tm S, t0) <= kc(m.Tm S, t0).
    - Some S has m.Tm S = s and TTpsi(S, Z0) >= psi(s), so psi <= kc(-, t0).
      Over id and ultra (T is the identity on finite sets): S = s.  Over
      powerset, Z0 is {{*}} or {0, {*}} (0 the empty set): for {{*}},
      S = {{s}}, as law (d) twice gives psi(s) <= TTpsi({{s}}, {{*}});
      for {0, {*}}, S = {0, {s}}, as Tpsi(0, 0) = top and
      Tpsi({s}, {*}) >= psi(s) put both Egli-Milner pairs above psi(s).
    So psi = kc(-, t0) and kc(t0, t0) = psi(t0) = top.

    The shortcut.  Over id and ultra kc = a and T1 = 1.  On a category,
    reflexivity and transitivity make each (a(p, -), a(-, p)) a pair.  By
    the theorem every pair's psi is some a(-, p), and a pair is fixed by
    its psi (adjoints are unique), so the pairs are the representables,
    read off the rows and columns of a with the first point of each, as
    representables(x) would index them (reflexivity makes every point a
    functor from the one-point category).  Over a one-element V the empty
    category's empty pair is not represented, hence top != bottom; on a
    structure that is not a category a representable need not be a pair,
    hence the scan.
    """
    ext = x.ext
    monad = ext.monad
    if _join_prime_unit(ext.q) and isinstance(monad, (IdentityMonad, PowersetMonad)):
        if isinstance(monad, IdentityMonad) and _is_category(x):
            return _representable_pairs(x)
        return _kleisli_column_pairs(x, kleisli_table(x), unit_tvcategory(ext))
    return _generic_pairs(x, kleisli_table(x), unit_tvcategory(ext))


def _representable_pairs(x):
    """The pairs of an id or ultra category over a join-prime unit, each
    with its point: the distinct (a(p, -), a(-, p)), first point first."""
    q = x.ext.q
    n = x.n
    a = x.a.data
    index = {}
    for p in range(n):
        index.setdefault((tuple([(row[p],) for row in a]), (a[p],)), p)
    return [
        AdjointPair(VMatrix.trusted(q, 1, n, phi), VMatrix.trusted(q, n, 1, psi), p)
        for (psi, phi), p in index.items()
    ]


def _kleisli_column_pairs(x, kc, pcat):
    """The pairs whose psi is a column kc(-, t) with kc(t, t) = top.

    Each distinct such column is a candidate; it must pass the kc half of
    the psi-module law, kc(s, r) (x) psi(r) <= psi(s), O(|T(n)|^2), and
    then the exact check of _pair_check.  By the theorem of _pruned_pairs
    these are all the pairs over a join-prime unit and the identity,
    ultrafilter or powerset monad.
    """
    q = x.ext.q
    top, tens, leq = q.top, q.tensor, q.leq
    pair_at = _pair_check(x, pcat)
    seen = set()
    pairs = []
    for t, diag in enumerate(kc):
        if diag[t] != top:
            continue
        psi = tuple([row[t] for row in kc])
        if psi in seen:
            continue
        seen.add(psi)
        if all(leq[tens[u][w]][v] for row, v in zip(kc, psi) for u, w in zip(row, psi)):
            pair = pair_at(psi)
            if pair is not None:
                pairs.append(pair)
    return pairs


def _generic_pairs(x, kc, pcat):
    """The adjoint pairs of enumerate_adjoint_pairs, unsorted: one psi walk
    with phi carried, for any monad and any n.  _pruned_pairs runs it where
    the theorem of _pruned_pairs does not reach: where V has no
    join-prime unit (k below top, a join-reducible top, or top = bottom).

    The walk assigns psi over T(n) coordinate by coordinate and rejects a
    value as soon as the kc half of the psi-module law,
    kc[s][t] (x) psi[t] <= psi[s], fails against itself or an assigned
    coordinate, in either direction.  Down each branch it carries
    phi_E[p] = meet_{t<=i} hom(psi[t], a[t][p]).

    The cut.  Let e1 = e_1(0), the point of T(1) that the one-point category
    pcat marks with c = k.  A pair's phi is the residual bound
    phi[z][p] = meet_big hom(Tpsi[big][z], a[m(big)][p]), and the unit asks
    c <= V_{big in m^-1(e1)} V_t Tphi[big][t] (x) psi[t].  At big = e(t)
    the unit law of the extension (law (d)) gives psi[t] <= Tpsi[e(t)][e1],
    and hom is antitone in its first argument, so phi <= phi_hi, the T(1) x n
    matrix with phi_E in row e1 and top elsewhere.  By monotonicity of the
    extension (law (c)) Tphi <= T(phi_hi), and psi lies below psi with top
    in every unassigned coordinate; (x) and joins are monotone.  So with R
    the rows m^-1(e1) of T(phi_hi),
    U = V_{row in R} (V_{t<i} row[t] (x) psi[t] v V_{t>=i} row[t] (x) top)
    bounds the unit join of every leaf below the node, and the node is cut
    when c <= U fails.  Over the identity monad (and so the ultrafilter
    monad) the extension is the matrix itself and R = (phi_E,); there phi_E
    is phi and U at a leaf is the unit join.  Elsewhere R is extended once
    per phi_E, memoized for this call only.

    At a leaf over the identity monad only the a side of the phi law,
    phi[t] (x) a[t][p] <= phi[p], is left to check: the unit-category
    halves of both module laws read k (x) v <= v (pcat's Kleisli table is
    (k)), the quantale unit law, which validate_quantale enforces.  Over
    any other monad the leaf runs the exact per-psi check of _pair_check,
    which proves the unit-category phi law away and says why it keeps the
    unit-category psi law.
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
    e1 = ext.unit_map(1)[0]
    leq_c = leq[pcat.a.data[e1][0]]
    values = range(q.n)
    tens_top = [tens[u][top] for u in values]
    # hom(v, a[t][p]) over p, for each coordinate t and value v
    homs = [[tuple([hom_t[v][w] for w in a[t]]) for v in values] for t in range(tn)]
    psi = [bot] * tn
    pairs = []

    if isinstance(monad, IdentityMonad):

        def bound_rows(phi):
            return (phi,)

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

    else:
        bigs = ext.mult_fibers(1)[e1]
        tops = (top,) * n
        rows_by_phi = {}

        def bound_rows(phi):
            rows = rows_by_phi.get(phi)
            if rows is None:
                hi = tuple([phi if z == e1 else tops for z in range(t1)])
                tphi = ext.extend(VMatrix.trusted(q, t1, n, hi)).data
                rows = rows_by_phi[phi] = tuple([tphi[big] for big in bigs])
            return rows

        pair_at = _pair_check(x, pcat)

        def leaf(phi):
            pair = pair_at(tuple(psi))
            if pair is not None:
                pairs.append(pair)

    def meets(phi, i):
        # c <= U, psi[:i] assigned
        acc = bot
        for row in bound_rows(phi):
            for u, w in zip(row, psi[:i]):
                acc = join_t[acc][tens[u][w]]
                if leq_c[acc]:
                    return True
            for u in row[i:]:
                acc = join_t[acc][tens_top[u]]
                if leq_c[acc]:
                    return True
        return leq_c[acc]

    def walk(i, phi):
        if not meets(phi, i):
            return
        if i == tn:
            leaf(phi)
            return
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
                walk(i + 1, tuple([meet_t[f][h] for f, h in zip(phi, homs_i[v])]))

    walk(0, (top,) * n)
    return pairs


def _pair_check(x, pcat):
    """The exact check of one psi over any monad: its pair, or None.

    The returned function takes psi as a tuple over T(n) that satisfies the
    kc half of the psi-module law.  It extends psi, checks the
    unit-category half of the psi law, resolves phi from the residual
    bound, extends phi, and checks the unit and the a half of the phi law.
    Each check is a loop over an index list fixed here and stops at the
    first violated cell; the unit joins its terms only until the join
    reaches its bound.

    Two laws hold by construction and are not checked.  The counit
    phi * psi <= a: each of its terms is u (x) phi[t][z] with
    u = Tpsi[big][t], and phi[t][z] is a meet that includes
    hom(u, a[m(big)][z]), so the term is at most
    u (x) hom(u, a[m(big)][z]) <= a[m(big)][z].  The unit-category half of
    the phi law, kcp[s][t] (x) phi[t] <= phi[s] with kcp the Kleisli table
    of pcat: pcat's structure is c = k.e_1°, and the constructor's gate
    (k = top or T(empty) = empty) makes its threshold extension
    Tc = k.(Te_1)°.  So kcp[s][t] = V_{m(big)=s} Tc[big][t] is k when
    s = t (m.Te_1 = id) and bottom otherwise, and the law reads
    k (x) v <= v, the quantale's unit law.

    The unit-category half of the psi law stays, though it has never
    rejected a psi that passed the other checks.  kc-closure alone does not
    imply it: it rejects 136 of the 2,915 kc-closed psis over the
    powerset/c3 categories on 2 points.  Whether the unit cut and the phi
    checks imply it is unproved, and a check is dropped only on a proof.
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
    fib_n = ext.mult_fibers(n)
    fib_1 = ext.mult_fibers(1)
    # a(m(big), p) for every p, as columns over T(T(n))
    a_mu = [tuple(a[s][p] for s in ext.mult_map(n)) for p in range(n)]
    # psi law, unit-category half: Tpsi[big][t] (x) c <= psi[s], big over m^-1(s)
    tens_c = {c: tuple([tens[u][c] for u in range(q.n)]) for _, c in pa}
    psi_unit = [(big, t, tens_c[c], s) for s in range(tn) for big in fib_n[s] for t, c in pa]
    # unit: c <= V_{big in m^-1(s)} V_t Tphi[big][t] (x) psi[t]
    phi_unit = [(leq[c], fib_1[s]) for s, c in pa]
    # phi law, a side: Tphi[big][t] (x) a[t] <= phi[s], big over m^-1(s)
    phi_a = [(s, big) for s in range(t1) for big in fib_1[s]]

    def pair_at(flat):
        psi = VMatrix.trusted(q, tn, 1, tuple([(v,) for v in flat]))
        tpsi = ext.extend(psi).data
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
        phi = VMatrix.trusted(q, t1, n, tuple(phi_rows))
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
        for s, big in phi_a:
            phi_s = phi_rows[s]
            for t, u in enumerate(tphi[big]):
                if u == bot:
                    continue
                tens_u = tens[u]
                for w, v in zip(a[t], phi_s):
                    if not leq[tens_u[w]][v]:
                        return None
        return AdjointPair(phi, psi)

    return pair_at


def enumerate_adjoint_pairs(x, oracle=False):
    """All adjoint module pairs from the one-point category into x.

    Both the pruned path (_pruned_pairs) and, with oracle=True, the
    independent crossing of both sides first charge the psi space and then
    the extension of the structure, T(T(n)) x T(n) cells, which
    kleisli_table makes.  The charges come before any path is picked, and
    each path builds only what it reads, so a budget refuses alike on
    every path.  The enumeration is meaningful with or without a reduction
    gate; the caller labels the verdict by completeness_gate.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    psi_count = q.n ** tn
    ext.check_budget("psi space", psi_count)
    ext.check_budget("extended matrix size", monad.size(tn) * tn)

    if not oracle:
        pairs = _pruned_pairs(x)
    else:
        t1 = monad.size(1)
        pcat = unit_tvcategory(ext)
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
    # Pairs from the shortcut of _pruned_pairs carry their representative.
    if any(pair.representative is None for pair in pairs):
        index = representables(x)
        for pair in pairs:
            pair.representative = index.get(pair.key())
    non_rep = [pair for pair in pairs if pair.representative is None]
    reps = [pair.representative for pair in pairs if pair.representative is not None]
    return {
        "complete": not non_rep,
        "gate": gate,
        "notion": "Lawvere completeness" if gate else "point-completeness (sufficient test only)",
        "pair_count": len(pairs),
        "representatives": reps,
        "non_representable": non_rep,
        "pairs": pairs,
    }


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
    witness = next(
        ((s, t) for s in range(tn) for t in range(tn) if kc[s][t] != q.hom(xi[s], xi[t])),
        None,
    )
    if witness is not None:
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
    kernel = [[f[p] == f[p2] for p2 in range(n_src)] for p in range(n_src)]
    x = order_tvcategory(ext, kernel, name="kernel")
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
