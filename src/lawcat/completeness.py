"""Completeness by exhaustive adjoint-pair enumeration.

An adjoint pair on (X, a) is a left module phi from the one-point
category with right adjoint psi; the category is complete when every
such pair is induced by a point.  Outside a theorem's reach the
enumerator resolves phi from psi through the residual bound (adjoints
are unique), with an unpruned reference enumeration kept for checking.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import GateUnavailable
from .monad import IdentityMonad, PowersetMonad
from .tvcat import (
    FinitePreorder,
    check_tv_adjunction,
    hom_xi_category,
    is_tvbimodule,
    kleisli_table,
    order_tvcategory,
    unit_tvcategory,
)
# Unused here: the perfbench tracer tests wrap this direct import by name.
from .tvcat import kleisli_compose  # noqa: F401
from .vmatrix import VMatrix, all_matrices


def completeness_gate(ext):
    """Which hypothesis legitimizes the one-point reduction, if any.

    T1 = 1 is read off the monad exactly; only without it is the sampled
    Beck-Chevalley sweep of monad_capabilities run, once per monad object
    (two monads may share a name).
    """
    if ext.monad.size(1) == 1:
        return "T1=1"
    if ext.monad.capabilities()["m_bc"]:
        return "m-BC"
    return None


_BY_TABLES = attrgetter("tables")


class AdjointPair:
    """A pair held as its two index tables, with an optional representative.

    tables is (psi, phi): psi the column over T(n) as 1-tuples, phi the
    T(1) rows over the n points, the data of the two matrices.  The
    matrices themselves are views, built on each read of .psi or .phi.
    """

    __slots__ = ("q", "tables", "representative")

    def __init__(self, q, tables, representative=None):
        self.q = q
        self.tables = tables
        self.representative = representative

    def key(self):
        """The pair's sort and lookup key: its tables, by their public name."""
        return self.tables

    @property
    def psi(self):
        psi = self.tables[0]
        return VMatrix.trusted(self.q, len(psi), 1, psi)

    @property
    def phi(self):
        phi = self.tables[1]
        return VMatrix.trusted(self.q, len(phi), len(phi[0]), phi)

    def __repr__(self):
        return f"AdjointPair(rep={self.representative})"


def _pruned_pairs(x):
    """The adjoint pairs of enumerate_adjoint_pairs, unsorted.

    Over an integral V (k = top) whose top is join-irreducible and not
    bottom (Quantale.join_prime_unit), and over the identity, ultrafilter
    and powerset monads, every pair's psi is a column kc(-, t) of the
    Kleisli table with kc(t, t) = top (the theorem below), and
    _kleisli_column_pairs checks those columns.  On a category, a
    structure whose verdict is ok, the unit columns are the pairs of
    representables(x), each built on its index entry's tables, and are
    not checked again.  Over id and ultra the verdict is computed here if
    it is not carried (an O(n^3) loop), and every column is a unit column,
    so on a category those pairs are all; over powerset only a carried
    verdict counts.  Every other V, and any other monad, takes the walk
    of _generic_pairs.

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

    Unit columns on a category.  Reflexivity with k = top gives
    a(e(p), p) = top, and then kc(-, e(p)) = a(-, p), where
    kc(s, t) = V_{S in m^-1(s)} Ta(S, t).  (>=) Law (d) at the point e(s)
    of m^-1(s) gives Ta(e(s), e(p)) >= a(s, p).  (<=) Transitivity at
    t = e(p) gives Ta(S, e(p)) = Ta(S, e(p)) (x) a(e(p), p) <= a(m(S), p)
    for every S.  The pair of the point p, phi = a(Tp(-), -) and
    psi = a(-, p), is the paper's f_* -| f^* at the functor f = p from the
    one-point category (a functor by reflexivity): the unit is
    reflexivity read through law (d), and the module laws and the counit
    are transitivity of a with the lax functoriality of the extension,
    law (b).  A pair is fixed by its psi (adjoints are unique), so each
    distinct unit column is one pair, one entry of representables(x),
    with its first point.  A column that is not a unit column and
    survives the check then has a psi that no point induces: its pair is
    not representable.

    The empty column.  Over powerset at n >= 1, kc(-, 0) is never a pair.
    Z0 above is not empty, as m(0) = 0 is not e1, and extend_relation puts
    (Z, 0) in the extension of a relation only when Z is within the
    predecessors of 0, which is empty: so Tphi(Z0, 0) = bottom and t0 is
    not 0.  By the same reason Ta(S, 0) = bottom for every nonempty S, and
    m^-1(s) holds only nonempty S when s is not 0, so kc(t0, 0) = bottom,
    while a pair with psi = kc(-, 0) = kc(-, t0) has psi(t0) = top.  At
    n = 0 this column is the only one, and it keeps the check, whose
    extensions are the first charges the budget can refuse there; at
    n >= 1 they are within the charges of enumerate_adjoint_pairs, so
    skipping it, or a unit column, refuses nothing the check would.

    Over a one-element V the empty category's empty pair is not
    represented, hence top != bottom.  On a structure that is not a
    category a unit column need not be a pair or its point's, hence the
    verdict.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    if not (q.join_prime_unit and isinstance(monad, (IdentityMonad, PowersetMonad))):
        return _generic_pairs(x, kleisli_table(x))
    identity = isinstance(monad, IdentityMonad)
    verdict = x.verdict() if identity else x.checked
    if verdict is None or not verdict["ok"]:
        return _kleisli_column_pairs(x, [])
    pairs = [AdjointPair(q, tables, p) for tables, p in representables(x).items()]
    return pairs if identity else _kleisli_column_pairs(x, pairs)


def _kleisli_column_pairs(x, pairs):
    """The pairs whose psi is a column kc(-, t) with kc(t, t) = top.

    pairs holds a category's representable pairs, one per entry of
    representables(x), or is empty.  Their unit columns are then not
    checked again; at n >= 1 neither is the column of the empty set,
    T(0)'s image (the proofs are in _pruned_pairs).  Each other distinct
    column is a candidate; it must pass the kc half of the psi-module
    law, kc(s, r) (x) psi(r) <= psi(s), O(|T(n)|^2), and then the exact
    check of _pair_check, built on the first candidate.  The Kleisli
    table is built only when a column is left to check.  By the theorem
    of _pruned_pairs these are all the pairs over a join-prime unit and
    the identity, ultrafilter or powerset monad.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    n = x.n
    seen = {tuple([v for (v,) in pair.tables[0]]) for pair in pairs}
    settled = set(monad.unit_table(n)) if pairs else set()
    if n:
        settled.update(monad.tmap((), 0, n))
    rest = [t for t in range(monad.size(n)) if t not in settled]
    if not rest:
        return pairs
    top, tens, leq = q.top, q.tensor, q.leq
    kc = kleisli_table(x)
    pair_at = None
    for t in rest:
        if kc[t][t] != top:
            continue
        psi = tuple([row[t] for row in kc])
        if psi in seen:
            continue
        seen.add(psi)
        if all(leq[tens[u][w]][v] for row, v in zip(kc, psi) for u, w in zip(row, psi)):
            if pair_at is None:
                pair_at = _pair_check(x)
            pair = pair_at(psi)
            if pair is not None:
                pairs.append(pair)
    return pairs


def _generic_pairs(x, kc):
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
    marks with c = k.  A pair's phi is the residual bound
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
    halves of both module laws read k (x) v <= v (the one-point
    category's Kleisli table is (k)), the quantale unit law, which
    validate_quantale enforces.  Over any other monad the leaf runs the
    exact per-psi check of _pair_check, which proves the unit-category phi
    law away and says why it keeps the unit-category psi law.
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
    e1 = monad.unit_table(1)[0]
    leq_c = leq[q.unit]
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
            pairs.append(AdjointPair(q, (tuple([(v,) for v in psi]), (phi,))))

    else:
        bigs = monad.mult_fibers(1)[e1]
        tops = (top,) * n
        rows_by_phi = {}

        def bound_rows(phi):
            rows = rows_by_phi.get(phi)
            if rows is None:
                hi = tuple([phi if z == e1 else tops for z in range(t1)])
                tphi = ext.extend(VMatrix.trusted(q, t1, n, hi)).data
                rows = rows_by_phi[phi] = tuple([tphi[big] for big in bigs])
            return rows

        pair_at = _pair_check(x)

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


def _pair_check(x):
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
    of the one-point category: its structure is c = k.e_1°, and the
    constructor's gate (k = top or T(empty) = empty) makes its threshold
    extension Tc = k.(Te_1)°.  So kcp[s][t] = V_{m(big)=s} Tc[big][t] is k when
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
    # The one-point category's structure is k at (e1, 0) and bottom
    # elsewhere, and a term with a bottom factor is bottom: only its
    # non-bottom entry adds to a join.
    pa = [(monad.unit_table(1)[0], q.unit)] if q.unit != bot else []
    fib_n = monad.mult_fibers(n)
    fib_1 = monad.mult_fibers(1)
    # a(m(big), p) for every p, as columns over T(T(n))
    a_mu = [tuple(a[s][p] for s in monad.mult_table(n)) for p in range(n)]
    # psi law, unit-category half: Tpsi[big][t] (x) c <= psi[s], big over m^-1(s)
    tens_c = {c: tuple([tens[u][c] for u in range(q.n)]) for _, c in pa}
    psi_unit = [(big, t, tens_c[c], s) for s in range(tn) for big in fib_n[s] for t, c in pa]
    # unit: c <= V_{big in m^-1(s)} V_t Tphi[big][t] (x) psi[t]
    phi_unit = [(leq[c], fib_1[s]) for s, c in pa]
    # phi law, a side: Tphi[big][t] (x) a[t] <= phi[s], big over m^-1(s)
    phi_a = [(s, big) for s in range(t1) for big in fib_1[s]]

    def pair_at(flat):
        psi = tuple([(v,) for v in flat])
        tpsi = ext.extend(VMatrix.trusted(q, tn, 1, psi)).data
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
        phi = tuple(phi_rows)
        tphi = ext.extend(VMatrix.trusted(q, t1, n, phi)).data
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
        return AdjointPair(q, (psi, phi))

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
            AdjointPair(q, (psi.data, phi.data))
            for psi in psis
            for phi in phis
            if check_tv_adjunction(ext, phi, psi, x, pcat)["is_adjoint"]
        ]
    pairs.sort(key=_BY_TABLES)
    return pairs


def representables(x):
    """The representing point of each representable pair, keyed as AdjointPair.key.

    Point p induces the pair psi = a(-, p), phi = a(Tp(-), -); a key keeps
    the first p, in order, that induces it and is a functor from the
    one-point category.  That category's structure is k at (e1, 0) and
    bottom elsewhere (unit_tvcategory), so the functor law
    c(z, 0) <= a(Tp(z), p) asks something only at z = e1, where
    Tp(e1) = e(p) by naturality of e: p is a functor exactly when
    k <= a(e(p), p), and no one-point category is built.  Where T1 = 1,
    T(1) is {e1} and phi is the row a(e(p), -); elsewhere Tp is tmap's.
    """
    ext = x.ext
    monad = ext.monad
    n = x.n
    a = x.a.data
    leq_k = ext.q.leq[ext.q.unit]
    t1 = monad.size(1)
    index = {}
    for p, s in enumerate(monad.unit_table(n)):
        if not leq_k[a[s][p]]:
            continue
        phi = (a[s],) if t1 == 1 else tuple([a[z] for z in monad.tmap((p,), 1, n)])
        index.setdefault((tuple([(row[p],) for row in a]), phi), p)
    return index


def representative_for(x, pair, index=None):
    """The point, if any, whose induced module pair reproduces this one exactly.

    index is representables(x), for a caller that asks about many pairs.
    """
    if index is None:
        index = representables(x)
    return index.get(pair.tables)


def decide_lawvere_complete(x, oracle=False):
    """Search every adjoint pair for a representing point.

    The verdict is labeled Lawvere completeness only under a reduction
    gate; the non-representable list carries the lexicographically least
    witnesses first for reproducibility.
    """
    gate = completeness_gate(x.ext)
    pairs = enumerate_adjoint_pairs(x, oracle)
    # Pairs built from a category's representables(x) carry their points,
    # and every other pair found with them is one no point represents
    # (_kleisli_column_pairs); pairs from anywhere else carry none, and
    # are looked up in representables(x) here.
    reps = []
    non_rep = []
    for pair in pairs:
        if pair.representative is None:
            non_rep.append(pair)
        else:
            reps.append(pair.representative)
    if pairs and not reps:
        index = representables(x)
        non_rep = []
        for pair in pairs:
            p = pair.representative = index.get(pair.tables)
            if p is None:
                non_rep.append(pair)
            else:
                reps.append(p)
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
    checked = vcat.verdict()
    if not checked["ok"]:
        raise ValueError(f"not a (T,V)-category: {checked}")
    xi = ext.xi()
    tens, join_t, hom_t, bot = q.tensor, q.join_t, q.hom_t, q.bottom
    kc = kleisli_table(vcat)
    witness = next(
        (
            (s, t)
            for s, (row, u) in enumerate(zip(kc, xi))
            for t, (w, v) in enumerate(zip(row, xi))
            if w != hom_t[u][v]
        ),
        None,
    )
    if witness is not None:
        return {"certified": False, "precondition": False, "witness": witness}

    verdict = decide_lawvere_complete(vcat, oracle)
    k_dot = monad.unit_table(q.n)[q.unit]
    identities_ok = True
    id_witness = None
    for pair in verdict["pairs"]:
        psi = [v for (v,) in pair.tables[0]]
        if pair.representative != psi[k_dot]:
            identities_ok = False
            id_witness = ("representative", pair.tables)
            break
        first = bot
        for u, w in zip(psi, xi):
            first = join_t[first][tens[u][w]]
        if psi[k_dot] != first:
            identities_ok = False
            id_witness = ("first", pair.tables)
            break
        for v, xv in enumerate(xi):
            hom_v = hom_t[xv]
            rhs = bot
            for u, w in zip(psi, xi):
                rhs = join_t[rhs][tens[hom_v[w]][u]]
            if hom_v[psi[k_dot]] != rhs:
                identities_ok = False
                id_witness = ("second", pair.tables, v)
                break
            if psi[v] != rhs:
                identities_ok = False
                id_witness = ("third", pair.tables, v)
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
    k, bot = q.unit, q.bottom
    fiber = [0] * n_tgt
    for p, y in enumerate(f):
        fiber[y] |= 1 << p
    kernel = FinitePreorder.from_up(n_src, [fiber[y] for y in f])
    x = order_tvcategory(ext, kernel, name="kernel")
    pcat = unit_tvcategory(ext)
    index = representables(x)
    g = []
    for y in range(n_tgt):
        row = tuple([k if f[p] == y else bot for p in range(n_src)])
        pair = AdjointPair(q, (tuple([(v,) for v in row]), (row,)))
        phi, psi = pair.phi, pair.psi
        if not (is_tvbimodule(phi, pcat, x) and is_tvbimodule(psi, x, pcat)):
            raise AssertionError("fiber pair is not a module pair")
        if not check_tv_adjunction(ext, phi, psi, x, pcat)["is_adjoint"]:
            raise AssertionError("fiber pair is not adjoint")
        rep = representative_for(x, pair, index)
        if rep is None:
            raise AssertionError("fiber pair has no representative")
        g.append(rep)
    if any(f[g[y]] != y for y in range(n_tgt)):
        raise AssertionError("extracted section does not split f")
    return tuple(g)
