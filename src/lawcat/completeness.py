"""Completeness by exhaustive adjoint-pair enumeration.

An adjoint pair on (X, a) is a left module phi from the one-point
category with right adjoint psi; the category is complete when every
such pair is induced by a point.  The enumerator resolves phi from psi
through the residual bound (adjoints are unique), with an unpruned
reference enumeration kept for cross-checking.
"""

from __future__ import annotations

import itertools
import weakref

from .errors import DEFAULT_MAX_ENUM, BudgetExceeded, GateUnavailable
from .monad import monad_capabilities
from .tvcat import (
    TVCategory,
    check_tvfunctor,
    hom_xi_category,
    kleisli_compose,
    kleisli_table,
    unit_tvcategory,
)
from .vmatrix import VMatrix


# Keyed on the monad object (held weakly): two monads may share a name.
_MONAD_CAPS = weakref.WeakKeyDictionary()


def _caps(monad):
    if monad not in _MONAD_CAPS:
        _MONAD_CAPS[monad] = monad_capabilities(monad)
    return _MONAD_CAPS[monad]


def completeness_gate(ext):
    """Which hypothesis legitimizes the one-point reduction, if any."""
    caps = _caps(ext.monad)
    if caps["t1_is_one"]:
        return "T1=1"
    if caps["m_bc"]:
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


def _phi_max_for(x, tpsi):
    """Largest phi with phi * psi <= a, from the residual bound."""
    ext = x.ext
    q = ext.q
    monad = ext.monad
    t1 = monad.size(1)
    mu = ext.mult_map(x.n)
    ttn = monad.size(monad.size(x.n))
    data = []
    for z in range(t1):
        row = []
        for p in range(x.n):
            acc = q.top
            for big in range(ttn):
                acc = q.meet(acc, q.hom(tpsi.data[big][z], x.a.data[mu[big]][p]))
            row.append(acc)
        data.append(tuple(row))
    return VMatrix(q, t1, x.n, tuple(data))


def _pair_is_adjoint(x, phi, psi, pcat):
    ext = x.ext
    unit_ok = pcat.a.le(kleisli_compose(ext, psi, phi, 1))
    counit_ok = kleisli_compose(ext, phi, psi, x.n).le(x.a)
    return unit_ok and counit_ok


def _is_phi_bimodule(x, phi, pcat):
    ext = x.ext
    return kleisli_compose(ext, phi, pcat.a, 1).le(phi) and kleisli_compose(
        ext, x.a, phi, 1
    ).le(phi)


def _is_psi_bimodule(x, psi, pcat, kc=None):
    ext = x.ext
    q = ext.q
    if kc is not None:
        tn = ext.monad.size(x.n)
        for s in range(tn):
            acc = q.bottom
            for t in range(tn):
                acc = q.join(acc, q.tens(kc[s][t], psi.data[t][0]))
            if not q.le(acc, psi.data[s][0]):
                return False
        return kleisli_compose(ext, pcat.a, psi, x.n).le(psi)
    return kleisli_compose(ext, psi, x.a, x.n).le(psi) and kleisli_compose(
        ext, pcat.a, psi, x.n
    ).le(psi)


def enumerate_adjoint_pairs(x, max_enum=DEFAULT_MAX_ENUM, oracle=False, allow_ungated=False):
    """All adjoint module pairs from the one-point category into x.

    The pruned path walks the psi space, keeps the modules, resolves the
    unique left-adjoint candidate for each and verifies the pair; with
    oracle=True both sides are enumerated independently and crossed.
    Without a reduction gate the enumeration itself is still meaningful
    (callers must label verdicts accordingly) but is refused by default.
    """
    gate = completeness_gate(x.ext)
    if gate is None and not allow_ungated:
        raise GateUnavailable("T1=1 or m-BC", f"monad {x.ext.monad.name}")
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    t1 = monad.size(1)
    pcat = unit_tvcategory(ext)
    psi_count = q.n ** tn
    if psi_count > max_enum:
        raise BudgetExceeded("psi space", psi_count, max_enum)
    kc = kleisli_table(x)

    pairs = []
    if not oracle:
        for flat in itertools.product(range(q.n), repeat=tn):
            psi = VMatrix(q, tn, 1, tuple((v,) for v in flat))
            if not _is_psi_bimodule(x, psi, pcat, kc):
                continue
            tpsi = ext.extend(psi)
            phi = _phi_max_for(x, tpsi)
            if not _is_phi_bimodule(x, phi, pcat):
                continue
            if not _pair_is_adjoint(x, phi, psi, pcat):
                continue
            pairs.append(AdjointPair(phi, psi))
    else:
        phi_count = q.n ** (t1 * x.n)
        if phi_count * psi_count > max_enum:
            raise BudgetExceeded("pair space", phi_count * psi_count, max_enum)
        psis = []
        for flat in itertools.product(range(q.n), repeat=tn):
            psi = VMatrix(q, tn, 1, tuple((v,) for v in flat))
            if _is_psi_bimodule(x, psi, pcat, kc):
                psis.append(psi)
        phis = []
        for flat in itertools.product(range(q.n), repeat=t1 * x.n):
            phi = VMatrix(q, t1, x.n, tuple(flat[i * x.n : (i + 1) * x.n] for i in range(t1)))
            if _is_phi_bimodule(x, phi, pcat):
                phis.append(phi)
        for psi in psis:
            for phi in phis:
                if _pair_is_adjoint(x, phi, psi, pcat):
                    pairs.append(AdjointPair(phi, psi))
    pairs.sort(key=AdjointPair.key)
    return pairs


def representative_for(x, pair):
    """The point, if any, whose induced module pair reproduces this one exactly."""
    ext = x.ext
    q = ext.q
    monad = ext.monad
    t1 = monad.size(1)
    tn = monad.size(x.n)
    pcat = unit_tvcategory(ext)
    for p in range(x.n):
        tf = monad.tmap((p,), 1, x.n)
        phi_rep = tuple(tuple(x.a.data[tf[z]][c] for c in range(x.n)) for z in range(t1))
        psi_rep = tuple((x.a.data[s][p],) for s in range(tn))
        if phi_rep == pair.phi.data and psi_rep == pair.psi.data:
            if not check_tvfunctor((p,), pcat, x)["ok"]:
                continue
            return p
    return None


def decide_lawvere_complete(x, max_enum=DEFAULT_MAX_ENUM, oracle=False):
    """Search every adjoint pair for a representing point.

    The verdict is labeled Lawvere completeness only under a reduction
    gate; the non-representable list carries the lexicographically least
    witnesses first for reproducibility.
    """
    gate = completeness_gate(x.ext)
    pairs = enumerate_adjoint_pairs(x, max_enum, oracle, allow_ungated=True)
    non_rep = []
    reps = []
    for pair in pairs:
        rep = representative_for(x, pair)
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


def certify_v_complete(ext, max_enum=DEFAULT_MAX_ENUM, oracle=False):
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
    vcat = hom_xi_category(ext, max_enum)
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

    verdict = decide_lawvere_complete(vcat, max_enum, oracle)
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
        if not (_is_phi_bimodule(x, phi, pcat) and _is_psi_bimodule(x, psi, pcat)):
            raise AssertionError("fiber pair is not a module pair")
        if not _pair_is_adjoint(x, phi, psi, pcat):
            raise AssertionError("fiber pair is not adjoint")
        rep = representative_for(x, pair)
        if rep is None:
            raise AssertionError("fiber pair has no representative")
        g.append(rep)
    if any(f[g[y]] != y for y in range(n_tgt)):
        raise AssertionError("extracted section does not split f")
    return tuple(g)
