import itertools
import os
import random

import pytest

from lawcat import completeness
from lawcat.completeness import (
    AdjointPair,
    _generic_pairs,
    _kleisli_column_pairs,
    _pair_check,
    certify_v_complete,
    decide_lawvere_complete,
    enumerate_adjoint_pairs,
    ord_section_extract,
    representables,
    representative_for,
)
from lawcat.errors import BudgetExceeded, GateUnavailable
from lawcat.fileio import parse_quantale_text
from lawcat.instances import (
    FinitePreorder,
    enumerate_preorders,
    tvcategory_from_space,
    weakly_sober,
)
from lawcat.laxext import LaxExtension
from lawcat.monad import builtin_monad, builtin_monads
from lawcat.quantale import Quantale, builtin, builtin_quantales, validate_quantale
from lawcat.tvcat import (
    TVCategory,
    all_tvcategories,
    check_tvcategory,
    check_tvfunctor,
    discrete_tvcategory,
    hom_xi_category,
    kleisli_table,
    order_tvcategory,
    unit_tvcategory,
)
from lawcat.vmatrix import VMatrix

from support import group_quantale, is_category

DATA = os.path.join(os.path.dirname(__file__), "data")


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


def preorder_category(ext, leq_rows):
    n = len(leq_rows)
    q = ext.q
    data = [[q.unit if v else q.bottom for v in row] for row in leq_rows]
    return TVCategory(ext, n, VMatrix(q, n, n, data))


def test_pairs_over_two_are_upset_downset_pairs(ext_factory):
    # over the order case the adjoint pairs are exactly (up-set, down-set)
    # pairs that intersect and dominate pointwise
    ext = ext_factory("id", "2")
    q = ext.q
    chain = preorder_category(ext, ((1, 1), (0, 1)))
    pairs = enumerate_adjoint_pairs(chain)
    seen = {(p.phi.data[0], tuple(r[0] for r in p.psi.data)) for p in pairs}
    expected = set()
    for amask in range(4):
        up = {x for x in range(2) if amask & (1 << x)}
        if any(x in up and chain.a.data[x][y] == q.unit and y not in up for x in range(2) for y in range(2)):
            continue
        for bmask in range(4):
            down = {x for x in range(2) if bmask & (1 << x)}
            if any(
                x in down and chain.a.data[y][x] == q.unit and y not in down
                for x in range(2)
                for y in range(2)
            ):
                continue
            if not (up & down):
                continue
            if not all(chain.a.data[y][x] == q.unit for x in up for y in down):
                continue
            phi = tuple(q.unit if x in up else q.bottom for x in range(2))
            psi = tuple(q.unit if x in down else q.bottom for x in range(2))
            expected.add((phi, psi))
    assert seen == expected
    # representatives are exactly the intersection points
    for pair in pairs:
        rep = representative_for(chain, pair)
        up = {x for x in range(2) if pair.phi.data[0][x] == q.unit}
        down = {x for x in range(2) if pair.psi.data[x][0] == q.unit}
        assert rep in (up & down)


def test_order_pairs_characterization_all_small_preorders(ext_factory):
    # adjoint pairs over an order are the intersecting dominated
    # (up-set, down-set) pairs, and every intersection point represents
    ext = ext_factory("id", "2")
    q = ext.q
    for n in (1, 2, 3):
        for p in enumerate_preorders(n):
            cat = preorder_category(ext, p.leq)
            pairs = enumerate_adjoint_pairs(cat)
            seen = {(pr.phi.data[0], tuple(r[0] for r in pr.psi.data)) for pr in pairs}
            expected = {}
            for amask in range(1 << n):
                up = {x for x in range(n) if amask & (1 << x)}
                if any(p.leq[x][y] and x in up and y not in up for x in range(n) for y in range(n)):
                    continue
                for bmask in range(1 << n):
                    down = {x for x in range(n) if bmask & (1 << x)}
                    if any(
                        p.leq[y][x] and x in down and y not in down
                        for x in range(n)
                        for y in range(n)
                    ):
                        continue
                    if not up & down:
                        continue
                    if not all(p.leq[y][x] for x in up for y in down):
                        continue
                    phi = tuple(q.unit if x in up else q.bottom for x in range(n))
                    psi = tuple(q.unit if x in down else q.bottom for x in range(n))
                    expected[(phi, psi)] = up & down
            assert seen == set(expected)
            for pr in pairs:
                key = (pr.phi.data[0], tuple(r[0] for r in pr.psi.data))
                for z in expected[key]:
                    phi_rep = tuple(cat.a.data[z])
                    psi_rep = tuple(cat.a.data[s][z] for s in range(n))
                    assert phi_rep == pr.phi.data[0]
                    assert psi_rep == key[1]


def test_pair_count_equals_irreducible_closed_sets(ext_factory):
    # the space-side count of irreducible closed sets matches the number
    # of adjoint pairs of the convergence structure, point by point
    ext = ext_factory("ultra", "2")
    for n in (1, 2, 3):
        for p in enumerate_preorders(n):
            cat = tvcategory_from_space(ext, p)
            pairs = enumerate_adjoint_pairs(cat)
            sober = weakly_sober(p)
            assert len(pairs) == len(sober["irreducible"])
            # representatives are exactly the generic points
            by_phi = {
                frozenset(
                    x for x in range(n) if pr.phi.data[0][x] == ext.q.unit
                ): pr
                for pr in pairs
            }
            for entry in sober["irreducible"]:
                pr = by_phi[frozenset(entry["closed_set"])]
                reps = [
                    z
                    for z in range(n)
                    if representative_for(cat, pr) is not None
                    and tuple(cat.a.data[z]) == pr.phi.data[0]
                    and tuple(cat.a.data[s][z] for s in range(n))
                    == tuple(r[0] for r in pr.psi.data)
                ]
                assert set(reps) == set(entry["generic_points"])


def test_point_category_pairs_are_representable(ext_factory):
    for mname in ("id", "ultra"):
        ext = ext_factory(mname, "plus3")
        point = discrete_tvcategory(ext, 1)
        verdict = decide_lawvere_complete(point)
        assert verdict["complete"]
        assert verdict["representatives"] == [0] * verdict["pair_count"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_preorders_complete(ext_factory, n):
    ext = ext_factory("id", "2")
    for p in enumerate_preorders(n):
        cat = preorder_category(ext, p.leq)
        verdict = decide_lawvere_complete(cat)
        assert verdict["complete"]
        assert verdict["gate"] == "T1=1"


def test_pruned_equals_reference_enumeration(ext_factory):
    for mname, qname in (("id", "2"), ("id", "plus3"), ("ultra", "c3"), ("id", "pset2")):
        ext = ext_factory(mname, qname)
        for cat in all_tvcategories(ext, 2)[:10]:
            pruned = enumerate_adjoint_pairs(cat)
            reference = enumerate_adjoint_pairs(cat, oracle=True)
            assert [p.key() for p in pruned] == [p.key() for p in reference]
            assert uniqueness_of_adjoints(reference)


def test_powerset_monad_uses_mbc_gate(ext_factory):
    ext = ext_factory("powerset", "2")
    for n in (1, 2):
        for cat in all_tvcategories(ext, n)[:6]:
            verdict = decide_lawvere_complete(cat)
            assert verdict["gate"] == "m-BC"
            reference = enumerate_adjoint_pairs(cat, oracle=True)
            assert [p.key() for p in verdict["pairs"]] == [p.key() for p in reference]


def test_discrete_two_points_over_pset2_is_incomplete(ext_factory):
    # the singleton-valued row is adjoint to its transpose yet no point
    # reproduces it, so the structure fails completeness with that witness
    ext = ext_factory("id", "pset2")
    q = ext.q
    cat = discrete_tvcategory(ext, 2)
    verdict = decide_lawvere_complete(cat)
    assert not verdict["complete"]
    witness = verdict["non_representable"][0]
    labels = [q.labels[v] for v in witness.phi.data[0]]
    assert labels == ["{a}", "{b}"]


def test_chain_quantale_categories_complete(ext_factory):
    ext = ext_factory("id", "plus3")
    for cat in all_tvcategories(ext, 2):
        assert decide_lawvere_complete(cat)["complete"]


def test_representative_reproduces_pair_bit_exactly(ext_factory):
    ext = ext_factory("ultra", "c3")
    for cat in all_tvcategories(ext, 2)[:15]:
        for pair in decide_lawvere_complete(cat)["pairs"]:
            rep = pair.representative
            if rep is None:
                continue
            tf = ext.monad.tmap((rep,), 1, cat.n)
            phi = tuple(tuple(cat.a.data[tf[z]][c] for c in range(cat.n)) for z in range(1))
            psi = tuple((cat.a.data[s][rep],) for s in range(ext.monad.size(cat.n)))
            assert phi == pair.phi.data and psi == pair.psi.data


@pytest.mark.parametrize(
    "mname,qname",
    [("id", q) for q in ("2", "c3", "c4", "plus2", "plus3", "plus4", "pset1", "pset2")]
    + [("ultra", "2"), ("ultra", "c3")],
)
def test_certify_v_complete(ext_factory, mname, qname):
    rep = certify_v_complete(ext_factory(mname, qname))
    assert rep["precondition"]
    assert rep["certified"], rep
    assert rep["identities"]


def test_certify_requires_singleton_image(ext_factory):
    with pytest.raises(GateUnavailable):
        certify_v_complete(ext_factory("powerset", "2"))


def test_hom_xi_complete_matches_certificate(ext_factory):
    ext = ext_factory("ultra", "2")
    vcat = hom_xi_category(ext)
    assert decide_lawvere_complete(vcat)["complete"]


def test_section_extraction_identity():
    from lawcat.laxext import LaxExtension
    from lawcat.monad import builtin_monad

    ext = LaxExtension(builtin_monad("id"), builtin("2"))
    assert ord_section_extract(ext, (0, 1, 2), 3, 3) == (0, 1, 2)


def test_section_extraction_collapse(ext_factory):
    ext = ext_factory("id", "2")
    g = ord_section_extract(ext, (0, 0, 1), 3, 2)
    assert (g[0] in (0, 1)) and g[1] == 2


def test_section_extraction_all_surjections(ext_factory):
    ext = ext_factory("id", "2")
    count = 0
    for tgt in (2, 3):
        for f in itertools.product(range(tgt), repeat=4):
            if set(f) == set(range(tgt)):
                g = ord_section_extract(ext, f, 4, tgt)
                assert all(f[g[y]] == y for y in range(tgt))
                count += 1
    assert count == 14 + 36


def test_section_extraction_rejects_non_surjections(ext_factory):
    ext = ext_factory("id", "2")
    with pytest.raises(ValueError):
        ord_section_extract(ext, (0, 0, 0), 3, 2)


def test_uneven_fibers_section(ext_factory):
    ext = ext_factory("id", "2")
    g = ord_section_extract(ext, (0, 1, 1, 1), 4, 2)
    assert g[0] == 0 and g[1] in (1, 2, 3)


def test_gate_is_keyed_on_the_monad_not_its_name(ext_factory):
    # a powerset monad that borrows the name "id" must not inherit T1=1
    from lawcat.completeness import completeness_gate
    from lawcat.laxext import LaxExtension
    from lawcat.monad import PowersetMonad, monad_capabilities

    class Fake(PowersetMonad):
        name = "id"

    assert completeness_gate(ext_factory("id", "2")) == "T1=1"
    fake = Fake()
    caps = monad_capabilities(fake)
    assert not caps["t1_is_one"] and caps["m_bc"]
    assert completeness_gate(LaxExtension(fake, builtin("2"))) == "m-BC"


def test_without_a_gate_the_verdict_is_point_completeness(monkeypatch):
    # the same decision over powerset, labelled by the gate the monad's
    # capabilities grant: m-BC, or none when m_bc is False
    from lawcat.monad import PowersetMonad, monad_capabilities

    def decide(monad):
        return decide_lawvere_complete(discrete_tvcategory(LaxExtension(monad, builtin("2")), 2))

    monad = PowersetMonad()
    gated = decide(monad)
    monkeypatch.setattr(monad, "capabilities", lambda: {**monad_capabilities(monad), "m_bc": False})
    ungated = decide(monad)
    assert (gated["gate"], gated["notion"]) == ("m-BC", "Lawvere completeness")
    point = "point-completeness (sufficient test only)"
    assert (ungated["gate"], ungated["notion"]) == (None, point)
    for rep in (gated, ungated):
        rep["pairs"] = [pair.key() for pair in rep.pop("pairs")]
        rep["non_representable"] = [pair.key() for pair in rep.pop("non_representable")]
        del rep["gate"], rep["notion"]
    assert gated == ungated and gated["complete"]


def test_bc_sweep_size_is_derived_from_the_monad_not_its_name():
    from lawcat.monad import PowersetMonad, monad_capabilities

    class Fake(PowersetMonad):
        name = "id"

    assert monad_capabilities(Fake())["bc_max_n"] == 2


def test_t1_gate_runs_no_beck_chevalley_sweep():
    # The monad owns its capabilities, computed on the first request.
    from lawcat.monad import IdentityMonad

    monad = IdentityMonad()
    ext = LaxExtension(monad, builtin("2"))
    rep = decide_lawvere_complete(preorder_category(ext, [[1, 1], [0, 1]]))
    assert rep["gate"] == "T1=1" and rep["complete"]
    assert monad._capabilities is None


# Every structure of each setting, small enough for the oracle's pair space.
ORACLE_SETTINGS = [
    ("id", "2", 1),
    ("id", "2", 2),
    ("id", "2", 3),
    ("id", "plus3", 2),
    ("id", "pset2", 2),
    ("ultra", "c3", 2),
    ("powerset", "2", 1),
    ("powerset", "2", 2),
    ("powerset", "c3", 1),
]


@pytest.mark.parametrize("mname,qname,n", ORACLE_SETTINGS)
def test_pruned_kernel_matches_oracle_on_every_structure(ext_factory, mname, qname, n):
    ext = ext_factory(mname, qname)
    cats = all_tvcategories(ext, n)
    assert cats
    for cat in cats:
        pruned = enumerate_adjoint_pairs(cat)
        reference = enumerate_adjoint_pairs(cat, oracle=True)
        assert [p.key() for p in pruned] == [p.key() for p in reference], cat.a.data


def representative_by_scan(x, pair):
    """Reference for the representables index: a scan over the points."""
    ext = x.ext
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


@pytest.mark.parametrize("mname,qname,n", ORACLE_SETTINGS)
def test_representables_index_matches_point_scan(ext_factory, mname, qname, n):
    ext = ext_factory(mname, qname)
    pairs = 0
    for cat in all_tvcategories(ext, n):
        index = representables(cat)
        verdict = decide_lawvere_complete(cat)
        for pair in verdict["pairs"]:
            rep = representative_by_scan(cat, pair)
            assert index.get(pair.key()) == pair.representative == rep, cat.a.data
            pairs += 1
    assert pairs


def assert_pairs_are_views(x, pairs):
    """Each pair's .psi and .phi are the T(n) x 1 and T(1) x n matrices on
    its tables, read without a copy, and its key is their data."""
    q = x.ext.q
    t1, tn = x.ext.monad.size(1), x.ext.monad.size(x.n)
    for pair in pairs:
        psi, phi = pair.psi, pair.phi
        assert psi == VMatrix(q, tn, 1, pair.tables[0]) and phi == VMatrix(q, t1, x.n, pair.tables[1])
        assert psi.data is pair.tables[0] and phi.data is pair.tables[1]
        assert pair.key() == (psi.data, phi.data)


@pytest.mark.parametrize("mname,qname,n", ORACLE_SETTINGS)
def test_pair_matrices_are_views_of_their_tables(ext_factory, mname, qname, n):
    # Every path's pairs (the representables, the Kleisli columns, the
    # walk and the oracle crossing, which builds its pairs from the
    # matrices it enumerates) read as the same matrices.
    ext = ext_factory(mname, qname)
    for cat in all_tvcategories(ext, n):
        pruned = decide_lawvere_complete(cat)["pairs"]
        reference = decide_lawvere_complete(cat, oracle=True)["pairs"]
        assert_pairs_are_views(cat, pruned)
        assert_pairs_are_views(cat, reference)
        assert [(p.psi, p.phi) for p in pruned] == [(p.psi, p.phi) for p in reference], cat.a.data


@pytest.mark.parametrize("mname,qname,n", [("id", "2", 2), ("ultra", "plus3", 1), ("powerset", "2", 1)])
def test_pair_matrices_are_views_on_every_matrix(ext_factory, mname, qname, n):
    ext = ext_factory(mname, qname)
    for x in all_structures(ext, n):
        pruned = enumerate_adjoint_pairs(x)
        assert_pairs_are_views(x, pruned)
        assert [(p.psi, p.phi) for p in pruned] == [
            (p.psi, p.phi) for p in enumerate_adjoint_pairs(x, oracle=True)
        ], x.a.data


@pytest.mark.parametrize("mname,qname,n", [("id", "2", 3), ("id", "plus3", 2), ("id", "c4", 2), ("ultra", "c3", 2)])
def test_theorem_path_builds_no_matrix(monkeypatch, ext_factory, mname, qname, n):
    # An id or ultra category over a join-prime unit is decided from its
    # representables index alone: no VMatrix.trusted call, with the
    # verdict carried or computed on the way.
    ext = ext_factory(mname, qname)
    cats = all_tvcategories(ext, n)
    fresh = [TVCategory(ext, n, x.a) for x in cats]
    calls = []
    trusted = VMatrix.trusted.__func__
    monkeypatch.setattr(VMatrix, "trusted", classmethod(lambda cls, *args: calls.append(args) or trusted(cls, *args)))
    verdicts = [decide_lawvere_complete(x) for x in cats + fresh]
    assert calls == [] and all(v["pair_count"] for v in verdicts)


@pytest.mark.parametrize(
    "mname,qname,n", [("id", "2", 2), ("ultra", "c3", 2), ("powerset", "2", 1), ("powerset", "c3", 1)]
)
def test_representables_index_skips_points_that_are_not_functors(ext_factory, mname, qname, n):
    # On every matrix, categories or not, each point's own induced pair is
    # looked up; where the point fails check_tvfunctor (a(e(p), p) below k)
    # the index and the scan must both answer None.  powerset/c3 reads phi
    # through tmap over a V that is not two-valued.
    ext = ext_factory(mname, qname)
    q = ext.q
    monad = ext.monad
    tn = monad.size(n)
    pcat = unit_tvcategory(ext)
    failing = 0
    for flat in itertools.product(range(q.n), repeat=tn * n):
        x = TVCategory(ext, n, VMatrix(q, tn, n, [flat[i * n : (i + 1) * n] for i in range(tn)]))
        index = representables(x)
        for p in range(n):
            tf = monad.tmap((p,), 1, n)
            phi = VMatrix(q, monad.size(1), n, [x.a.data[tf[z]] for z in range(monad.size(1))])
            psi = VMatrix(q, tn, 1, [(x.a.data[s][p],) for s in range(tn)])
            pair = AdjointPair(q, (psi.data, phi.data))
            assert index.get(pair.key()) == representative_by_scan(x, pair), flat
            failing += not check_tvfunctor((p,), pcat, x)["ok"]
    assert failing


def test_psi_extensions_stay_out_of_the_memo(monads, quantales, validated_copy):
    # psi is extended through its quotient, the sorted column of its values:
    # one memo entry per value set, and none under psi's own data.  A fresh
    # copy of c3 keeps other extensions' entries out of the memo.
    ext = LaxExtension(monads["powerset"], validated_copy(quantales["c3"]))
    psis = []
    extend = ext.extend
    ext.extend = lambda m: (m.cols == 1 and psis.append(m.data)) or extend(m)
    cats = all_tvcategories(ext, 2)
    for cat in cats[:: max(1, len(cats) // 20)]:
        decide_lawvere_complete(cat)
    columns = [key for key in ext._memo if key[1] == 1]
    assert 0 < len(columns) <= 2**ext.q.n
    for _, _, data in columns:
        assert list(data) == sorted(set(data)), data
    unsorted = [data for data in psis if list(data) != sorted(set(data))]
    assert unsorted
    assert not [data for data in unsorted if (len(data), 1, data) in ext._memo]


def cyclic_quantale(m):
    """Subsets of Z/m under Minkowski sum: its unit {0} is neither top nor bottom."""
    size = 1 << m
    leq = [[a & b == a for b in range(size)] for a in range(size)]

    def add(a, b):
        out = 0
        for i in range(m):
            for j in range(m):
                if a >> i & b >> j & 1:
                    out |= 1 << (i + j) % m
        return out

    tensor = [[add(a, b) for b in range(size)] for a in range(size)]
    labels = ["{" + ",".join(str(i) for i in range(m) if a >> i & 1) + "}" for a in range(size)]
    q = Quantale(f"cyclic{m}", labels, leq, tensor, unit=1)
    assert validate_quantale(q)["ok"] and q.unit not in (q.top, q.bottom)
    return q


def kc_closed_psis(q, kc, tn):
    """Every psi with kc[s][t] (x) psi[t] <= psi[s] for all s, t, in
    itertools.product order: the walk's psi space without its cut."""
    return [
        psi
        for psi in itertools.product(range(q.n), repeat=tn)
        if all(q.leq[q.tensor[kc[s][t]][psi[t]]][psi[s]] for s in range(tn) for t in range(tn))
    ]


def pairs_by_extension(x, kc):
    """Reference for the pruned walk: the exact per-psi check on every
    kc-closed psi, so that it differs from the walk only in the cut."""
    pair_at = _pair_check(x)
    found = [pair_at(psi) for psi in kc_closed_psis(x.ext.q, kc, x.ext.monad.size(x.n))]
    return [pair for pair in found if pair is not None]


def all_structures(ext, n):
    """Every T(n) x n matrix over ext, categories or not."""
    q = ext.q
    tn = ext.monad.size(n)
    for flat in itertools.product(range(q.n), repeat=tn * n):
        yield TVCategory(ext, n, VMatrix(q, tn, n, [flat[i * n : (i + 1) * n] for i in range(tn)]))


@pytest.mark.parametrize(
    "mname,qname,n",
    [("id", "2", n) for n in (0, 1, 2, 3)]
    + [("id", "c3", n) for n in (0, 1, 2)]
    + [("ultra", "plus3", n) for n in (0, 1, 2)]
    + [("id", "cyclic2", n) for n in (0, 1, 2)]
    + [("powerset", "2", n) for n in (0, 1, 2)]
    + [("powerset", "c3", n) for n in (0, 1)],
)
def test_pruned_kernel_matches_oracle_on_every_matrix(ext_factory, mname, qname, n):
    # structures failing the category axioms too: there the phi-module laws
    # reject pairs that the unit inequality alone would keep.  The reference
    # without the cut must agree with both.
    if qname == "cyclic2":
        ext = LaxExtension(builtin_monad(mname), cyclic_quantale(2))
    else:
        ext = ext_factory(mname, qname)
    for x in all_structures(ext, n):
        pruned = [p.key() for p in enumerate_adjoint_pairs(x)]
        assert pruned == [p.key() for p in enumerate_adjoint_pairs(x, oracle=True)], x.a.data
        reference = sorted(p.key() for p in pairs_by_extension(x, kleisli_table(x)))
        assert reference == pruned, x.a.data


@pytest.mark.parametrize("qname", ["2", "c3", "plus2", "pset1"])
def test_powerset_walk_matches_reference_on_hom_xi(ext_factory, qname):
    ext = ext_factory("powerset", qname)
    x = hom_xi_category(ext)
    reference = sorted(p.key() for p in pairs_by_extension(x, kleisli_table(x)))
    assert [p.key() for p in enumerate_adjoint_pairs(x)] == reference


def test_powerset_walk_on_every_c3_category(monads, quantales):
    # On every powerset/c3 category on 2 points the walk finds the pairs of
    # the reference without the cut, and, the cut coming before a psi is
    # extended, extends fewer one-column matrices than there are kc-closed
    # psis (the reference extends each).
    ext = LaxExtension(monads["powerset"], quantales["c3"])
    calls = []
    extend = ext.extend
    ext.extend = lambda m: (m.cols == 1 and calls.append(m)) or extend(m)
    for x in all_tvcategories(ext, 2):
        kc = kleisli_table(x)
        reference = sorted(p.key() for p in pairs_by_extension(x, kc))
        del calls[:]
        assert [p.key() for p in enumerate_adjoint_pairs(x)] == reference, x.a.data
        assert len(calls) < len(kc_closed_psis(ext.q, kc, 4)), x.a.data


@pytest.mark.parametrize("mname,qname,n", [("id", "pset2", 3), ("ultra", "pset2", 4), ("id", "plus3", 3), ("ultra", "2", 5)])
def test_identity_walk_extends_only_the_structure(monads, quantales, mname, qname, n):
    # Over a V without a join-prime unit the walk reads phi and psi as their
    # own extensions: the one extend call is kleisli_table's, on the
    # structure itself.  Over a join-prime unit the shortcut reads neither
    # the Kleisli table nor the one-point category: it makes no extend call.
    # Neither path builds the unit category.
    rng = random.Random(f"walk/{mname}/{qname}/{n}")
    q = quantales[qname]
    walks = qname == "pset2"
    for _ in range(5):
        ext = LaxExtension(monads[mname], q)
        x = TVCategory(ext, n, VMatrix(q, n, n, closed_structure(rng, q, n)))
        calls = []
        extend = ext.extend
        ext.extend = lambda m: calls.append(m) or extend(m)
        assert enumerate_adjoint_pairs(x)
        assert calls == ([x.a] if walks else [])
        assert ("unit",) not in ext.cache


def test_unit_category_kleisli_table_is_k_on_the_diagonal():
    # The unit-category phi law that _pair_check no longer checks reads
    # k (x) v <= v exactly when this table is k on the diagonal and bottom
    # elsewhere: over every built-in monad and every quantale it accepts.
    from test_random_lattices import SEEDS, downset_quantale

    quantales = (
        list(builtin_quantales().values())
        + [downset_quantale(seed) for seed in SEEDS]
        + [cyclic_quantale(m) for m in (2, 3)]
    )
    checked = 0
    for monad in builtin_monads().values():
        for q in quantales:
            try:
                ext = LaxExtension(monad, q)
            except GateUnavailable:
                continue
            t1 = monad.size(1)
            expected = [[q.unit if s == t else q.bottom for t in range(t1)] for s in range(t1)]
            assert [list(row) for row in kleisli_table(unit_tvcategory(ext))] == expected, (monad.name, q.name)
            checked += 1
    assert checked == 67


def closed_structure(rng, q, n):
    """A random reflexive matrix closed under V-composition: a V-category."""
    density = rng.choice((0.2, 0.4, 0.6))
    a = [
        [q.unit if x == y else (rng.randrange(q.n) if rng.random() < density else q.bottom) for y in range(n)]
        for x in range(n)
    ]
    changed = True
    while changed:
        changed = False
        for x, y, z in itertools.product(range(n), repeat=3):
            v = q.join_t[a[x][z]][q.tensor[a[x][y]][a[y][z]]]
            if v != a[x][z]:
                a[x][z] = v
                changed = True
    return a


# Settings too large to sweep whole: a seeded sample of 15 structures each.
SAMPLED_SETTINGS = [
    ("id", "plus3", 3),
    ("id", "c4", 3),
    ("ultra", "c3", 3),
    ("ultra", "2", 5),
    ("powerset", "c3", 2),
]


@pytest.mark.parametrize("mname,qname,n", SAMPLED_SETTINGS)
def test_pruned_kernel_matches_oracle_on_sampled_structures(ext_factory, mname, qname, n):
    ext = ext_factory(mname, qname)
    q = ext.q
    rng = random.Random(f"{mname}/{qname}/{n}")
    if mname == "powerset":
        cats = rng.sample(all_tvcategories(ext, n), 15)
    else:
        # over finite sets the ultrafilter monad is the identity
        cats = [TVCategory(ext, n, VMatrix(q, n, n, closed_structure(rng, q, n))) for _ in range(15)]
    for cat in cats:
        assert check_tvcategory(ext, n, cat.a)["ok"], cat.a.data
        pruned = decide_lawvere_complete(cat)
        reference = decide_lawvere_complete(cat, oracle=True)
        assert [p.key() for p in pruned["pairs"]] == [p.key() for p in reference["pairs"]], cat.a.data
        assert pruned["representatives"] == reference["representatives"]


def test_unit_category_is_built_once_per_extension(ext_factory):
    ext = ext_factory("powerset", "c3")
    pcat = unit_tvcategory(ext)
    assert unit_tvcategory(ext) is pcat
    assert pcat == discrete_tvcategory(ext, 1)


@pytest.mark.parametrize(
    "mname,qname,n",
    [("id", "2", 3), ("id", "c3", 2), ("ultra", "plus3", 2), ("powerset", "2", 2)]
    + [("powerset", qname, n) for qname in ("2", "c3") for n in (0, 1)],
)
def test_psi_budget_edge(ext_factory, mname, qname, n):
    ext = ext_factory(mname, qname)
    psi_count = ext.q.n ** ext.monad.size(n)

    def pairs_at(budget):
        tight = LaxExtension(ext.monad, ext.q, budget)
        return enumerate_adjoint_pairs(discrete_tvcategory(tight, n))

    with pytest.raises(BudgetExceeded) as err:
        pairs_at(psi_count - 1)
    assert (err.value.what, err.value.needed) == ("psi space", psi_count)
    # The same budget bounds the extension of the structure, T(T(n)) x T(n)
    # cells, which binds first where it outgrows the psi space; over powerset
    # at 0 points the first extension inside the pair search binds first:
    # of psi, T(T(0)) x T(1) cells, on the Kleisli columns, as of the
    # T(1) x 0 bound on phi, T(T(1)) x T(0) cells, on the walk.
    cells = {
        ("id", "2", 3): 9,
        ("powerset", "2", 2): 64,
        ("powerset", "2", 1): 8,
        ("powerset", "2", 0): 4,
        ("powerset", "c3", 0): 4,
    }.get((mname, qname, n))
    if cells is not None:
        with pytest.raises(BudgetExceeded) as err:
            pairs_at(psi_count)
        assert (err.value.what, err.value.needed) == ("extended matrix size", cells)
    else:
        expected = enumerate_adjoint_pairs(discrete_tvcategory(ext, n))
        assert [p.key() for p in pairs_at(psi_count)] == [p.key() for p in expected]


def two_element_quantale(name):
    """A two-element quantale: tests/data/two.quantale, or the same chain
    with top listed first, so that top is index 0 and bottom index 1."""
    if name == "two.quantale":
        with open(os.path.join(DATA, name)) as fh:
            q = parse_quantale_text(fh.read(), name)
    else:
        q = parse_quantale_text("quantale top0\nelements: t f\norder: f<=t\nunit: t\ntensor: f*f=f f*t=f t*t=t\n")
    assert validate_quantale(q)["ok"] and q.n == 2
    return q


def takes_shortcut(x):
    """Whether _pruned_pairs reads x's pairs off its representables: an id
    or ultra category over a join-prime unit."""
    return (
        x.ext.monad.size(1) == 1
        and x.ext.q.join_prime_unit
        and is_category(x)
    )


def assert_theorem_path_matches(x):
    # enumerate_adjoint_pairs, on the shortcut or the Kleisli-column path
    # wherever one applies, against the walk, called directly, and against
    # the oracle's independent crossing of both sides.  The shortcut builds
    # its pairs and their representatives from representables(x): each
    # carried point is the one the scan over the points finds.
    pairs = enumerate_adjoint_pairs(x)
    got = [p.key() for p in pairs]
    walk = _generic_pairs(x, kleisli_table(x))
    assert got == sorted(p.key() for p in walk), x.a.data
    assert got == [p.key() for p in enumerate_adjoint_pairs(x, oracle=True)], x.a.data
    if takes_shortcut(x):
        assert [p.representative for p in pairs] == [representative_by_scan(x, p) for p in pairs], x.a.data
    return len(got)


@pytest.mark.parametrize("mname", ["id", "ultra"])
@pytest.mark.parametrize("qname", ["2", "pset1", "two.quantale", "top0"])
def test_theorem_path_matches_walk_on_two_valued_matrices(monads, quantales, mname, qname):
    # Every two-valued matrix on n <= 3 points, categories or not.
    q = quantales[qname] if qname in quantales else two_element_quantale(qname)
    ext = LaxExtension(monads[mname], q)
    assert sum(assert_theorem_path_matches(x) for n in range(4) for x in all_structures(ext, n))


def test_theorem_path_matches_walk_on_preorders(ext_factory):
    ext = ext_factory("id", "2")
    preorders = enumerate_preorders(4)
    assert len(preorders) == 355
    for p in preorders:
        assert assert_theorem_path_matches(order_tvcategory(ext, p))


def test_theorem_path_matches_walk_on_spaces(ext_factory):
    ext = ext_factory("ultra", "2")
    rng = random.Random("bitmask/spaces")
    for _ in range(200):
        pairs = [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(7))]
        order = FinitePreorder.from_pairs(5, pairs)
        assert assert_theorem_path_matches(tvcategory_from_space(ext, order))


# The built-ins whose unit is a join-irreducible top.
JOIN_PRIME_UNITS = ("2", "c3", "c4", "plus2", "plus3", "pset1")


def reflexive_categories(ext, n):
    """The categories on n points over a V with k = top: the matrices with
    top at every (e(p), p) (k <= a(e(p), p)) that check_tvcategory
    accepts, |V|^(|T(n)| n - n) candidates, not |V|^(|T(n)| n).  Each
    carries its verdict."""
    q = ext.q
    tn = ext.monad.size(n)
    e = ext.monad.unit_table(n)
    free = [(s, p) for s in range(tn) for p in range(n) if s != e[p]]
    cats = []
    for flat in itertools.product(range(q.n), repeat=len(free)):
        data = [[q.top] * n for _ in range(tn)]
        for (s, p), v in zip(free, flat):
            data[s][p] = v
        a = VMatrix(q, tn, n, data)
        verdict = check_tvcategory(ext, n, a)
        if verdict["ok"]:
            cats.append(TVCategory(ext, n, a, checked=verdict))
    return cats


def test_theorem_path_matches_walk_on_every_small_category(ext_factory):
    # Every id and ultra category on 1 to 3 points over the join-prime
    # units: all take the theorem path, which equals the walk, and at
    # n <= 2 the oracle; every pair found has its representative.
    count = 0
    for mname in ("id", "ultra"):
        for qname in JOIN_PRIME_UNITS:
            ext = ext_factory(mname, qname)
            for n in (1, 2, 3):
                cats = reflexive_categories(ext, n)
                if n <= 2:
                    assert sorted(x.a.data for x in cats) == sorted(x.a.data for x in all_tvcategories(ext, n))
                for x in cats:
                    assert takes_shortcut(x), (mname, qname, x.a.data)
                    pairs = enumerate_adjoint_pairs(x)
                    got = [p.key() for p in pairs]
                    assert got == sorted(p.key() for p in _generic_pairs(x, kleisli_table(x))), x.a.data
                    if n <= 2:
                        assert got == [p.key() for p in enumerate_adjoint_pairs(x, oracle=True)], x.a.data
                    assert [p.representative for p in pairs] == [representative_by_scan(x, p) for p in pairs]
                count += len(cats)
    assert count == 5630


def sum_chain():
    """-inf < 0 < inf under addition: top is join-irreducible, but the unit
    0 is below it."""
    q = Quantale(
        "sum3",
        ("-inf", "0", "inf"),
        [[u <= w for w in range(3)] for u in range(3)],
        [[0 if 0 in (u, w) else min(2, u + w - 1) for w in range(3)] for u in range(3)],
        unit=1,
    )
    assert validate_quantale(q)["ok"]
    return q


def product_quantale(q1, q2):
    """The product of two quantales, ordered and multiplied coordinatewise."""
    els = [(u1, u2) for u1 in range(q1.n) for u2 in range(q2.n)]
    q = Quantale(
        f"{q1.name}x{q2.name}",
        [f"{q1.labels[u1]}|{q2.labels[u2]}" for u1, u2 in els],
        [[q1.leq[u1][w1] and q2.leq[u2][w2] for w1, w2 in els] for u1, u2 in els],
        [[els.index((q1.tensor[u1][w1], q2.tensor[u2][w2])) for w1, w2 in els] for u1, u2 in els],
        unit=els.index((q1.unit, q2.unit)),
    )
    assert validate_quantale(q)["ok"]
    return q


def trivial_quantale():
    """The one-element quantale.  It satisfies every law, but
    validate_quantale refuses it, so its hom table is filled here."""
    q = Quantale("one", ("*",), ((True,),), ((0,),), 0)
    assert validate_quantale(q)["law"] == "trivial-quantale"
    q.hom_t = ((0,),)
    return q


THEOREM_CASES = {
    "zmod2": lambda: cyclic_quantale(2),
    "z3": group_quantale,
    "sum3": sum_chain,
    "plus2xplus2": lambda: product_quantale(builtin("plus2"), builtin("plus2")),
    "one": trivial_quantale,
}


def record_paths(monkeypatch):
    """Wrap the pair paths of _pruned_pairs; each records the structures it
    is called on, under its name: "shortcut" the representables index
    built by _pruned_pairs on a category, "columns" the Kleisli columns,
    "walk" the walk.  "checked" records (structure, psi) for each psi that
    _pair_check's check runs on, and "representables" each structure whose
    representables index is built outside _pruned_pairs."""
    seen = {"shortcut": [], "columns": [], "walk": [], "checked": [], "representables": []}
    for key, name in (("columns", "_kleisli_column_pairs"), ("walk", "_generic_pairs")):
        path = getattr(completeness, name)
        monkeypatch.setattr(completeness, name, lambda x, *rest, _f=path, _k=key: seen[_k].append(x) or _f(x, *rest))
    pruned = completeness._pruned_pairs
    index = completeness.representables
    inside = []

    def recording_pruned(x):
        inside.append(x)
        try:
            return pruned(x)
        finally:
            inside.pop()

    def recording_representables(x):
        seen["shortcut" if inside else "representables"].append(x)
        return index(x)

    monkeypatch.setattr(completeness, "_pruned_pairs", recording_pruned)
    monkeypatch.setattr(completeness, "representables", recording_representables)
    pair_check = completeness._pair_check

    def recording_pair_check(x):
        pair_at = pair_check(x)
        return lambda psi: seen["checked"].append((x, psi)) or pair_at(psi)

    monkeypatch.setattr(completeness, "_pair_check", recording_pair_check)
    return seen


@pytest.mark.parametrize(
    "mname,qname,join_prime",
    [
        ("id", "2", True),
        ("ultra", "2", True),
        ("id", "c3", True),
        ("id", "plus3", True),
        ("powerset", "2", True),
        ("powerset", "c3", True),
        ("id", "pset2", False),
        ("powerset", "pset2", False),
        ("id", "zmod2", False),
        ("id", "z3", False),
        ("id", "sum3", False),
        ("ultra", "plus2xplus2", False),
        ("powerset", "plus2xplus2", False),
        ("id", "one", False),
    ],
)
def test_theorem_path_runs_only_over_a_join_prime_unit(monkeypatch, monads, quantales, mname, qname, join_prime):
    # The walk runs for no structure over a join-irreducible top unit, on
    # every monad, and for every category elsewhere: a unit below top
    # (zmod2, z3, sum3), a join-reducible top (pset2, and plus2 x plus2,
    # integral but no frame) or top = bottom (one).  Over a join-prime
    # unit every category's representable pairs come from representables,
    # as all_tvcategories carries its verdict: id and ultra categories
    # take only that shortcut, and powerset categories also the Kleisli
    # columns, where _pair_check runs on no unit column and, at n >= 1, on
    # no empty column; the representables index is built exactly once per
    # category, by the theorem path.  Either way the pairs are the walk's.
    walk = completeness._generic_pairs
    seen = record_paths(monkeypatch)
    q = quantales[qname] if qname in quantales else THEOREM_CASES[qname]()
    ext = LaxExtension(monads[mname], q)
    sizes = (0, 1) if mname == "powerset" and not join_prime else (0, 1, 2)
    cats = [x for n in sizes for x in all_tvcategories(ext, n)]
    expected = [sorted(p.key() for p in walk(x, kleisli_table(x))) for x in cats]
    for records in seen.values():
        records.clear()
    for x, keys in zip(cats, expected):
        assert [p.key() for p in decide_lawvere_complete(x)["pairs"]] == keys, x.a.data
    assert cats and seen["walk"] == ([] if join_prime else cats)
    # representables, on either side, builds no one-point category
    assert ("unit",) not in ext.cache
    if join_prime:
        assert seen["shortcut"] == cats and seen["representables"] == []
        assert seen["columns"] == (cats if mname == "powerset" else [])
        for x, psi in seen["checked"]:
            kc = kleisli_table(x)
            settled = list(ext.monad.unit_table(x.n)) + ([0] if x.n else [])
            assert psi not in [tuple([row[t] for row in kc]) for t in settled], x.a.data
        # over powerset the column of the whole carrier is still checked
        assert bool(seen["checked"]) == (mname == "powerset")
    else:
        assert seen["shortcut"] == seen["columns"] == []
        assert seen["representables"] == [x for x, keys in zip(cats, expected) if keys]
    if qname == "one":
        # the empty category has the empty pair, which no point represents
        assert not decide_lawvere_complete(cats[0])["complete"]


@pytest.mark.parametrize("mname,qname", [("id", "2"), ("ultra", "c3")])
def test_theorem_path_runs_only_on_categories(monkeypatch, ext_factory, mname, qname):
    # Over a join-prime unit the shortcut runs exactly on the categories,
    # whose verdict is computed here; every other structure takes the
    # Kleisli columns, and none walks.
    seen = record_paths(monkeypatch)
    ext = ext_factory(mname, qname)
    structures = [x for n in (1, 2) for x in all_structures(ext, n)]
    for x in structures:
        enumerate_adjoint_pairs(x)
    cats = [x for x in structures if check_tvcategory(ext, x.n, x.a)["ok"]]
    others = [x for x in structures if not check_tvcategory(ext, x.n, x.a)["ok"]]
    assert cats and others
    assert (seen["shortcut"], seen["columns"], seen["walk"]) == (cats, others, [])


# (monad, V, points, oracle): every matrix on that many points.  The
# powerset/2 matrices are crossed with the oracle, through
# enumerate_adjoint_pairs, by test_pruned_kernel_matches_oracle_on_every_matrix.
KLEISLI_COLUMN_SWEEPS = [("powerset", "2", n, False) for n in (0, 1, 2)] + [
    ("powerset", "c3", 2, False),
    ("powerset", "plus2", 2, False),
    ("id", "2", 3, True),
    ("id", "c3", 2, True),
    ("ultra", "c3", 2, True),
]


@pytest.mark.parametrize("mname,qname,n,oracle", KLEISLI_COLUMN_SWEEPS)
def test_kleisli_columns_match_walk_on_every_matrix(ext_factory, mname, qname, n, oracle):
    # The Kleisli-column path, called directly on every structure,
    # categories or not, against the walk and, where its pair space is
    # small, the oracle: whole key lists.  On a category it runs both
    # reading the unit columns as representables and checking them.
    ext = ext_factory(mname, qname)
    count = 0
    for x in all_structures(ext, n):
        walk = sorted(p.key() for p in _generic_pairs(x, kleisli_table(x)))
        got = sorted(p.key() for p in _kleisli_column_pairs(x, []))
        assert got == walk, x.a.data
        if check_tvcategory(ext, n, x.a)["ok"]:
            pairs = [AdjointPair(ext.q, tables, p) for tables, p in representables(x).items()]
            read = _kleisli_column_pairs(x, pairs)
            assert sorted(p.key() for p in read) == walk, x.a.data
        if oracle:
            assert got == [p.key() for p in enumerate_adjoint_pairs(x, oracle=True)], x.a.data
        count += 1
    assert count == ext.q.n ** (ext.monad.size(n) * n)


@pytest.mark.parametrize("qname", JOIN_PRIME_UNITS + ("pset2",))
def test_checked_powerset_categories_decide_as_the_walk(ext_factory, qname):
    # Every powerset category on up to 2 points, decided with its verdict
    # carried (the unit columns read as representables) and without it
    # (every column checked): the pairs, representatives and witnesses are
    # those of the walk with the scan over the points, and the oracle's
    # where its pair space is at most 256.
    ext = ext_factory("powerset", qname)
    q = ext.q
    cats = incomplete = 0
    for n in (0, 1, 2):
        oracle = q.n ** (2 * n + (1 << n)) <= 256
        for x in reflexive_categories(ext, n):
            walk_pairs = sorted(_generic_pairs(x, kleisli_table(x)), key=AdjointPair.key)
            walk = [p.key() for p in walk_pairs]
            scan = [representative_by_scan(x, p) for p in walk_pairs]
            reps = [p for p in scan if p is not None]
            witnesses = [key for key, p in zip(walk, scan) if p is None]
            if oracle:
                assert walk == [p.key() for p in enumerate_adjoint_pairs(x, oracle=True)], x.a.data
            for y in (x, TVCategory(ext, n, x.a)):
                verdict = decide_lawvere_complete(y)
                assert [p.key() for p in verdict["pairs"]] == walk, x.a.data
                assert verdict["representatives"] == reps, x.a.data
                assert [p.key() for p in verdict["non_representable"]] == witnesses, x.a.data
                assert verdict["complete"] == (not witnesses)
            cats += 1
            incomplete += bool(witnesses)
    # 1,963 categories in all, 439 of them incomplete
    assert (cats, incomplete) == {
        "2": (24, 1),
        "c3": (125, 7),
        "c4": (427, 22),
        "plus2": (166, 9),
        "plus3": (751, 34),
        "pset1": (24, 1),
        "pset2": (446, 365),
    }[qname]


@pytest.mark.parametrize("qname", JOIN_PRIME_UNITS)
def test_kleisli_columns_match_walk_on_powerset_categories(ext_factory, qname):
    # Every powerset category on 2 points: the Kleisli columns (through
    # enumerate_adjoint_pairs) against the walk.
    ext = ext_factory("powerset", qname)
    cats = reflexive_categories(ext, 2)
    if qname in ("2", "c3"):
        assert sorted(x.a.data for x in cats) == sorted(x.a.data for x in all_tvcategories(ext, 2))
    for x in cats:
        got = [p.key() for p in enumerate_adjoint_pairs(x)]
        assert got == sorted(p.key() for p in _generic_pairs(x, kleisli_table(x))), x.a.data
    assert len(cats) == {"2": 21, "c3": 121, "c4": 422, "plus2": 162, "plus3": 746, "pset1": 21}[qname]


@pytest.mark.parametrize("qname", ["2", "pset1", "c3", "plus2"])
def test_v_over_powerset_has_the_walks_pairs(ext_factory, qname):
    # V with its canonical structure over the powerset monad, where its psi
    # space fits the default budget: the Kleisli columns give the walk's
    # pairs, V is complete, and each pair is represented by the point
    # psi(k) names.
    ext = ext_factory("powerset", qname)
    x = hom_xi_category(ext)
    verdict = decide_lawvere_complete(x)
    walk = _generic_pairs(x, kleisli_table(x))
    assert [p.key() for p in verdict["pairs"]] == sorted(p.key() for p in walk)
    assert verdict["complete"] and verdict["pair_count"] in (2, 3)
    k_dot = ext.monad.unit_table(ext.q.n)[ext.q.unit]
    assert [p.representative for p in verdict["pairs"]] == [p.psi.data[k_dot][0] for p in verdict["pairs"]]


@pytest.mark.parametrize("qname", ["c4", "plus3"])
def test_v_over_powerset_beyond_the_default_budget(monads, quantales, qname):
    # 4^16 psi points: refused at the default budget, complete with 4
    # pairs, one per element of V, once the budget admits the psi space.
    q = quantales[qname]
    with pytest.raises(BudgetExceeded) as err:
        decide_lawvere_complete(hom_xi_category(LaxExtension(monads["powerset"], q)))
    assert (err.value.what, err.value.needed) == ("psi space", 4**16)
    verdict = decide_lawvere_complete(hom_xi_category(LaxExtension(monads["powerset"], q, 4**16)))
    assert verdict["complete"] and verdict["pair_count"] == 4
    assert verdict["representatives"] == [0, 1, 2, 3]


def walk_reference(x):
    """enumerate_adjoint_pairs as it was with the walk on every powerset
    structure: the psi space charged, kleisli_table built, then the walk."""
    ext = x.ext
    ext.check_budget("psi space", ext.q.n ** ext.monad.size(x.n))
    return sorted(p.key() for p in _generic_pairs(x, kleisli_table(x)))


def outcome(run, x):
    try:
        return run(x)
    except BudgetExceeded as err:
        return (err.what, err.needed, err.budget)


@pytest.mark.parametrize("qname,n", [("2", 0), ("2", 1), ("2", 2), ("c3", 0), ("c3", 1)])
def test_kleisli_columns_refuse_where_the_walk_refuses(monads, quantales, qname, n):
    # At every budget up to one above the largest charge, every powerset
    # category refuses with the same check and count as the walk, or both
    # give the same pairs.  At 0 points the walk's first inner charge is
    # its bound on phi and the columns' the extension of psi, both
    # T(T(1)) x T(0) = 4 cells, above the psi space and the structure's
    # extension (2 cells each over 2).
    q = quantales[qname]
    largest = max(q.n ** (1 << n), (1 << (1 << n)) * (1 << n), 4 << n)
    cats = all_tvcategories(LaxExtension(monads["powerset"], q), n)
    refusals = 0
    for budget in range(1, largest + 2):
        for x in cats:
            tight = TVCategory(LaxExtension(monads["powerset"], q, budget), n, x.a)
            got = outcome(lambda y: [p.key() for p in enumerate_adjoint_pairs(y)], tight)
            assert got == outcome(walk_reference, tight), (budget, x.a.data)
            refusals += isinstance(got, tuple)
    assert refusals


def test_pset2_pairs_are_not_all_kleisli_columns(ext_factory):
    # pset2's top is the join of its two atoms, and the theorem fails:
    # of the 1,681 pairs of the 441 powerset categories on 2 points only
    # 931 have a Kleisli column as psi, so these must keep the walk.
    ext = ext_factory("powerset", "pset2")
    cats = reflexive_categories(ext, 2)
    pairs = columns = 0
    for x in cats:
        kc = kleisli_table(x)
        got = [p.key() for p in enumerate_adjoint_pairs(x)]
        assert got == sorted(p.key() for p in _generic_pairs(x, kc)), x.a.data
        kc_columns = {tuple([(row[t],) for row in kc]) for t in range(len(kc))}
        pairs += len(got)
        columns += sum(psi in kc_columns for psi, _ in got)
    assert (len(cats), pairs, columns) == (441, 1681, 931)
