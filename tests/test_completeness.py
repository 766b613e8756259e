import itertools

import pytest

from lawcat.completeness import (
    certify_v_complete,
    decide_lawvere_complete,
    enumerate_adjoint_pairs,
    ord_section_extract,
    representative_for,
    uniqueness_of_adjoints,
)
from lawcat.errors import GateUnavailable
from lawcat.quantale import builtin
from lawcat.tvcat import TVCategory, all_tvcategories, discrete_tvcategory, hom_xi_category
from lawcat.vmatrix import VMatrix


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
    from lawcat.instances import enumerate_preorders

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
    from lawcat.instances import enumerate_preorders, space_from_preorder, tvcategory_from_space
    from lawcat.instances import weakly_sober

    for n in (1, 2, 3):
        for p in enumerate_preorders(n):
            space = space_from_preorder(p)
            cat = tvcategory_from_space(ext, space)
            pairs = enumerate_adjoint_pairs(cat)
            sober = weakly_sober(space)
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
    from lawcat.instances import enumerate_preorders

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
