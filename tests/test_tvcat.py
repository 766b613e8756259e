import itertools
import random

import pytest

from lawcat.errors import GateUnavailable
from lawcat.laxext import LaxExtension
from lawcat.monad import m_square_gap
from lawcat.quantale import builtin
from lawcat.tvcat import (
    algebra_compose,
    all_tvcategories,
    check_evaluation_functor,
    check_exponential_maximality,
    check_tv_adjunction,
    check_tvbimodule,
    check_tvcategory,
    check_tvfunctor,
    discrete_tvcategory,
    dual_tvcategory,
    em_algebra_category,
    exponential_tvcat,
    exponentiable,
    functor_module_equivalence,
    hom_xi_category,
    induced_modules,
    kleisli_compose,
    oracle_largest_structure,
    tensor_tvcat,
    tvcategory,
    unit_tvcategory,
    whisker_checks,
    yoneda,
    yoneda0,
    TVCategory,
)
from lawcat.vmatrix import VMatrix, mcompose


def rand_structure(rng, ext, n):
    tn = ext.monad.size(n)
    return VMatrix(
        ext.q, tn, n, [[rng.randrange(ext.q.n) for _ in range(n)] for _ in range(tn)]
    )


def test_kleisli_is_plain_composition_for_identity_monad(ext_factory):
    ext = ext_factory("id", "c3")
    rng = random.Random(12)
    for _ in range(25):
        a = rand_structure(rng, ext, 2)
        b = VMatrix(ext.q, 2, 3, [[rng.randrange(ext.q.n) for _ in range(3)] for _ in range(2)])
        assert kleisli_compose(ext, b, a, 2) == mcompose(b, a)


def test_kleisli_lax_identities_on_random_structures(ext_factory):
    ext = ext_factory("ultra", "2")
    rng = random.Random(13)
    e_mat = discrete_tvcategory(ext, 3).a
    for _ in range(30):
        a = rand_structure(rng, ext, 3)
        assert kleisli_compose(ext, a, e_mat, 3) == a
        assert a.le(kleisli_compose(ext, e_mat, a, 3))


def test_kleisli_associativity_both_bounds(ext_factory):
    # nesting one way is below the other under strict functoriality, and
    # above it under strict naturality of the multiplication
    for mname, qname in (("powerset", "2"), ("powerset", "plus3"), ("ultra", "plus3")):
        ext = ext_factory(mname, qname)
        rng = random.Random(14)
        caps = ext.capabilities()
        strict_functor = ext.q.is_meet_tensor()
        for _ in range(10):
            a = rand_structure(rng, ext, 2)
            b = rand_structure(rng, ext, 2)
            c = rand_structure(rng, ext, 2)
            left = kleisli_compose(ext, c, kleisli_compose(ext, b, a, 2), 2)
            right = kleisli_compose(ext, kleisli_compose(ext, c, b, 2), a, 2)
            if strict_functor:
                assert left.le(right)
            if caps["m_natural"]:
                assert right.le(left)


def test_discrete_structure_is_category(ext_factory):
    for mname in ("id", "powerset", "ultra"):
        ext = ext_factory(mname, "c3")
        cat = discrete_tvcategory(ext, 2)
        assert check_tvcategory(ext, 2, cat.a)["ok"]


def test_free_algebra_category(ext_factory):
    ext = ext_factory("powerset", "2")
    cat = em_algebra_category(ext, 2)
    assert cat.n == 4
    assert check_tvcategory(ext, cat.n, cat.a)["ok"]


def test_ultra_two_structures_are_preorders(ext_factory):
    ext = ext_factory("ultra", "2")
    cats = all_tvcategories(ext, 2)
    assert len(cats) == 4
    q = ext.q
    bad = VMatrix(q, 3, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    verdict = check_tvcategory(ext, 3, bad)
    assert not verdict["ok"] and verdict["law"] == "transitivity"


@pytest.mark.parametrize("mname,qname", [("id", "c3"), ("ultra", "2"), ("powerset", "2")])
def test_functor_module_three_way_equivalence(ext_factory, mname, qname):
    ext = ext_factory(mname, qname)
    cats = all_tvcategories(ext, 2)[:6]
    for x in cats:
        for y in cats:
            for f in itertools.product(range(2), repeat=2):
                assert functor_module_equivalence(f, x, y)["all_agree"]


def test_identity_map_induces_the_structure(ext_factory):
    ext = ext_factory("ultra", "c3")
    for cat in all_tvcategories(ext, 2)[:10]:
        lower, upper = induced_modules((0, 1), cat, cat)
        assert lower == cat.a
        rep = check_tv_adjunction(ext, lower, upper, cat, cat)
        assert rep["is_adjoint"]


def test_constant_map_into_reflexive_point(ext_factory):
    ext = ext_factory("ultra", "2")
    cats = all_tvcategories(ext, 2)
    point = unit_tvcategory(ext)
    for y in cats:
        for p in range(2):
            f = (p,)
            assert check_tvfunctor(f, point, y)["ok"] == bool(
                ext.q.le(ext.q.unit, y.a.data[ext.unit_map(2)[p]][p])
            )


def test_whiskering_collapse_and_modules(ext_factory):
    ext = ext_factory("ultra", "2")
    cats = all_tvcategories(ext, 2)
    rng = random.Random(15)
    for x in cats:
        for y in cats:
            for z in cats:
                for f in itertools.product(range(2), repeat=2):
                    if not check_tvfunctor(f, x, y)["ok"]:
                        continue
                    phi = rand_structure(rng, ext, 2)
                    psi = rand_structure(rng, ext, 2)
                    from lawcat.tvcat import is_tvbimodule

                    if not (is_tvbimodule(phi, y, z) and is_tvbimodule(psi, z, y)):
                        continue
                    rep = whisker_checks(f, x, y, phi, psi, z)
                    assert rep["lower_collapses"] and rep["upper_collapses"]
                    assert rep["lower_is_module"] and rep["upper_is_module"]
                    if rep["square_bc"] and check_tv_adjunction(ext, phi, psi, z, y)["is_adjoint"]:
                        w_lower, _ = induced_modules(f, x, y)
                        from lawcat.vmatrix import precompose_map, select_cols

                        tf = ext.monad.tmap(f, 2, 2)
                        low = precompose_map(phi, tf, ext.monad.size(2))
                        up = select_cols(psi, f)
                        assert check_tv_adjunction(ext, low, up, z, x)["is_adjoint"]


def test_bimodule_double_functor_characterization(ext_factory):
    for mname, qname, rounds in (("ultra", "2", 40), ("id", "c3", 40), ("powerset", "2", 8)):
        ext = ext_factory(mname, qname)
        cats = all_tvcategories(ext, 2)
        rng = random.Random(16)
        for _ in range(rounds):
            x = cats[rng.randrange(len(cats))]
            y = cats[rng.randrange(len(cats))]
            psi = VMatrix(
                ext.q,
                ext.monad.size(2),
                2,
                [[rng.randrange(ext.q.n) for _ in range(2)] for _ in range(ext.monad.size(2))],
            )
            rep = check_tvbimodule(psi, x, y)
            if rep["m_natural_gate"]:
                assert rep["agree"], (mname, qname, x.a.data, y.a.data, psi.data)


def test_subset_indicators_as_modules_match_closedness(ext_factory):
    # rows from the point pick out exactly the closed sets; columns to the
    # point pick out their specialization-up-closed counterparts
    ext = ext_factory("ultra", "2")
    q = ext.q
    from lawcat.instances import FinitePreorder, space_from_preorder, tvcategory_from_space
    from lawcat.tvcat import is_tvbimodule

    for pairs in ([(0, 1)], [], [(0, 1), (1, 0)], [(1, 0)]):
        order = FinitePreorder.from_pairs(2, pairs)
        space = space_from_preorder(order)
        cat = tvcategory_from_space(ext, space)
        point = unit_tvcategory(ext)
        closed = {tuple(sorted(c)) for c in space.closed_sets()}
        for mask in range(1 << 2):
            pts = tuple(sorted(x for x in range(2) if mask & (1 << x)))
            phi = VMatrix(q, 1, 2, (tuple(q.unit if x in pts else q.bottom for x in range(2)),))
            assert is_tvbimodule(phi, point, cat) == (pts in closed)
            psi = VMatrix(q, 2, 1, tuple((q.unit if x in pts else q.bottom,) for x in range(2)))
            up_closed = all(
                y in pts
                for x in pts
                for y in range(2)
                if order.leq[x][y]
            )
            assert is_tvbimodule(psi, cat, point) == up_closed


def test_dual_agrees_with_double_extension_route(ext_factory):
    # oracle: e-transpose . T(m) . T(T(a-transpose)), extending twice
    # instead of extending the composed square matrix once
    from lawcat.vmatrix import postcompose_map, select_cols

    cases = [("ultra", "c3", 2), ("id", "plus3", 2), ("powerset", "2", 1)]
    for mname, qname, n in cases:
        ext = ext_factory(mname, qname)
        monad = ext.monad
        for cat in all_tvcategories(ext, n)[:6]:
            ta = ext.extend(cat.a)
            t2a_t = ext.extend(ta.transpose())
            tm = monad.tmap(ext.mult_map(n), monad.size(monad.size(n)), monad.size(n))
            step = postcompose_map(tm, monad.size(monad.size(n)), t2a_t)
            oracle = select_cols(step, ext.unit_map(monad.size(n)))
            assert dual_tvcategory(cat).a == oracle


def test_dual_collapses_for_identity_monad(ext_factory):
    ext = ext_factory("id", "pset2")
    for cat in all_tvcategories(ext, 2)[:12]:
        assert dual_tvcategory(cat).a == cat.a.transpose()


def test_hom_xi_category_all_pairs(ext_factory):
    for mname in ("id", "powerset", "ultra"):
        for qname in ("2", "c3", "plus3", "pset2"):
            ext = ext_factory(mname, qname)
            hom_xi_category(ext)


def test_hom_xi_reduces_to_hom_for_identity_monad(ext_factory):
    ext = ext_factory("id", "plus4")
    cat = hom_xi_category(ext)
    assert cat.a.data == ext.q.hom_t


def test_algebra_compose_equivalence_exhaustive(ext_factory):
    # identity monad: every unital associative map against every structure
    ext = ext_factory("id", "2")
    for vcat in all_tvcategories(ext, 2):
        for alpha in itertools.product(range(2), repeat=2):
            if any(alpha[x] != x for x in range(2)):
                continue
            rep = algebra_compose(ext, vcat.a, alpha, 2)
            assert rep["agree"]


def test_algebras_embed_as_categories(ext_factory):
    # any unital associative algebra map gives a valid structure
    from lawcat.tvcat import algebra_as_category

    ext = ext_factory("powerset", "c3")
    alpha = tuple(max((x for x in range(2) if mask & (1 << x)), default=0) for mask in range(4))
    cat = algebra_as_category(ext, alpha, 2)
    assert check_tvcategory(ext, 2, cat.a)["ok"]
    em = em_algebra_category(ext, 2)
    assert algebra_as_category(ext, ext.mult_map(2), em.n).a == em.a


def test_algebra_compose_powerset_join_algebra(ext_factory):
    # the join map of a chain is an algebra for the powerset monad
    ext = ext_factory("powerset", "2")
    q = ext.q
    chain = VMatrix(q, 2, 2, ((1, 1), (0, 1)))
    alpha = tuple(max((x for x in range(2) if mask & (1 << x)), default=0) for mask in range(4))
    rep = algebra_compose(ext, chain, alpha, 2)
    assert rep["agree"]
    assert rep["is_tvcategory"] == rep["alpha_is_functor"]


def test_tensor_validity_follows_strictness_flag(ext_factory):
    ext = ext_factory("ultra", "plus3")
    cats = all_tvcategories(ext, 2)
    assert ext.capabilities()["tensor_strict"]
    for x in cats[:4]:
        tensor_tvcat(x, x, validate=True)


def test_exponential_precondition_on_free_algebras(ext_factory):
    for mname in ("id", "ultra", "powerset"):
        ext = ext_factory(mname, "2")
        assert exponentiable(em_algebra_category(ext, 2))


def test_exponential_matches_oracle_largest_structure(ext_factory):
    ext = ext_factory("ultra", "2")
    x = discrete_tvcategory(ext, 2)
    for y in all_tvcategories(ext, 2):
        expo = exponential_tvcat(x, y)
        assert check_evaluation_functor(expo)["ok"]
        assert check_exponential_maximality(expo)["ok"]
        assert oracle_largest_structure(expo) == expo.structure


def test_exponential_pointwise_for_free_algebra_point(ext_factory):
    # functions out of the free algebra on one point, ordered pointwise
    ext = ext_factory("id", "2")
    x = em_algebra_category(ext, 1)
    v = hom_xi_category(ext)
    expo = exponential_tvcat(x, v)
    assert expo.carrier == [(0,), (1,)]
    q = ext.q
    for i, f in enumerate(expo.carrier):
        for j, g in enumerate(expo.carrier):
            assert (expo.structure.data[i][j] == q.unit) == q.le(f[0], g[0])


def test_exponential_requires_precondition(ext_factory):
    ext = ext_factory("ultra", "2")
    q = ext.q
    # 2-chain as a space: a . Ta != a . m fails for no preorder, so force
    # a non-exponentiable structure over the three-chain instead
    ext3 = ext_factory("ultra", "c3")
    cats = [c for c in all_tvcategories(ext3, 2) if not exponentiable(c)]
    if cats:
        with pytest.raises(GateUnavailable):
            exponential_tvcat(cats[0], cats[0])


@pytest.mark.parametrize("mname,qname", [("id", "2"), ("id", "c3"), ("ultra", "2")])
def test_yoneda_theorem_exhaustive(ext_factory, mname, qname):
    ext = ext_factory(mname, qname)
    for n in (1, 2):
        for cat in all_tvcategories(ext, n):
            rep = yoneda(cat)
            assert rep["ok"], (mname, qname, cat.a.data, rep)
            assert rep["fully_faithful"] is True
            assert rep["structure_oracle"]


def test_yoneda_reflexive_instance_bound(ext_factory):
    ext = ext_factory("id", "2")
    for cat in all_tvcategories(ext, 2):
        rep = yoneda(cat)
        # the column of any point evaluated at its own unit image meets
        # the bound with equality by reflexivity
        assert rep["bound_inequality"]


def test_yoneda_hat_carrier_is_downsets_for_chain(ext_factory):
    # oracle: the restricted presheaf carrier over a chain matches the
    # down-set count (chain of length n has n+1 down-sets)
    ext = ext_factory("id", "2")
    q = ext.q
    chain = tvcategory(ext, 2, VMatrix(q, 2, 2, ((1, 1), (0, 1))))
    rep = yoneda(chain)
    downsets = [
        phi
        for phi in itertools.product(range(2), repeat=2)
        if all(
            not (chain.a.data[x][y] == q.unit) or q.le(phi[y], phi[x])
            for x in range(2)
            for y in range(2)
        )
    ]
    assert len(rep["hat_carrier"]) == len(downsets) == 3


def test_yoneda_under_powerset_monad(ext_factory):
    # the bound and the equivalence hold without a singleton unit carrier;
    # the restricted-carrier statement is gated off (reported as None)
    from lawcat.errors import BudgetExceeded

    ext = ext_factory("powerset", "2")
    for cat in all_tvcategories(ext, 1):
        rep = yoneda(cat)
        assert rep["ok"]
        assert rep["fully_faithful"] is None
    with pytest.raises(BudgetExceeded):
        yoneda(all_tvcategories(ext, 2)[0])


def test_yoneda0_gates(ext_factory):
    ext = ext_factory("ultra", "2")
    for cat in all_tvcategories(ext, 2):
        rep = yoneda0(cat)
        assert rep["precondition"]
        assert rep["ok"]
    extp = ext_factory("powerset", "2")
    rep = yoneda0(discrete_tvcategory(extp, 2))
    assert rep["precondition"] is False


def test_square_bc_for_ultra_maps(ext_factory):
    ext = ext_factory("ultra", "2")
    for f in itertools.product(range(2), repeat=3):
        assert m_square_gap(ext.monad, f, 3, 2) is None
