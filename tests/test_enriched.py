"""V-categories as (id,V)-categories: the plain enriched calculus, run
through tvcat over the identity monad.

The direct reflexivity/transitivity loop below is an independent oracle
for check_tvcategory on square matrices.
"""

import itertools
import random

import pytest

from lawcat.enriched import all_vcategories
from lawcat.quantale import builtin, builtin_quantales
from lawcat.tvcat import (
    check_tv_adjunction,
    check_tvbimodule,
    check_tvcategory,
    check_tvfunctor,
    dual_tvcategory,
    exponential_tvcat,
    hom_xi_category,
    is_tvbimodule,
    kleisli_compose,
    tensor_tvcat,
    tvcategory,
    unit_tvcategory,
    yoneda,
)
from lawcat.vmatrix import VMatrix

from support import check_evaluation_functor, identity_matrix, induced_modules


def rand_matrix(rng, q, rows, cols):
    return VMatrix(q, rows, cols, [[rng.randrange(q.n) for _ in range(cols)] for _ in range(rows)])


def direct_vcategory_verdict(q, a):
    """Reflexivity and transitivity of a square matrix, read off directly."""
    for x in range(a.rows):
        if not q.leq[q.unit][a.data[x][x]]:
            return {"ok": False, "law": "reflexivity", "witness": (x,)}
    for x, y, z in itertools.product(range(a.rows), repeat=3):
        if not q.leq[q.tensor[a.data[x][y]][a.data[y][z]]][a.data[x][z]]:
            return {"ok": False, "law": "transitivity", "witness": (x, y, z)}
    return {"ok": True}


def induced_certificate(f, x, y):
    """The module pair of f, with bimodule laws and the adjunction checked."""
    lower, upper = induced_modules(f, x, y)
    adjoint = check_tv_adjunction(x.ext, lower, upper, y, x)["is_adjoint"]
    ok = is_tvbimodule(lower, x, y) and is_tvbimodule(upper, y, x) and adjoint
    return lower, upper, ok


@pytest.mark.parametrize("name,max_n", [("2", 3), ("c3", 2), ("plus2", 2)])
def test_check_tvcategory_matches_direct_loop(ext_factory, name, max_n):
    ext = ext_factory("id", name)
    q = ext.q
    for n in range(1, max_n + 1):
        for flat in itertools.product(range(q.n), repeat=n * n):
            a = VMatrix(q, n, n, tuple(flat[i * n : (i + 1) * n] for i in range(n)))
            assert check_tvcategory(ext, n, a) == direct_vcategory_verdict(q, a), a.data


@pytest.mark.parametrize("name", sorted(builtin_quantales()))
def test_identity_matrix_is_a_category(ext_factory, name):
    q = builtin(name)
    assert check_tvcategory(ext_factory("id", name), 3, identity_matrix(q, 3))["ok"]


@pytest.mark.parametrize("name", sorted(builtin_quantales()))
def test_hom_structure_is_a_category(ext_factory, name):
    cat = hom_xi_category(ext_factory("id", name))
    assert cat.a.data == builtin(name).hom_t


def test_preorder_tables_over_two(ext_factory):
    ext = ext_factory("id", "2")
    q = ext.q
    chain = VMatrix(q, 2, 2, ((1, 1), (0, 1)))
    assert check_tvcategory(ext, 2, chain)["ok"]
    broken = VMatrix(q, 3, 3, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    verdict = check_tvcategory(ext, 3, broken)
    assert not verdict["ok"]
    assert verdict["law"] == "transitivity"
    assert verdict["witness"] == (0, 1, 2)


def test_structures_are_identity_bimodules(ext_factory):
    ext = ext_factory("id", "c3")
    for cat in all_vcategories(ext.q, 2):
        rep = check_tvbimodule(cat.a, cat, cat)
        assert rep["ok"] and rep["agree"]
        # neutrality on both sides
        assert kleisli_compose(cat.ext, cat.a, cat.a, cat.n) == cat.a


def test_bimodule_composition_stays_bimodule():
    q = builtin("2")
    cats = all_vcategories(q, 2)
    ext = cats[0].ext
    rng = random.Random(6)
    for _ in range(60):
        x, y, z = (cats[rng.randrange(len(cats))] for _ in range(3))
        phi = rand_matrix(rng, q, x.n, y.n)
        psi = rand_matrix(rng, q, y.n, z.n)
        if check_tvbimodule(phi, x, y)["ok"] and check_tvbimodule(psi, y, z)["ok"]:
            comp = kleisli_compose(ext, psi, phi, x.n)
            assert check_tvbimodule(comp, x, z)["ok"]
            assert kleisli_compose(ext, comp, x.a, x.n) == comp
            assert kleisli_compose(ext, z.a, comp, x.n) == comp


def test_monotone_maps_are_functors_over_two(ext_factory):
    ext = ext_factory("id", "2")
    chain = tvcategory(ext, 2, VMatrix(ext.q, 2, 2, ((1, 1), (0, 1))))
    assert check_tvfunctor((0, 1), chain, chain)["ok"]
    verdict = check_tvfunctor((1, 0), chain, chain)
    assert not verdict["ok"]
    assert verdict["witness"] == (0, 1)


def test_bimodule_iff_functor_on_samples():
    rng = random.Random(8)
    count = 0
    names = ("2", "c3", "plus3", "pset2")
    cats_of = {name: all_vcategories(builtin(name), 2) for name in names}
    while count < 200:
        name = names[rng.randrange(4)]
        q = builtin(name)
        cats = cats_of[name]
        x = cats[rng.randrange(len(cats))]
        y = cats[rng.randrange(len(cats))]
        psi = rand_matrix(rng, q, 2, 2)
        rep = check_tvbimodule(psi, x, y)
        assert rep["agree"], (q.name, x.a.data, y.a.data, psi.data)
        count += 1


def test_induced_pair_of_identity_functor():
    for cat in all_vcategories(builtin("c3"), 2):
        lower, upper, ok = induced_certificate((0, 1), cat, cat)
        assert lower == cat.a and upper == cat.a
        assert ok


def test_induced_pair_from_point_category():
    cats = all_vcategories(builtin("plus3"), 2)
    point = unit_tvcategory(cats[0].ext)
    for cat in cats:
        for p in range(2):
            lower, _, ok = induced_certificate((p,), point, cat)
            assert lower.data == (tuple(cat.a.data[p]),)
            assert ok


def test_surjection_of_preorders_certificate(ext_factory):
    ext = ext_factory("id", "2")
    q = ext.q
    chain3 = tvcategory(ext, 3, VMatrix(q, 3, 3, ((1, 1, 1), (0, 1, 1), (0, 0, 1))))
    chain2 = tvcategory(ext, 2, VMatrix(q, 2, 2, ((1, 1), (0, 1))))
    assert induced_certificate((0, 0, 1), chain3, chain2)[2]


def test_dual_is_involutive():
    for cat in all_vcategories(builtin("pset2"), 2):
        assert dual_tvcategory(dual_tvcategory(cat)) == cat
        assert dual_tvcategory(cat).a == cat.a.transpose()


def test_tensor_with_unit_point_is_isomorphic():
    for cat in all_vcategories(builtin("c3"), 2):
        assert tensor_tvcat(cat, unit_tvcategory(cat.ext)).a == cat.a


def test_exponential_over_two_is_monotone_maps_pointwise(ext_factory):
    # oracle: build the function space directly from the order data
    ext = ext_factory("id", "2")
    q = ext.q
    chain = tvcategory(ext, 2, VMatrix(q, 2, 2, ((1, 1), (0, 1))))
    expo = exponential_tvcat(chain, chain)
    funcs = expo.carrier
    monotone = [
        f
        for f in itertools.product(range(2), repeat=2)
        if all(
            not chain.a.data[x][y] == q.unit or chain.a.data[f[x]][f[y]] == q.unit
            for x in range(2)
            for y in range(2)
        )
    ]
    assert funcs == monotone
    for i, f in enumerate(funcs):
        for j, g in enumerate(funcs):
            pointwise = all(chain.a.data[f[x]][g[x]] == q.unit for x in range(2))
            assert (expo.structure.data[i][j] == q.unit) == pointwise


def test_exponential_evaluation_identity_point(ext_factory):
    rep = yoneda(unit_tvcategory(ext_factory("id", "c4")))
    assert rep["ok"] and rep["fully_faithful"]


@pytest.mark.parametrize("name", ["2", "c3"])
def test_yoneda_eval_exhaustive_small(name):
    q = builtin(name)
    for n in (1, 2):
        for cat in all_vcategories(q, n):
            rep = yoneda(cat)
            assert rep["ok"] and rep["fully_faithful"], cat.a.data
            # the presheaves are exactly the functors X^op -> V
            presheaves = [
                h
                for h in itertools.product(range(q.n), repeat=n)
                if all(
                    q.leq[q.tensor[cat.a.data[x][y]][h[y]]][h[x]]
                    for x in range(n)
                    for y in range(n)
                )
            ]
            assert len(rep["hat_carrier"]) == len(presheaves)


def test_derived_categories_validate():
    for cat in all_vcategories(builtin("plus3"), 2)[:20]:
        ext = cat.ext
        dual = dual_tvcategory(cat)
        assert check_tvcategory(ext, dual.n, dual.a)["ok"]
        tens = tensor_tvcat(cat, dual)
        assert check_tvcategory(ext, tens.n, tens.a)["ok"]
        expo = exponential_tvcat(cat, cat).category()
        assert check_tvcategory(ext, expo.n, expo.a)["ok"]


def test_exponential_evaluation_is_a_functor():
    for cat in all_vcategories(builtin("c3"), 2)[:12]:
        assert check_evaluation_functor(exponential_tvcat(cat, cat))["ok"]


def test_functor_space_members_are_functors():
    cats = all_vcategories(builtin("c3"), 2)
    x, y = cats[0], cats[-1]
    functors = [
        f for f in itertools.product(range(y.n), repeat=x.n) if check_tvfunctor(f, x, y)["ok"]
    ]
    assert exponential_tvcat(x, y).carrier == functors
