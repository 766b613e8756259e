import itertools
import random

import pytest

from lawcat.errors import BudgetExceeded, GateUnavailable
from lawcat.laxext import LaxExtension, _threshold_extend, check_extension_laws
from lawcat.monad import PowersetMonad, builtin_monad, m_square_gap
from lawcat.quantale import builtin, builtin_quantales
from lawcat.tvcat import (
    Exponential,
    all_tvcategories,
    check_tv_adjunction,
    check_tvbimodule,
    check_tvcategory,
    check_tvfunctor,
    discrete_tvcategory,
    dual_tvcategory,
    em_algebra_category,
    exponential_tvcat,
    exponentiable,
    hom_xi_category,
    is_tvbimodule,
    kleisli_compose,
    kleisli_table,
    tensor_tvcat,
    tvcategory,
    unit_tvcategory,
    yoneda,
    TVCategory,
    _points,
    _transitivity_scan,
)
from lawcat.vmatrix import VMatrix, mcompose, precompose_map, select_cols

from support import (
    check_evaluation_functor,
    closed_sets,
    group_quantale,
    induced_modules,
    is_category,
    join_all,
    oracle_largest_structure,
    reference_all_tvcategories,
    reference_check_tvfunctor,
    reference_tensor_tvcat,
)


def functor_module_equivalence(f, x, y):
    """The three readings of one map: functor, lower module, upper module."""
    fun = check_tvfunctor(f, x, y)["ok"]
    lower, upper = induced_modules(f, x, y)
    low_ok = is_tvbimodule(lower, x, y)
    up_ok = is_tvbimodule(upper, y, x)
    return {
        "functor": fun,
        "lower_bimodule": low_ok,
        "upper_bimodule": up_ok,
        "all_agree": fun == low_ok == up_ok,
    }


def algebra_compose(ext, a0, alpha, n):
    """Composite of a plain square structure with an algebra map, both ways.

    Returns the structure a0 . alpha together with the equivalence data:
    it is a valid enriched structure exactly when alpha respects the
    extended matrix, and both sides are computed independently.
    """
    q = ext.q
    monad = ext.monad
    e = ext.monad.unit_table(n)
    mu = ext.monad.mult_table(n)
    if any(alpha[e[p]] != p for p in range(n)):
        raise ValueError("alpha is not unital")
    talpha = monad.tmap(alpha, monad.size(n), n)
    if any(alpha[talpha[s]] != alpha[mu[s]] for s in range(monad.size(monad.size(n)))):
        raise ValueError("alpha is not associative")
    composite = precompose_map(a0, alpha, monad.size(n))
    is_structure = check_tvcategory(ext, n, composite)["ok"]
    ta0 = ext.extend(a0)
    alpha_functor = all(
        q.leq[ta0.data[s][t]][a0.data[alpha[s]][alpha[t]]]
        for s in range(monad.size(n))
        for t in range(monad.size(n))
    )
    return {
        "structure": composite,
        "is_tvcategory": is_structure,
        "alpha_is_functor": alpha_functor,
        "agree": is_structure == alpha_functor,
    }


def whisker_checks(f, x, y, phi, psi, z):
    """Whiskering of modules along a functor, with the collapsed forms.

    phi: Y -|-> Z and psi: Z -|-> Y are modules; the whiskered composites
    must equal phi . Tf and f-transpose . psi, stay modules, and form an
    adjoint pair whenever (phi, psi) does and the m-square at f is a weak
    pullback (or T1 = 1 at the unit carrier).
    """
    ext = x.ext
    monad = ext.monad
    tf = monad.tmap(f, x.n, y.n)
    w_lower = kleisli_compose(ext, phi, induced_modules(f, x, y)[0], x.n)
    collapsed_lower = precompose_map(phi, tf, monad.size(x.n))
    w_upper = kleisli_compose(ext, induced_modules(f, x, y)[1], psi, z.n)
    collapsed_upper = select_cols(psi, f)
    report = {
        "lower_collapses": w_lower == collapsed_lower,
        "upper_collapses": w_upper == collapsed_upper,
        "lower_is_module": is_tvbimodule(collapsed_lower, x, z),
        "upper_is_module": is_tvbimodule(collapsed_upper, z, x),
        "square_bc": m_square_gap(monad, f, x.n, y.n) is None,
    }
    return report


def check_exponential_maximality(expo):
    """Bump perturbation: raising any structure entry breaks evaluation."""
    x, y = expo.base, expo.target
    q = x.q
    base_data = [list(r) for r in expo.structure.data]
    for s in range(expo.structure.rows):
        for i in range(expo.n):
            cur = base_data[s][i]
            for v in range(q.n):
                if v != cur and q.leq[cur][v]:
                    bumped = [list(r) for r in base_data]
                    bumped[s][i] = v
                    cand = Exponential(
                        x, y, expo.carrier, VMatrix(q, expo.structure.rows, expo.n, bumped)
                    )
                    if check_evaluation_functor(cand)["ok"]:
                        return {"ok": False, "witness": (s, i, q.labels[v])}
    return {"ok": True}


def yoneda0(x):
    """Second Yoneda morphism, into presheaves over the dual.

    Gated on Te . e = m-transpose . e; reports the lower bound everywhere
    and the upper bound at those s whose extended structure is reflexive
    at the unit image.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    e = ext.monad.unit_table(x.n)
    e_t = ext.monad.unit_table(tn)
    te = monad.tmap(e, x.n, tn)
    mu = ext.monad.mult_table(x.n)
    pre_ok = all(
        (mu[big] == e[p]) == (te[e[p]] == big)
        for p in range(x.n)
        for big in range(monad.size(tn))
    )
    if not pre_ok:
        return {"ok": None, "precondition": False}
    xop = dual_tvcategory(x)
    v_cat = hom_xi_category(ext)
    expo = exponential_tvcat(xop, v_cat)
    index = {h: i for i, h in enumerate(expo.carrier)}
    cols = [tuple(x.a.data[s][p] for s in range(tn)) for p in range(x.n)]
    if any(c not in index for c in cols):
        return {"ok": False, "precondition": True, "law": "column-not-presheaf"}
    y0 = [index[c] for c in cols]
    ty0 = monad.tmap(tuple(y0), x.n, expo.n)
    ta = ext.extend(x.a)
    lower_ok = True
    upper_ok = True
    gated = 0
    for s in range(tn):
        row = expo.structure.data[ty0[s]]
        for i, phi in enumerate(expo.carrier):
            if not q.leq[phi[s]][row[i]]:
                lower_ok = False
        if q.leq[q.unit][ta.data[e_t[s]][s]]:
            gated += 1
            for i, phi in enumerate(expo.carrier):
                if not q.leq[row[i]][phi[s]]:
                    upper_ok = False
    return {
        "ok": lower_ok and upper_ok,
        "precondition": True,
        "lower": lower_ok,
        "upper_at_gated": upper_ok,
        "gated_points": gated,
        "presheaf_count": expo.n,
    }


def direct_tvcategory_verdict(ext, n, a):
    """Both axioms cell by cell, on the unreduced extension (no shared rows)."""
    q = ext.q
    e = ext.monad.unit_table(n)
    for x in range(n):
        if not q.leq[q.unit][a.data[e[x]][x]]:
            return {"ok": False, "law": "reflexivity", "witness": (x,)}
    ta = _threshold_extend(ext.monad, q, a)
    mu = ext.monad.mult_table(n)
    for s in range(ta.rows):
        for t in range(ta.cols):
            for x in range(n):
                if not q.leq[q.tensor[ta.data[s][t]][a.data[t][x]]][a.data[mu[s]][x]]:
                    return {"ok": False, "law": "transitivity", "witness": (s, t, x)}
    return {"ok": True}


@pytest.mark.parametrize(
    "mname,qname,n",
    [
        ("powerset", "2", 2),
        ("powerset", "plus3", 2),
        ("powerset", "c3", 2),
        ("powerset", "c4", 2),
        ("id", "c3", 3),
        ("id", "pset2", 3),
        ("ultra", "2", 3),
        ("ultra", "c4", 3),
    ],
)
def test_check_tvcategory_witness_matches_the_reference_scan(mname, qname, n):
    # The image sweep decides the verdict; the s-ordered scan names the
    # witness.  Entries come from a few values, mostly top, so that rows
    # repeat (a proper row quotient) and some structures pass.
    q = builtin(qname)
    monad = builtin_monad(mname)
    tn = monad.size(n)
    e = monad.unit_map(n)
    rng = random.Random(f"{mname}/{qname}/{n}")
    laws = []
    for i in range(300):
        ext = LaxExtension(monad, q)
        values = [q.top] * 3 + rng.sample(range(q.n), rng.randrange(1, q.n + 1))
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(tn)]
        if i % 4:
            for x in range(n):
                rows[e[x]][x] = q.unit
        a = VMatrix(q, tn, n, rows)
        verdict = check_tvcategory(ext, n, a)
        assert verdict == direct_tvcategory_verdict(ext, n, a), rows
        if verdict.get("law") != "reflexivity":
            assert verdict == _transitivity_scan(ext, n, a), rows
        laws.append((verdict.get("law"), len(set(map(tuple, rows))) < tn))
    assert {None, "reflexivity", "transitivity"} <= {law for law, _ in laws}
    assert ("transitivity", True) in laws and (None, True) in laws


@pytest.mark.parametrize("mname", ["id", "ultra"])
@pytest.mark.parametrize("qname", ["2", "c3"])
def test_identity_branch_matches_the_reference_scan(mname, qname):
    # Every matrix on up to 3 points: the identity branch's verdict is the
    # reference's (is_category), and its witness is the first point that
    # is not reflexive, or else _transitivity_scan's.
    q = builtin(qname)
    ext = LaxExtension(builtin_monad(mname), q)
    laws = set()
    for n in range(4):
        for flat in itertools.product(range(q.n), repeat=n * n):
            a = VMatrix(q, n, n, [flat[i * n : (i + 1) * n] for i in range(n)])
            verdict = check_tvcategory(ext, n, a)
            assert verdict["ok"] == is_category(TVCategory(ext, n, a)), flat
            loop = next((p for p in range(n) if a.data[p][p] != q.top), None)
            if loop is None:
                assert verdict == _transitivity_scan(ext, n, a), flat
            else:
                assert verdict == {"ok": False, "law": "reflexivity", "witness": (loop,)}, flat
            laws.add(verdict.get("law"))
    assert laws == {None, "reflexivity", "transitivity"}


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
def test_reflexivity_is_reported_below_the_sweep_budget(mname):
    # Reflexivity is checked before the associativity sweep is charged: a
    # structure that is not reflexive is reported as such under a budget
    # below the sweep, and a reflexive one is refused with the sweep.
    q = builtin("2")
    monad = builtin_monad(mname)
    n = 2
    tn = monad.size(n)
    sweep = monad.size(tn) * tn
    ext = LaxExtension(monad, q, sweep - 1)
    e = monad.unit_map(n)
    rows = [[q.top] * n for _ in range(tn)]
    rows[e[1]][1] = q.bottom
    x = TVCategory(ext, n, VMatrix(q, tn, n, rows))
    assert x.verdict() == {"ok": False, "law": "reflexivity", "witness": (1,)}
    assert x.checked is x.verdict()
    with pytest.raises(BudgetExceeded) as err:
        check_tvcategory(ext, n, VMatrix(q, tn, n, [[q.top] * n for _ in range(tn)]))
    assert (err.value.what, err.value.needed) == ("associativity sweep", sweep)


def test_constructors_carry_the_verdict(ext_factory):
    # tvcategory and all_tvcategories keep the verdict of the check they
    # ran; a bare TVCategory computes it once, on request.
    ext = ext_factory("powerset", "2")
    cats = all_tvcategories(ext, 1)
    assert cats and all(x.checked == {"ok": True} for x in cats)
    x = tvcategory(ext, 1, cats[0].a)
    assert x.checked == {"ok": True}
    bare = TVCategory(ext, 1, cats[0].a)
    assert bare.checked is None
    assert bare.verdict() is bare.verdict() is bare.checked


@pytest.mark.parametrize("qname,sample", [("2", None), ("c3", 400)])
def test_check_tvcategory_matches_direct_loop_over_powerset(qname, sample):
    # A fresh extension per matrix: the memoized, quotient-extended Ta shares
    # its row objects between duplicate rows, which the checker scans once.
    q = builtin(qname)
    monad = PowersetMonad()
    n = 2
    tn = monad.size(n)
    flats = list(itertools.product(range(q.n), repeat=tn * n))
    if sample is not None:
        flats = random.Random(qname).sample(flats, sample)
    e = monad.unit_map(n)
    laws = set()
    shared = 0
    for i, flat in enumerate(flats):
        ext = LaxExtension(monad, q)
        rows = [list(flat[r * n : (r + 1) * n]) for r in range(tn)]
        if i % 4:
            # most matrices made reflexive, so that transitivity is reached
            for x in range(n):
                rows[e[x]][x] = q.unit
        a = VMatrix(q, tn, n, rows)
        verdict = check_tvcategory(ext, n, a)
        assert verdict == direct_tvcategory_verdict(ext, n, a), rows
        laws.add(verdict.get("law"))
        ta = ext.extend(a)
        shared += len({id(row) for row in ta.data}) < ta.rows
    assert laws == {None, "reflexivity", "transitivity"}
    assert shared


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
        m_natural = check_extension_laws(ext, samples=12)["m_natural"]
        strict_functor = ext.q.is_meet_tensor()
        for _ in range(10):
            a = rand_structure(rng, ext, 2)
            b = rand_structure(rng, ext, 2)
            c = rand_structure(rng, ext, 2)
            left = kleisli_compose(ext, c, kleisli_compose(ext, b, a, 2), 2)
            right = kleisli_compose(ext, kleisli_compose(ext, c, b, 2), a, 2)
            if strict_functor:
                assert left.le(right)
            if m_natural:
                assert right.le(left)


def fibre_loop_compose(ext, b, a, n_src):
    """kleisli_compose as it joined Ta's rows over each m-fibre inside
    its own loop, tensoring every row of the fibre with b."""
    q = ext.q
    monad = ext.monad
    ta = ext.extend(a)
    fibers = ext.monad.mult_fibers(n_src)
    tny = monad.size(a.cols)
    bot = q.bottom
    out = []
    for s in range(monad.size(n_src)):
        row = [bot] * b.cols
        for big in fibers[s]:
            trow = ta.data[big]
            for t in range(tny):
                u = trow[t]
                if u == bot:
                    continue
                brow = b.data[t]
                for z in range(b.cols):
                    v = q.tensor[u][brow[z]]
                    if v != bot:
                        row[z] = q.join_t[row[z]][v]
        out.append(tuple(row))
    return VMatrix(q, monad.size(n_src), b.cols, out)


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
@pytest.mark.parametrize("qname", ["2", "c3", "plus3"])
def test_kleisli_compose_matches_the_fibre_loop(ext_factory, mname, qname):
    # composing b with the joined fibre rows is exact: the tensor
    # distributes over joins
    ext = ext_factory(mname, qname)
    q = ext.q
    monad = ext.monad
    rng = random.Random(f"kleisli/{mname}/{qname}")

    def rand(rows, cols):
        return VMatrix(q, rows, cols, [[rng.randrange(q.n) for _ in range(cols)] for _ in range(rows)])

    shapes = [(n_src, ny, nz) for n_src in (0, 1, 2) for ny in (0, 1, 2) for nz in (0, 1, 3)]
    for n_src, ny, nz in shapes:
        for _ in range(4):
            a = rand(monad.size(n_src), ny)
            b = rand(monad.size(ny), nz)
            assert kleisli_compose(ext, b, a, n_src) == fibre_loop_compose(ext, b, a, n_src)
    with pytest.raises(ValueError, match="kleisli shapes do not line up"):
        kleisli_compose(ext, rand(monad.size(2) + 1, 1), rand(monad.size(1), 2), 1)


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
@pytest.mark.parametrize("qname", ["2", "c3", "plus3"])
def test_functor_and_tensor_match_their_cell_by_cell_references(ext_factory, mname, qname):
    # check_tvfunctor and tensor_tvcat read the tables; the references read
    # V through q.le and q.tens.  Random structures fail early and late,
    # an all-top target and the identity into the structure itself pass.
    ext = ext_factory(mname, qname)
    q = ext.q
    monad = ext.monad
    rng = random.Random(f"functor/{mname}/{qname}")

    def structure(n, value=None):
        tn = monad.size(n)
        rows = [[rng.randrange(q.n) if value is None else value for _ in range(n)] for _ in range(tn)]
        return TVCategory(ext, n, VMatrix(q, tn, n, rows))

    for nx, ny in itertools.product((0, 1, 2), repeat=2):
        for _ in range(4):
            x = structure(nx)
            for y in (structure(ny), structure(ny, q.top)) + ((x,) if nx == ny else ()):
                for f in itertools.product(range(ny), repeat=nx):
                    assert check_tvfunctor(f, x, y) == reference_check_tvfunctor(f, x, y)
                built, reference = tensor_tvcat(x, y), reference_tensor_tvcat(x, y)
                assert (built.n, built.name, built.a) == (reference.n, reference.name, reference.a)
                assert type(built.a.data) is tuple and all(type(row) is tuple for row in built.a.data)
        assert check_tvfunctor(tuple(range(nx)), x, x) == {"ok": True}


def test_points_reads_the_set_bits_lowest_first():
    for mask in range(1 << 10):
        assert _points(mask) == tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
@pytest.mark.parametrize("qname", ["2", "c3"])
def test_kleisli_table_matches_the_join_formula(ext_factory, mname, qname):
    ext = ext_factory(mname, qname)
    q = ext.q
    for n in (0, 1, 2):
        tn = ext.monad.size(n)
        fibers = [[big for big, s in enumerate(ext.monad.mult_table(n)) if s == small] for small in range(tn)]
        for x in all_tvcategories(ext, n):
            ta = ext.extend(x.a).data
            joined = [[join_all(q, (ta[big][t] for big in fibers[s])) for t in range(tn)] for s in range(tn)]
            assert [list(row) for row in kleisli_table(x)] == joined, x.a.data


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
                ext.q.leq[ext.q.unit][y.a.data[ext.monad.unit_table(2)[p]][p]]
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
                    if not (is_tvbimodule(phi, y, z) and is_tvbimodule(psi, z, y)):
                        continue
                    rep = whisker_checks(f, x, y, phi, psi, z)
                    assert rep["lower_collapses"] and rep["upper_collapses"]
                    assert rep["lower_is_module"] and rep["upper_is_module"]
                    if rep["square_bc"] and check_tv_adjunction(ext, phi, psi, z, y)["is_adjoint"]:
                        w_lower, _ = induced_modules(f, x, y)
                        tf = ext.monad.tmap(f, 2, 2)
                        low = precompose_map(phi, tf, ext.monad.size(2))
                        up = select_cols(psi, f)
                        assert check_tv_adjunction(ext, low, up, z, x)["is_adjoint"]


def test_bimodule_double_functor_characterization(ext_factory):
    for mname, qname, rounds in (("ultra", "2", 40), ("id", "c3", 40), ("powerset", "2", 8)):
        ext = ext_factory(mname, qname)
        m_natural = check_extension_laws(ext, samples=12)["m_natural"]
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
            if m_natural:
                assert rep["agree"], (mname, qname, x.a.data, y.a.data, psi.data)


def test_subset_indicators_as_modules_match_closedness(ext_factory):
    # rows from the point pick out exactly the closed sets; columns to the
    # point pick out their specialization-up-closed counterparts
    ext = ext_factory("ultra", "2")
    q = ext.q
    from lawcat.instances import FinitePreorder, tvcategory_from_space
    from lawcat.tvcat import is_tvbimodule

    for pairs in ([(0, 1)], [], [(0, 1), (1, 0)], [(1, 0)]):
        order = FinitePreorder.from_pairs(2, pairs)
        cat = tvcategory_from_space(ext, order)
        point = unit_tvcategory(ext)
        closed = {tuple(sorted(c)) for c in closed_sets(order)}
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
            tm = monad.tmap(ext.monad.mult_table(n), monad.size(monad.size(n)), monad.size(n))
            step = postcompose_map(tm, monad.size(monad.size(n)), t2a_t)
            oracle = select_cols(step, ext.monad.unit_table(monad.size(n)))
            assert dual_tvcategory(cat).a == oracle


def test_dual_collapses_for_identity_monad(ext_factory):
    ext = ext_factory("id", "pset2")
    for cat in all_tvcategories(ext, 2)[:12]:
        assert dual_tvcategory(cat).a == cat.a.transpose()


def test_hom_xi_category_all_pairs(ext_factory):
    for mname in ("id", "powerset", "ultra"):
        for qname in ("2", "c3", "plus3", "pset2"):
            ext = ext_factory(mname, qname)
            assert hom_xi_category(ext).verdict()["ok"], (mname, qname)


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
    # any unital associative algebra map gives a valid structure: unit
    # exactly on its graph
    ext = ext_factory("powerset", "c3")
    alpha = tuple(max((x for x in range(2) if mask & (1 << x)), default=0) for mask in range(4))
    cat = tvcategory(ext, 2, VMatrix.from_map(ext.q, alpha, ext.monad.size(2), 2))
    assert check_tvcategory(ext, 2, cat.a)["ok"]
    em = em_algebra_category(ext, 2)
    mult = VMatrix.from_map(ext.q, ext.monad.mult_table(2), ext.monad.size(em.n), em.n)
    assert tvcategory(ext, em.n, mult).a == em.a


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
        tens = tensor_tvcat(x, x)
        assert check_tvcategory(ext, tens.n, tens.a)["ok"]


def test_exponential_precondition_on_free_algebras(ext_factory):
    for mname in ("id", "ultra", "powerset"):
        ext = ext_factory(mname, "2")
        assert exponentiable(em_algebra_category(ext, 2))


def test_evaluation_check_matches_the_functor_check_on_the_tensor(ext_factory):
    # The reference builds the tensor category and checks evaluation as a
    # functor out of it: same verdict, same witness.
    verdicts = set()
    for mname, qname in (("ultra", "2"), ("id", "c3"), ("powerset", "2")):
        ext = ext_factory(mname, qname)
        q = ext.q
        cats = all_tvcategories(ext, 2)
        rng = random.Random(f"{mname}/{qname}")
        bases = [x for x in cats if exponentiable(x)]
        for x, y in itertools.islice(itertools.product(bases, cats), 12):
            expo = exponential_tvcat(x, y)
            ev = tuple(expo.carrier[i][p] for p in range(x.n) for i in range(expo.n))
            rows, cols = expo.structure.rows, expo.n
            for trial in range(20):
                cand = expo.structure
                if trial:
                    cand = VMatrix(
                        q, rows, cols,
                        [[rng.randrange(q.n) for _ in range(cols)] for _ in range(rows)],
                    )
                cand = Exponential(x, y, expo.carrier, cand)
                reference = check_tvfunctor(ev, tensor_tvcat(x, cand.category()), y)
                assert check_evaluation_functor(cand) == reference
                verdicts.add(reference["ok"])
    assert verdicts == {True, False}


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
            assert (expo.structure.data[i][j] == q.unit) == q.leq[f[0]][g[0]]


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
            not (chain.a.data[x][y] == q.unit) or q.leq[phi[y]][phi[x]]
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


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
@pytest.mark.parametrize("qname", ["2", "c3"])
def test_order_structures_carry_the_checked_verdict(ext_factory, mname, qname):
    from lawcat.instances import enumerate_preorders
    from lawcat.tvcat import order_tvcategory

    ext = ext_factory(mname, qname)
    for n in range(5):
        for p in enumerate_preorders(n):
            cat = order_tvcategory(ext, p)
            if mname == "powerset":
                assert cat.checked is None
            else:
                assert cat.checked == check_tvcategory(ext, n, cat.a) == {"ok": True}


# References: the four preorder-to-structure constructions as they were
# written before order_tvcategory owned them.


def _discrete_reference(ext, n):
    q = ext.q
    e = ext.monad.unit_table(n)
    tn = ext.monad.size(n)
    data = tuple(
        tuple(q.unit if e[x] == s else q.bottom for x in range(n)) for s in range(tn)
    )
    return TVCategory(ext, n, VMatrix(q, tn, n, data), name=f"discrete{n}")


def _kernel_reference(ext, f, n_src):
    q = ext.q
    tn = ext.monad.size(n_src)
    e = ext.monad.unit_table(n_src)
    data = [[q.bottom] * n_src for _ in range(tn)]
    for p in range(n_src):
        for p2 in range(n_src):
            if f[p] == f[p2]:
                data[e[p]][p2] = q.unit
    return TVCategory(ext, n_src, VMatrix(q, tn, n_src, data), name="kernel")


def _space_reference(ext, order):
    n = order.n
    if ext.monad.size(n) != n:
        raise GateUnavailable("principal carriers", "space bridge needs TX = X")
    data = tuple(
        tuple(ext.q.unit if order.leq[y][x] else ext.q.bottom for y in range(n))
        for x in range(n)
    )
    return TVCategory(ext, n, VMatrix(ext.q, n, n, data), name="space")


def _suite_reference(ext, p):
    return TVCategory(ext, p.n, VMatrix(ext.q, p.n, p.n, [
        [ext.q.unit if p.leq[x][y] else ext.q.bottom for y in range(p.n)]
        for x in range(p.n)
    ]))


def _same(cat, ref):
    return (cat.ext, cat.n, cat.a, cat.name) == (ref.ext, ref.n, ref.a, ref.name)


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
@pytest.mark.parametrize("qname", ["2", "c3"])
def test_order_tvcategory_matches_the_four_constructions(ext_factory, mname, qname):
    from lawcat.completeness import ord_section_extract
    from lawcat.instances import FinitePreorder, enumerate_preorders, tvcategory_from_space
    from lawcat.tvcat import order_tvcategory

    ext = ext_factory(mname, qname)
    compared = {"discrete": 0, "kernel": 0, "space": 0, "suite": 0}
    for n in range(4):
        assert _same(discrete_tvcategory(ext, n), _discrete_reference(ext, n))
        compared["discrete"] += 1
        for p in enumerate_preorders(n):
            leq = p.leq
            if all(leq[x][y] == leq[y][x] for x in range(n) for y in range(n)):
                # an equivalence: the kernel of its class map
                f = [next(c for c in range(n) if leq[x][c]) for x in range(n)]
                assert _same(order_tvcategory(ext, p, name="kernel"), _kernel_reference(ext, f, n))
                compared["kernel"] += 1
            transposed = [[leq[y][x] for y in range(n)] for x in range(n)]
            space = FinitePreorder(n, transposed)
            if ext.monad.size(n) != n:
                with pytest.raises(GateUnavailable):
                    tvcategory_from_space(ext, space)
                with pytest.raises(GateUnavailable):
                    _space_reference(ext, space)
                continue
            assert _same(tvcategory_from_space(ext, space), _space_reference(ext, space))
            assert _same(order_tvcategory(ext, p), _suite_reference(ext, p))
            compared["space"] += 1
            compared["suite"] += 1
    assert compared["discrete"] == 4 and compared["kernel"] == 1 + 1 + 2 + 5
    assert compared["space"] == (0 if mname == "powerset" else 1 + 1 + 4 + 29)
    if mname == "id":
        assert ord_section_extract(ext, (0, 1, 1, 0), 4, 2) == (0, 1)


def test_each_kept_value_lives_with_the_object_it_depends_on():
    # Yoneda data and both bimodule routes for every (id, 2)-category on at
    # most 2 points, through one extension: its cache holds only values of
    # the pair itself, while each category keeps its own dual and the
    # monad its tables and projections.
    ext = LaxExtension(builtin_monad("id"), builtin("2"))
    cats = [x for n in range(3) for x in all_tvcategories(ext, n)]
    for x in cats:
        yoneda(x)
        check_tvbimodule(x.a, x, x)
        assert dual_tvcategory(x) is dual_tvcategory(x)
    ext.capabilities()
    pair = {("xi",), ("xi_compat",), ("capabilities",), ("unit",), ("homxi",)}
    sized = {(key, n) for key in ("em", "presheaves") for n in range(3)}
    assert set(ext.cache) == pair | sized
    assert ("projections", 2, 2) in ext.monad._tables


@pytest.mark.parametrize("qname", [*sorted(builtin_quantales()), "z3"])
@pytest.mark.parametrize("mname", ["id", "ultra"])
def test_backtracked_categories_match_the_filter(mname, qname):
    # all_tvcategories backtracks over id and ultra; the filter runs every
    # matrix through check_tvcategory: same structures, same order, same
    # verdicts, on up to 2 points, and on 3 where |V|^9 is at most 3 10^5.
    # z3's unit is below its top, so a(p, p) (x) a(p, s) <= a(p, s) is not
    # implied by reflexivity there, as it is over every built-in V.
    q = group_quantale() if qname == "z3" else builtin(qname)
    for n in range(4 if q.n**9 <= 300_000 else 3):
        ext = LaxExtension(builtin_monad(mname), q)
        got = [(x.ext, x.n, x.a, x.name, x.checked) for x in all_tvcategories(ext, n)]
        expected = [(x.ext, x.n, x.a, x.name, x.checked) for x in reference_all_tvcategories(ext, n)]
        assert got == expected, (n, len(got), len(expected))


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
def test_the_structure_space_refusal_keeps_its_text(mname):
    q = builtin("c3")
    monad = builtin_monad(mname)
    for n in (1, 2):
        count = q.n ** (monad.size(n) * n)
        with pytest.raises(BudgetExceeded) as err:
            all_tvcategories(LaxExtension(monad, q, count - 1), n)
        assert str(err.value) == f"structure space: needs {count} candidates, budget is {count - 1}"
        ext = LaxExtension(monad, q, count)
        assert len(all_tvcategories(ext, n)) == len(reference_all_tvcategories(ext, n))


@pytest.mark.parametrize("mname, qname", [("id", "2"), ("id", "c3"), ("ultra", "2")])
def test_one_presheaf_space_per_extension_gives_what_a_fresh_one_gives(mname, qname):
    # yoneda keeps V^{|X|} under ("presheaves", n): through one extension
    # every category reads the same report as on an extension of its own
    shared = LaxExtension(builtin_monad(mname), builtin(qname))
    for n in range(3):
        for x in all_tvcategories(shared, n):
            alone = TVCategory(LaxExtension(builtin_monad(mname), builtin(qname)), n, x.a)
            assert yoneda(x) == yoneda(alone)
        assert ("presheaves", n) in shared.cache
