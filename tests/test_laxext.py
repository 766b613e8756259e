import ast
import functools
import gc
import importlib
import inspect
import itertools
import pathlib
import random
import threading
import weakref

import pytest

from lawcat import laxext
from lawcat.errors import BudgetExceeded, GateUnavailable
from lawcat.laxext import (
    LaxExtension,
    _threshold_extend,
    check_extension_laws,
    check_xi,
    check_xi_compat,
    check_xi_functor,
)
from lawcat.monad import PowersetMonad, builtin_monad, monad_capabilities
from lawcat.quantale import Quantale, builtin, builtin_quantales, validate_quantale
from lawcat.tvcat import hom_xi_category
from lawcat.vmatrix import VMatrix

from support import (
    check_embeds_maps,
    oracle_largest_structure,
    principal_ultrafilter,
    reference_functor_bc,
    reference_hom_laws,
    reference_span_algebra_diagram,
)

PAIRS = [(m, q) for m in ("id", "powerset", "ultra") for q in ("2", "c3", "plus3", "pset2")]


def rand_matrix(rng, q, rows, cols):
    return VMatrix(q, rows, cols, [[rng.randrange(q.n) for _ in range(cols)] for _ in range(rows)])


def test_identity_monad_extension_is_identity(ext_factory):
    ext = ext_factory("id", "c3")
    rng = random.Random(2)
    for _ in range(20):
        r = rand_matrix(rng, ext.q, 2, 3)
        assert ext.extend(r) == r


def test_powerset_extension_is_egli_milner_lifting(ext_factory):
    # oracle: subsets of the graph, projected on both sides
    ext = ext_factory("powerset", "2")
    q = ext.q
    rng = random.Random(3)
    for _ in range(30):
        r = rand_matrix(rng, q, 2, 2)
        tr = ext.extend(r)
        rel = [(x, y) for x in range(2) for y in range(2) if r.data[x][y] == q.unit]
        expected = set()
        for mask in range(1 << len(rel)):
            chosen = [rel[i] for i in range(len(rel)) if mask & (1 << i)]
            a = 0
            b = 0
            for (x, y) in chosen:
                a |= 1 << x
                b |= 1 << y
            expected.add((a, b))
        for i in range(4):
            for j in range(4):
                assert (tr.data[i][j] == q.unit) == ((i, j) in expected)


def test_ultra_extension_on_principal_points(ext_factory):
    # the infimum-supremum description over filter members collapses to r
    ext = ext_factory("ultra", "c3")
    q = ext.q
    rng = random.Random(4)
    for _ in range(20):
        r = rand_matrix(rng, q, 3, 2)
        tr = ext.extend(r)
        for x in range(3):
            for y in range(2):
                acc = q.top
                for a in principal_ultrafilter(3, x):
                    for b in principal_ultrafilter(2, y):
                        best = q.bottom
                        for xx in a:
                            for yy in b:
                                best = q.join_t[best][r.data[xx][yy]]
                        acc = q.meet_t[acc][best]
                assert tr.data[x][y] == r.data[x][y] == acc


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_extension_laws(ext_factory, mname, qname):
    ext = ext_factory(mname, qname)
    laws = check_extension_laws(ext, samples=20)
    assert laws["ok"], {k: laws[k] for k in "abcdefg"}
    assert laws["f"]["applicable"] == ext.q.is_meet_tensor()
    assert laws["m_natural"]
    assert laws["e"]["skipped"] == 0


def test_law_e_budget_skips_withhold_m_natural(monads, quantales):
    ext = LaxExtension(monads["powerset"], quantales["c3"], max_enum=100)
    laws = check_extension_laws(ext, samples=34)
    assert laws["e"]["checked"] == 28
    assert laws["e"]["skipped"] == 6
    assert not laws["m_natural"]


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_extension_acts_as_functor_on_maps(ext_factory, mname, qname):
    assert check_embeds_maps(ext_factory(mname, qname))["ok"]


def test_xi_identity_monad_is_identity(ext_factory):
    ext = ext_factory("id", "plus3")
    assert ext.xi() == tuple(range(ext.q.n))


def test_xi_powerset_is_meet(ext_factory):
    # oracle scans all thresholds directly on the defining formula
    ext = ext_factory("powerset", "c3")
    q = ext.q
    xi = ext.xi()
    for mask in range(1 << q.n):
        members = [v for v in range(q.n) if mask & (1 << v)]
        meet = q.top
        for v in members:
            meet = q.meet_t[meet][v]
        assert xi[mask] == meet


def test_xi_ultra_is_principal_point(ext_factory):
    ext = ext_factory("ultra", "pset2")
    assert ext.xi() == tuple(range(ext.q.n))


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_xi_em_laws_and_element_matrix_link(ext_factory, mname, qname):
    assert check_xi(ext_factory(mname, qname))["ok"]


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_xi_is_structure_preserving(ext_factory, mname, qname):
    assert check_xi_functor(ext_factory(mname, qname))["ok"]


def reference_check_xi(ext):
    """check_xi as the library wrote it cell by cell through q.le, with
    the multiplication law scanned over all of T^2(V)."""
    q, monad, xi = ext.q, ext.monad, ext.xi()
    n = q.n
    tn = monad.size(n)
    for u in range(n):
        if xi[monad.unit_map(n)[u]] != u:
            return {"ok": False, "law": "xi-unit", "witness": q.labels[u]}
    mu = monad.mult_map(n)
    txi = monad.tmap(xi, tn, n)
    for big in range(monad.size(tn)):
        if xi[mu[big]] != xi[txi[big]]:
            return {"ok": False, "law": "xi-mult", "witness": big}
    ti = ext.extend(VMatrix(q, 1, n, (tuple(range(n)),)))
    tq_map = monad.tmap((0,) * n, n, 1)
    for y in range(tn):
        if ti.data[tq_map[y]][y] != xi[y]:
            return {"ok": False, "law": "xi-Ti-link", "witness": y}
        for x in range(monad.size(1)):
            if not q.leq[ti.data[x][y]][xi[y]]:
                return {"ok": False, "law": "xi-Ti-bound", "witness": (x, y)}
    return {"ok": True}


def reference_xi_functor_failures(ext):
    """check_xi_functor's failures, cell by cell through q.le and the hom table."""
    q, xi = ext.q, ext.xi()
    thom = ext.extend(VMatrix(q, q.n, q.n, q.hom_t))
    tn = ext.monad.size(q.n)
    return [
        (x, y)
        for x in range(tn)
        for y in range(tn)
        if not q.leq[thom.data[x][y]][q.hom_t[xi[x]][xi[y]]]
    ]


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_xi_checks_match_their_references_on_altered_tables(monads, quantales, mname, qname):
    # the algebra table as built, changed at one entry, and drawn at random
    monad, q = monads[mname], quantales[qname]
    good = LaxExtension(monad, q).xi()
    rng = random.Random(f"xi/{mname}/{qname}")
    tables = [good]
    for _ in range(6):
        bad = list(good)
        bad[rng.randrange(len(bad))] = rng.randrange(q.n)
        tables.append(tuple(bad))
    tables += [tuple(rng.randrange(q.n) for _ in good) for _ in range(3)]
    for xi in tables:
        ext = LaxExtension(monad, q)
        ext.cache[("xi",)] = xi
        assert check_xi(ext) == reference_check_xi(ext)
        failures = reference_xi_functor_failures(ext)
        assert check_xi_functor(ext) == {"ok": not failures, "failures": failures}


class AlteredTi(LaxExtension):
    """An extension whose T(i), the extension of the 1 x n matrix
    (0, ..., n-1), has each cell of changes set to its value."""

    def __init__(self, monad, q, changes):
        super().__init__(monad, q)
        self.changes = changes

    def extend(self, m):
        out = super().extend(m)
        if m.rows == 1 and m.data == (tuple(range(self.q.n)),):
            rows = [list(row) for row in out.data]
            for (x, y), v in self.changes.items():
                rows[x][y] = v
            out = VMatrix(self.q, out.rows, out.cols, rows)
        return out


@pytest.mark.parametrize("mname", ["powerset", "id"])
@pytest.mark.parametrize("qname", ["2", "c3", "plus3", "pset2"])
def test_xi_ti_checks_match_the_reference_on_altered_extensions(monads, quantales, mname, qname):
    # one or two cells of T(i) changed at random; over the identity monad
    # T(1) has one row, the link row, so only the link law can fail there
    monad, q = monads[mname], quantales[qname]
    ti = LaxExtension(monad, q).extend(VMatrix(q, 1, q.n, (tuple(range(q.n)),))).data
    cells = list(itertools.product(range(len(ti)), range(len(ti[0]))))
    rng = random.Random(f"ti/{mname}/{qname}")
    laws = []
    for _ in range(40):
        changes = {cell: rng.randrange(q.n) for cell in rng.sample(cells, rng.randint(1, 2))}
        ext = AlteredTi(monad, q, changes)
        verdict = check_xi(ext)
        assert verdict == reference_check_xi(ext), changes
        laws.append(verdict.get("law"))
    assert set(laws) == ({None, "xi-Ti-link", "xi-Ti-bound"} if mname == "powerset" else {None, "xi-Ti-link"})


@pytest.mark.parametrize("qname", ["2", "c3", "plus3", "pset2"])
def test_xi_ti_bound_is_checked_at_the_empty_set(monads, quantales, qname):
    # The join of each subset is an algebra for the powerset monad too, with
    # xi(empty) = bottom where the built xi has top.  T(i) set to it on the
    # link cells passes; raised to top at ({0}, empty) it fails the bound
    # there and nowhere else.
    monad, q = monads["powerset"], quantales[qname]
    join_xi = tuple(
        functools.reduce(lambda u, b: q.join_t[u][b], (b for b in range(q.n) if s >> b & 1), q.bottom)
        for s in range(monad.size(q.n))
    )
    tq = monad.tmap((0,) * q.n, q.n, 1)
    link = {(t, y): v for y, (t, v) in enumerate(zip(tq, join_xi))}
    for changes, expected in (
        (link, {"ok": True}),
        ({**link, (1, 0): q.top}, {"ok": False, "law": "xi-Ti-bound", "witness": (1, 0)}),
    ):
        ext = AlteredTi(monad, q, changes)
        ext.cache[("xi",)] = join_xi
        assert check_xi(ext) == reference_check_xi(ext) == expected


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_xi_compat_report(ext_factory, mname, qname):
    ext = ext_factory(mname, qname)
    rep = check_xi_compat(ext)
    assert rep["unit_inequality"]
    assert rep["tensor_inequality"]
    assert reference_span_algebra_diagram(ext, samples=12)["span_algebra_diagram"]
    hom = reference_hom_laws(ext)
    assert all(hom["hom_preserves_nonempty_sups"].values())
    assert all(hom["hom_xi_inequality"].values())


def _tensor_flags_by_scan(ext):
    """Reference for check_xi_compat's tensor flags: every element of T(V x V)."""
    q, monad, xi = ext.q, ext.monad, ext.xi()
    n = q.n
    tpi1 = monad.tmap(tuple(u for u in range(n) for _ in range(n)), n * n, n)
    tpi2 = monad.tmap(tuple(v for _ in range(n) for v in range(n)), n * n, n)
    ttens = monad.tmap(tuple(q.tensor[u][v] for u in range(n) for v in range(n)), n * n, n)
    pairs = [(q.tensor[xi[tpi1[w]]][xi[tpi2[w]]], xi[ttens[w]]) for w in range(monad.size(n * n))]
    return all(q.leq[lhs][rhs] for lhs, rhs in pairs), all(lhs == rhs for lhs, rhs in pairs)


@pytest.mark.parametrize("mname,qname", PAIRS)
def test_xi_compat_tensor_flags_match_full_scan(monads, quantales, mname, qname):
    ext = LaxExtension(monads[mname], quantales[qname])
    report = check_xi_compat(ext)
    assert (report["tensor_inequality"], report["tensor_strict"]) == _tensor_flags_by_scan(ext)


def test_xi_compat_tensor_flags_after_an_early_stop(monads, quantales):
    # A table that breaks the inequality, so the loop stops early: over
    # pset2 two nonempty disjoint sets meet in bottom, sent below top.
    q = quantales["pset2"]
    broken = LaxExtension(monads["id"], q)
    broken.cache[("xi",)] = tuple(q.bottom if v == q.bottom else q.top for v in range(q.n))
    report = check_xi_compat(broken)
    assert (report["tensor_inequality"], report["tensor_strict"]) == _tensor_flags_by_scan(broken)
    assert not report["tensor_inequality"]


def test_tensor_strictness_fails_exactly_for_powerset_plus_chain(ext_factory):
    flags = {}
    for mname, qname in PAIRS:
        flags[(mname, qname)] = check_xi_compat(ext_factory(mname, qname))["tensor_strict"]
    for key, flag in flags.items():
        assert flag == (key != ("powerset", "plus3")), (key, flag)


def test_xi_compat_extends_no_matrix(monkeypatch):
    # the report reads xi and the monad's tables; the span/algebra diagram,
    # which extends sampled matrices, is checked by the tests only
    from lawcat.suite import SMALL_QUANTALES

    def refuse(self, m):
        raise AssertionError("extend called")

    monkeypatch.setattr(LaxExtension, "extend", refuse)
    for mname in ("id", "powerset", "ultra"):
        for qname in SMALL_QUANTALES:
            ext = LaxExtension(builtin_monad(mname), builtin(qname))
            assert check_xi_compat(ext)["tensor_inequality"]


def test_the_laws_only_the_tests_read_hold_where_the_suite_checked_them():
    # every combo of the xi-algebra item: the span/algebra diagram at the
    # 8 samples from seed 0 and the hom laws that check_xi_compat reported
    # there, and the functor's Beck-Chevalley sweep at the size
    # monad_capabilities sweeps m to, and over powerset one size up
    from lawcat.suite import SMALL_QUANTALES

    for mname in ("id", "powerset", "ultra"):
        monad = builtin_monad(mname)
        for qname in SMALL_QUANTALES:
            ext = LaxExtension(monad, builtin(qname))
            diagram = reference_span_algebra_diagram(ext, samples=8, seed=0)
            assert diagram == {"span_algebra_diagram": True, "span_algebra_witness": None}
            hom = reference_hom_laws(ext)
            assert all(hom["hom_preserves_nonempty_sups"].values()), (mname, qname)
            assert all(hom["hom_xi_inequality"].values()), (mname, qname)
        sizes = {monad_capabilities(monad)["bc_max_n"]}
        if mname == "powerset":
            sizes.add(3)
        for max_n in sizes:
            functor = reference_functor_bc(monad, max_n)
            assert functor == {"functor_bc": True, "functor_witness": None}, (mname, max_n)


def _zmod2_quantale():
    labels = ("{}", "{e}", "{g}", "{e,g}")
    leq = [[(i & j) == i for j in range(4)] for i in range(4)]

    def prod(i, j):
        out = 0
        for a in range(2):
            for b in range(2):
                if i & (1 << a) and j & (1 << b):
                    out |= 1 << (a ^ b)
        return out

    tensor = [[prod(i, j) for j in range(4)] for i in range(4)]
    q = Quantale("zmod2", labels, leq, tensor, unit=1)
    assert validate_quantale(q)["ok"]
    return q


def test_admissibility_refusal(monads):
    # nonempty empty-carrier image plus a unit strictly below the top
    q = _zmod2_quantale()
    with pytest.raises(GateUnavailable):
        LaxExtension(monads["powerset"], q)
    LaxExtension(monads["id"], q)
    LaxExtension(monads["ultra"], q)


def test_memoization_returns_identical_object(ext_factory):
    ext = ext_factory("powerset", "2")
    r = VMatrix(ext.q, 2, 2, ((0, 1), (1, 0)))
    assert ext.extend(r) is ext.extend(VMatrix(ext.q, 2, 2, ((0, 1), (1, 0))))


def test_extensions_of_one_pair_share_the_memo(monads, quantales, validated_copy):
    # the memo belongs to the quantale, one per monad; cache stays per instance
    powerset = monads["powerset"]
    q = validated_copy(quantales["c3"])
    first, second = LaxExtension(powerset, q), LaxExtension(powerset, q, max_enum=64)
    assert first._memo is second._memo is q.extension_memos[powerset]
    assert first.cache is not second.cache
    for data in (((2, 0), (0, 1)), ((0, 1), (1, 2)), ((0,), (2,))):
        m = VMatrix(q, len(data), len(data[0]), data)
        assert second.extend(VMatrix(q, m.rows, m.cols, data)) is first.extend(m)
    # over the ultrafilter monad the memo is never written
    assert LaxExtension(monads["ultra"], q).extend(m) is m
    assert not q.extension_memos[monads["ultra"]]


def test_an_extend_memo_is_built_only_when_missing(monads, quantales, validated_copy, monkeypatch):
    import lawcat.laxext

    built = []

    class Counted(lawcat.laxext.BoundedStore):
        def __init__(self, limit, measure):
            super().__init__(limit, measure)
            built.append(self)

    monkeypatch.setattr(lawcat.laxext, "BoundedStore", Counted)
    powerset = monads["powerset"]
    q = validated_copy(quantales["c3"])
    first, second = LaxExtension(powerset, q), LaxExtension(powerset, q)
    assert len(built) == 1
    assert first._memo is second._memo is built[0]


def test_a_validated_copy_has_a_memo_of_its_own(monads, quantales, validated_copy):
    powerset = monads["powerset"]
    q = quantales["c3"]
    copy = validated_copy(q)
    assert copy.extension_memos == {}
    data = ((1, 0), (0, 2))
    ours = LaxExtension(powerset, copy).extend(VMatrix(copy, 2, 2, data))
    assert copy.extension_memos[powerset] is not q.extension_memos.get(powerset)
    theirs = LaxExtension(powerset, q).extend(VMatrix(q, 2, 2, data))
    assert ours is not theirs and ours.data == theirs.data
    assert ours.q is copy and theirs.q is q


def test_the_memo_is_freed_with_its_quantale(monads, quantales, validated_copy):
    # quantale -> memo -> VMatrix -> quantale is a cycle that gc collects
    q = validated_copy(quantales["c3"])
    ext = LaxExtension(monads["powerset"], q)
    ext.extend(VMatrix(q, 2, 2, ((2, 0), (0, 1))))
    assert q.extension_memos[monads["powerset"]]
    alive = weakref.ref(q)
    del q, ext
    gc.collect()
    assert alive() is None


def _memo_cells(memo):
    return sum(value.rows * value.cols for value in memo.values())


def test_the_memo_is_bounded_in_cells(monads, quantales, validated_copy, monkeypatch):
    monkeypatch.setattr(laxext, "MEMO_CELLS", 200)
    monad = monads["powerset"]
    q = validated_copy(quantales["c3"])
    ext = LaxExtension(monad, q)
    rng = random.Random("memo-cells")
    stored = []
    for _ in range(200):
        m = rand_matrix(rng, q, rng.randrange(1, 5), rng.randrange(1, 4))
        before = list(ext._memo)
        assert ext.extend(m) == _threshold_extend(monad, q, m), m.data
        assert ext._memo.size == _memo_cells(ext._memo) <= 200
        stored += [key for key in ext._memo if key not in before]
    # the oldest entries went first: what is left is the last stored
    assert len(stored) > len(ext._memo) and list(ext._memo) == stored[-len(ext._memo):]


def test_large_extensions_stay_out_of_a_builtin_memo(monads, quantales):
    # over a built-in quantale, which lives as long as the process, the
    # memo retains at most MEMO_CELLS cells however large the extensions
    monad = monads["powerset"]
    q = quantales["c4"]
    ext = LaxExtension(monad, q)
    memo = ext._memo
    rng = random.Random("memo-large")
    # extensions of 512 x 128, 256 x 128 (the whole budget), then 64 x 64
    # to 256 x 64 cells
    for rows, cols in ((9, 7), (8, 7), (6, 6), (7, 6), (6, 7), (8, 6), (6, 8)):
        m = rand_matrix(rng, q, rows, cols)
        assert ext.extend(m) == _threshold_extend(monad, q, m)
        assert memo.size == _memo_cells(memo) <= laxext.MEMO_CELLS
    # the largest was never stored, and the one that filled the budget was
    # evicted by the later ones
    assert max(value.rows * value.cols for value in memo.values()) < laxext.MEMO_CELLS


def test_threads_share_one_bounded_memo(monads, quantales, validated_copy, monkeypatch):
    # threads extending over one small memo get exact results, and the
    # memo's count of cells stays exact and within the budget
    monkeypatch.setattr(laxext, "MEMO_CELLS", 100)
    monad = monads["powerset"]
    q = validated_copy(quantales["c3"])
    errors, checked = [], []

    def work(seed):
        rng = random.Random(seed)
        ext = LaxExtension(monad, q)
        try:
            for _ in range(500):
                m = rand_matrix(rng, q, rng.randrange(1, 4), rng.randrange(1, 3))
                assert ext.extend(m) == _threshold_extend(monad, q, m), m.data
                checked.append(1)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(f"race/{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(checked) == 4 * 500
    memo = q.extension_memos[monad]
    assert memo.size == _memo_cells(memo) <= 100


def _warm_budget_sites():
    from lawcat.completeness import enumerate_adjoint_pairs
    from lawcat.tvcat import discrete_tvcategory

    # powerset on c3: T(2) x T(2) cells, 3^T(2) psis, T(T(3)) x T(3) cells,
    # T(3 x 3) elements
    return [
        ("extended matrix size", 16, lambda e: e.extend(VMatrix(e.q, 2, 2, ((2, 0), (1, 2))))),
        ("psi space", 81, lambda e: enumerate_adjoint_pairs(discrete_tvcategory(e, 2))),
        ("associativity sweep", 2048, lambda e: hom_xi_category(e).verdict()),
        # xi_compat extends no matrix, so an extension warms the memo first
        ("T of V x V", 512, lambda e: (e.extend(VMatrix(e.q, 1, 2, ((2, 0),))), e.xi_compat())),
    ]


WARM_BUDGET_SITES = _warm_budget_sites()


@pytest.mark.parametrize("what,needed,run", WARM_BUDGET_SITES, ids=[s[0] for s in WARM_BUDGET_SITES])
def test_a_warm_memo_refuses_as_a_cold_one(monads, quantales, validated_copy, what, needed, run):
    # the budget is checked before any memo lookup, so a tight extension
    # refuses exactly as before once a default-budget one filled the memo
    powerset = monads["powerset"]
    refusals = []
    for warmed in (False, True):
        q = validated_copy(quantales["c3"])
        if warmed:
            run(LaxExtension(powerset, q))
            assert q.extension_memos[powerset]
        with pytest.raises(BudgetExceeded) as info:
            run(LaxExtension(powerset, q, needed - 1))
        refusals.append((info.value.what, info.value.needed, info.value.budget))
        run(LaxExtension(powerset, q, needed))
    assert refusals == [(what, needed, needed - 1)] * 2


def _with_duplicates(rng, q, rows, cols):
    # copy a row and a column onto others, so both quotients are proper
    data = [[rng.randrange(q.n) for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        data[rng.randrange(1, rows)] = list(data[0])
    if cols > 1:
        j = rng.randrange(1, cols)
        for row in data:
            row[j] = row[0]
    return VMatrix(q, rows, cols, data)


def _duplicate_free_unsorted(rng, q, rows, cols):
    """A matrix with distinct rows and distinct columns, not both in sorted
    order, so that a class map is a permutation; None if none was drawn."""
    for _ in range(100):
        m = rand_matrix(rng, q, rows, cols)
        r, c = list(m.data), list(zip(*m.data))
        if len(set(r)) == rows and len(set(c)) == cols and (r != sorted(r) or c != sorted(c)):
            return m
    return None


@pytest.mark.parametrize("mname", ["id", "powerset", "ultra"])
@pytest.mark.parametrize("qname", ["2", "c3", "c4", "plus3", "pset2"])
def test_reduced_extension_matches_threshold_loop(monads, quantales, mname, qname):
    monad, q = monads[mname], quantales[qname]
    ext = LaxExtension(monad, q)
    rng = random.Random(f"{mname}/{qname}")
    empty = [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]
    shapes = empty + [(1, 4), (4, 1)] + [(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(40)]
    with_duplicates = permuted = 0
    for rows, cols in shapes:
        drawn = (
            rand_matrix(rng, q, rows, cols),
            _with_duplicates(rng, q, rows, cols),
            _duplicate_free_unsorted(rng, q, rows, cols),
        )
        permuted += drawn[2] is not None
        for m in drawn:
            if m is None:
                continue
            with_duplicates += len(set(m.data)) < rows or len(set(zip(*m.data))) < cols
            assert ext.extend(m) == _threshold_extend(monad, q, m), m.data
    assert with_duplicates > 0 and permuted > 10


def test_reduced_extension_of_hom_xi_structure(monads, quantales):
    monad, q = monads["powerset"], quantales["pset2"]
    ext = LaxExtension(monad, q)
    a = hom_xi_category(ext).a
    assert (a.rows, a.cols) == (16, 4)
    ta = ext.extend(a)
    assert (ta.rows, ta.cols) == (65536, 16)
    assert ta == _threshold_extend(monad, q, a)
    assert len({id(row) for row in ta.data}) == 16


def _column_quantales():
    from test_random_lattices import SEEDS, downset_quantale

    return list(builtin_quantales().values()) + [downset_quantale(seed) for seed in SEEDS]


@pytest.mark.parametrize("mname", ["id", "powerset", "ultra"])
def test_column_extension_matches_threshold_loop(monads, validated_copy, mname):
    # every one-column matrix with at most 4 rows, over every built-in
    # quantale and the generated down-set lattices; each over a fresh copy,
    # so that the memo holds this test's extensions only
    monad = monads[mname]
    checked = 0
    for q in map(validated_copy, _column_quantales()):
        ext = LaxExtension(monad, q)
        for rows in range(5):
            for column in itertools.product(range(q.n), repeat=rows):
                m = VMatrix(q, rows, 1, [(v,) for v in column])
                assert ext.extend(m) == _threshold_extend(monad, q, m), (q.name, column)
                checked += 1
        # the memo holds only the quotients: sorted value columns
        for _, cols, data in ext._memo:
            assert cols == 1 and list(data) == sorted(set(data)), data
        assert len(ext._memo) <= 2**q.n
    assert checked > 10_000


@pytest.mark.parametrize("mname", ["id", "powerset", "ultra"])
def test_column_extension_budget_edge(monads, mname):
    # a one-column matrix makes extend's one budget check, on T(rows).T(1)
    monad, q = monads[mname], builtin("c3")
    for rows in range(5):
        m = VMatrix(q, rows, 1, [(v % q.n,) for v in range(rows)])
        needed = monad.size(rows) * monad.size(1)
        with pytest.raises(BudgetExceeded) as info:
            LaxExtension(monad, q, needed - 1).extend(m)
        assert (info.value.what, info.value.needed, info.value.budget) == (
            "extended matrix size",
            needed,
            needed - 1,
        )
        assert LaxExtension(monad, q, needed).extend(m) == _threshold_extend(monad, q, m)


@pytest.mark.parametrize("mname", ["id", "ultra"])
@pytest.mark.parametrize("qname", ["2", "c3", "plus3", "pset2"])
def test_identity_extension_returns_the_matrix(monads, quantales, mname, qname):
    monad, q = monads[mname], quantales[qname]
    ext = LaxExtension(monad, q)
    rng = random.Random(f"identity/{mname}/{qname}")
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(30)]
    for rows, cols in shapes:
        m = rand_matrix(rng, q, rows, cols)
        assert ext.extend(m) is m
        assert m == _threshold_extend(monad, q, m), m.data
    assert not ext._memo
    tight = LaxExtension(monad, q, max_enum=6)
    assert tight.extend(rand_matrix(rng, q, 2, 3)).rows == 2
    with pytest.raises(BudgetExceeded):
        tight.extend(rand_matrix(rng, q, 7, 1))


# The library modules below the entry points; cli, suite and enriched set
# the budget on the extensions they build.
LIBRARY_MODULES = ("completeness", "fileio", "instances", "laxext", "monad", "quantale", "quniform", "tvcat", "vmatrix")


def test_the_extension_is_the_only_budget_holder():
    # Every enumeration is charged on its extension; a second budget
    # parameter could disagree with the one the extension enforces.
    holders = []
    for module in (importlib.import_module(f"lawcat.{name}") for name in LIBRARY_MODULES):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()]
            else:
                members = [(name, obj)]
            for label, fn in members:
                if inspect.isfunction(fn) and "max_enum" in inspect.signature(fn).parameters:
                    holders.append(f"{module.__name__}.{label}")
    assert holders == ["lawcat.laxext.LaxExtension.__init__"]


def test_only_check_budget_reads_the_budget():
    # a library function that read ext.max_enum could charge past check_budget
    readers = set()
    for module in LIBRARY_MODULES:
        body = ast.parse(pathlib.Path(laxext.__file__).with_name(f"{module}.py").read_text()).body
        units = [
            (f"{node.name}.{getattr(member, 'name', '')}", member)
            for node in body
            if isinstance(node, ast.ClassDef)
            for member in node.body
        ]
        units += [(getattr(node, "name", ""), node) for node in body if not isinstance(node, ast.ClassDef)]
        for qualname, unit in units:
            for node in ast.walk(unit):
                if isinstance(node, ast.Attribute) and node.attr == "max_enum" and isinstance(node.ctx, ast.Load):
                    readers.add(f"{module}.{qualname}")
    assert readers == {"laxext.LaxExtension.check_budget"}


def _budget_sites():
    """(what, needed, run) for every budget check on the extension.

    run(budget) builds a fresh extension with that budget and makes the
    call; at needed - 1 the named check is the first to refuse, at needed
    the whole call goes through.  A site whose call makes more than one
    charge lists them as ((what, needed), ...) in charge order, with needed
    None: each refuses at its own needed - 1, and the last needed lets the
    call through.
    """
    from lawcat.completeness import enumerate_adjoint_pairs
    from lawcat.instances import FinitePreorder, space_lawvere_complete
    from lawcat.monad import builtin_monad
    from lawcat.tvcat import (
        TVCategory,
        all_tvcategories,
        check_tvcategory,
        discrete_tvcategory,
        exponential_tvcat,
        tensor_tvcat,
    )
    from lawcat.vmatrix import left_adjoint_map_criterion

    def ext(mname, budget):
        return LaxExtension(builtin_monad(mname), builtin("2"), budget)

    def cat(e, rows):
        return TVCategory(e, len(rows), VMatrix(e.q, len(rows), len(rows), rows))

    def chain(budget):
        return cat(ext("id", budget), ((1, 1), (0, 1)))

    def sweep(budget):
        x = discrete_tvcategory(ext("powerset", budget), 1)
        return check_tvcategory(x.ext, 1, x.a)

    def square(budget):
        x = discrete_tvcategory(ext("id", budget), 2)
        return tensor_tvcat(x, x)

    def space(budget):
        return space_lawvere_complete(ext("ultra", budget), FinitePreorder.from_pairs(3, [(0, 1)]))

    def exponential(budget, x_rows, y_n):
        e = ext("id", budget)
        return exponential_tvcat(cat(e, x_rows), discrete_tvcategory(e, y_n))

    return [
        ("extended matrix size", 16, lambda b: ext("powerset", b).extend(chain(b).a)),
        ("T^2 of quantale carrier", 16, lambda b: check_xi(ext("powerset", b))),
        ("T of V x V", 16, lambda b: check_xi_compat(ext("powerset", b))),
        ("associativity sweep", 8, sweep),
        ("tensor carrier", 16, square),
        ("structure space", 16, lambda b: all_tvcategories(ext("id", b), 2)),
        # indiscrete 3 points into discrete 3 points: 27 maps, 3 functors
        ("function space", 27, lambda b: exponential(b, ((1, 1, 1),) * 3, 3)),
        # discrete 2 points into discrete 2 points: all 4 maps are functors
        ("exponential structure sweep", 32, lambda b: exponential(b, ((1, 0), (0, 1)), 2)),
        ("largest-structure search", 16, lambda b: oracle_largest_structure(exponential(b, ((1,),), 2))),
        ("psi space", 4, lambda b: enumerate_adjoint_pairs(chain(b))),
        ("pair space", 16, lambda b: enumerate_adjoint_pairs(chain(b), oracle=True)),
        # a V-matrix sweep is the (id, V) case: its budget is the extension's
        ("matrix space 1x1 over 2", 2, lambda b: left_adjoint_map_criterion(ext("id", b), 1)),
        # the space carries its verdict, so no associativity sweep follows
        ((("psi space", 8), ("extended matrix size", 9)), None, space),
    ]


BUDGET_SITES = _budget_sites()


def _site_id(what):
    return what if isinstance(what, str) else " then ".join(w for w, _ in what)


@pytest.mark.parametrize("what,needed,run", BUDGET_SITES, ids=[_site_id(s[0]) for s in BUDGET_SITES])
def test_budget_refuses_exactly_above_needed(what, needed, run):
    charges = ((what, needed),) if isinstance(what, str) else what
    for what, needed in charges:
        with pytest.raises(BudgetExceeded) as info:
            run(needed - 1)
        assert (info.value.what, info.value.needed, info.value.budget) == (what, needed, needed - 1)
    run(needed)


PARITY_BUDGETS = (*range(1, 70), 80, 81, 255, 256, 6560, 6561, 65536, 10_000_000)


@pytest.mark.parametrize("mname", ["id", "ultra", "powerset"])
def test_each_matrix_sweep_is_charged_once_by_its_caller(monkeypatch, mname):
    # all_matrices charges nothing; its callers charge at least its count
    # first.  Put its old charge back, matrix space rows x cols against the
    # same budget on the first draw, and no outcome moves: every refusal
    # keeps its (what, needed, budget) and every run its count.
    import lawcat.completeness
    import lawcat.tvcat
    from lawcat.completeness import enumerate_adjoint_pairs
    from lawcat.monad import builtin_monad
    from lawcat.tvcat import all_tvcategories, discrete_tvcategory
    from lawcat.vmatrix import all_matrices

    def outcome(run, budget):
        try:
            return len(run(budget))
        except BudgetExceeded as err:
            return (err.what, err.needed, err.budget)

    def charged(budget):
        def sweep(q, rows, cols):
            count = q.n ** (rows * cols)
            if count > budget:
                raise BudgetExceeded(f"matrix space {rows}x{cols} over {q.name}", count, budget)
            yield from all_matrices(q, rows, cols)

        return sweep

    outcomes = []
    for qname in ("2", "c3"):
        for n in range(3):

            def ext(budget):
                return LaxExtension(builtin_monad(mname), builtin(qname), budget)

            runs = (
                lambda b: all_tvcategories(ext(b), n),
                lambda b: enumerate_adjoint_pairs(discrete_tvcategory(ext(b), n), oracle=True),
            )
            for run in runs:
                for budget in PARITY_BUDGETS:
                    got = outcome(run, budget)
                    with monkeypatch.context() as patch:
                        patch.setattr(lawcat.tvcat, "all_matrices", charged(budget))
                        patch.setattr(lawcat.completeness, "all_matrices", charged(budget))
                        assert outcome(run, budget) == got, (qname, n, budget)
                    outcomes.append(got)
    assert len(outcomes) == 2 * 3 * 2 * len(PARITY_BUDGETS)
    # both refusals and runs are compared
    assert {type(got) for got in outcomes} == {int, tuple}


def test_derived_state_is_built_once_in_the_extension_cache():
    from lawcat.monad import PowersetMonad
    from lawcat.tvcat import discrete_tvcategory, dual_tvcategory, em_algebra_category, unit_tvcategory

    ext = LaxExtension(PowersetMonad(), builtin("2"))
    x = discrete_tvcategory(ext, 2)
    derived = [
        lambda: ext.monad.unit_table(2),
        lambda: ext.monad.mult_table(2),
        lambda: ext.monad.mult_fibers(2),
        ext.xi,
        ext.capabilities,
        lambda: ext.extend(x.a),
        lambda: em_algebra_category(ext, 1),
        lambda: unit_tvcategory(ext),
        lambda: hom_xi_category(ext),
        lambda: dual_tvcategory(x),
    ]
    for build in derived:
        assert build() is build()
    assert sorted(vars(ext)) == ["_memo", "cache", "max_enum", "monad", "q"]


def _site_projections(monad, nx, ny):
    """Reference: pix and piy as tensor_tvcat, exponential_tvcat and
    check_xi_compat each built them before they read monad.projections."""
    pix = tuple(p for p in range(nx) for _ in range(ny))
    piy = tuple(u for _ in range(nx) for u in range(ny))
    return monad.tmap(pix, nx * ny, nx), monad.tmap(piy, nx * ny, ny)


@pytest.mark.parametrize("mname", ["id", "powerset", "ultra"])
def test_projections_match_the_per_site_tables(monads, quantales, mname):
    ext = LaxExtension(monads[mname], quantales["2"])
    shapes = list(itertools.product(range(4), repeat=2))
    for nx, ny in shapes:
        assert ext.monad.projections(nx, ny) == _site_projections(ext.monad, nx, ny)
        assert ext.monad.projections(nx, ny) is ext.monad.projections(nx, ny)
    # kept in the monad's table store, not in the extension's cache
    assert all(("projections", nx, ny) in ext.monad._tables for nx, ny in shapes)
    assert not any(key[0] == "projections" for key in ext.cache)


@pytest.mark.parametrize("qname", ["2", "c3", "c4", "plus3"])
def test_check_xi_names_the_reference_witness(qname):
    # xi changed at one non-singleton s keeps the unit law and breaks the
    # multiplication law (at {s} at the latest); the image decides that,
    # and the witness is the first failing element of T^2(V) in order.
    q = builtin(qname)
    monad = PowersetMonad()
    good = LaxExtension(monad, q).xi()
    tn = monad.size(q.n)
    mu = monad.mult_map(q.n)
    singletons = set(monad.unit_map(q.n))
    rng = random.Random(qname)
    for _ in range(6):
        bad = list(good)
        s = rng.choice([s for s in range(tn) if s not in singletons])
        bad[s] = rng.choice([v for v in range(q.n) if v != good[s]])
        ext = LaxExtension(monad, q)
        ext.cache[("xi",)] = tuple(bad)
        txi = monad.tmap(bad, tn, q.n)
        first = next(big for big in range(len(mu)) if bad[mu[big]] != bad[txi[big]])
        assert check_xi(ext) == {"ok": False, "law": "xi-mult", "witness": first}
    assert check_xi(LaxExtension(monad, q)) == {"ok": True}


def reference_tensor_flags(ext):
    """The tensor-algebra flags over every w in T(V x V), from the full tables."""
    q = ext.q
    n = q.n
    xi = ext.xi()
    tens_map = tuple(q.tensor[u][v] for u in range(n) for v in range(n))
    tpi1, tpi2 = ext.monad.projections(n, n)
    ttens = ext.monad.tmap(tens_map, n * n, n)
    sides = [(q.tensor[xi[s1]][xi[s2]], xi[st]) for s1, s2, st in zip(tpi1, tpi2, ttens)]
    return {
        "tensor_inequality": all(q.leq[lhs][rhs] for lhs, rhs in sides),
        "tensor_strict": all(lhs == rhs for lhs, rhs in sides),
    }


@pytest.mark.parametrize("mname", ["powerset", "id", "ultra"])
def test_tensor_flags_match_the_full_tables(monads, mname):
    # The built-in xi tables, and tables changed off the singletons, which
    # reach every combination of the two flags over powerset.
    monad = monads[mname]
    flags = set()
    rng = random.Random(mname)
    for qname in ("2", "c3", "c4", "plus2", "plus3", "pset2"):
        q = builtin(qname)
        good = LaxExtension(monad, q).xi()
        singletons = set(monad.unit_map(q.n))
        for trial in range(8):
            ext = LaxExtension(monad, q)
            if trial:
                bad = list(good)
                for s in range(len(bad)):
                    if s not in singletons and rng.random() < 0.3:
                        bad[s] = rng.randrange(q.n)
                ext.cache[("xi",)] = tuple(bad)
            report = check_xi_compat(ext)
            expected = reference_tensor_flags(ext)
            assert {key: report[key] for key in expected} == expected, (qname, ext.xi())
            flags.add(tuple(expected.values()))
    if mname == "powerset":
        assert flags == {(True, True), (True, False), (False, False)}
