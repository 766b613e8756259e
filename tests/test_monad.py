import itertools
import random

import pytest

from lawcat.errors import BudgetExceeded
from lawcat.monad import (
    HARD_CARRIER_CAP,
    BoundedStore,
    FiniteMonad,
    PowersetMonad,
    _all_functions,
    _ints_held,
    builtin_monad,
    builtin_monads,
    check_bc,
    monad_capabilities,
)

from lawcat.vmatrix import VMatrix

from support import principal_ultrafilter, reference_functor_bc


def check_functor_laws(monad, max_n=3):
    """T(id) = id and T(g.f) = T(g).T(f) for all functions on small sets."""
    for n in range(max_n + 1):
        ident = tuple(range(n))
        if monad.tmap(ident, n, n) != tuple(range(monad.size(n))):
            return {"ok": False, "law": "functor-identity", "witness": n}
    for n, m, p in itertools.product(range(max_n + 1), repeat=3):
        for f in _all_functions(n, m):
            tf = monad.tmap(f, n, m)
            for g in _all_functions(m, p):
                tg = monad.tmap(g, m, p)
                gf = tuple(g[f[x]] for x in range(n))
                if monad.tmap(gf, n, p) != tuple(tg[tf[i]] for i in range(monad.size(n))):
                    return {"ok": False, "law": "functor-composition", "witness": (n, m, p, f, g)}
    return {"ok": True}


def check_naturality(monad, max_n=3):
    """e and m are natural for the plain functor on all small functions."""
    for n, m in itertools.product(range(max_n + 1), repeat=2):
        e_n, e_m = monad.unit_map(n), monad.unit_map(m)
        mu_n, mu_m = monad.mult_map(n), monad.mult_map(m)
        for f in _all_functions(n, m):
            tf = monad.tmap(f, n, m)
            if tuple(tf[e_n[x]] for x in range(n)) != tuple(e_m[f[x]] for x in range(n)):
                return {"ok": False, "law": "unit-naturality", "witness": (n, m, f)}
            ttf = monad.tmap(tf, monad.size(n), monad.size(m))
            lhs = tuple(tf[mu_n[i]] for i in range(monad.size(monad.size(n))))
            rhs = tuple(mu_m[ttf[i]] for i in range(monad.size(monad.size(n))))
            if lhs != rhs:
                return {"ok": False, "law": "mult-naturality", "witness": (n, m, f)}
    return {"ok": True}


def check_monad_laws(monad, max_n=3, max_enum=HARD_CARRIER_CAP):
    """Unit and associativity laws, pointwise on enumerated carriers.

    Unit laws run for |X| <= max_n; the associativity square needs T^3(X)
    and is checked for every |X| <= max_n whose triple carrier fits the
    budget (the sizes actually checked are reported).
    """
    assoc_checked = []
    for n in range(max_n + 1):
        tn = monad.size(n)
        e = monad.unit_map(n)
        te = monad.tmap(e, n, tn)
        mu = monad.mult_map(n)
        for i in range(tn):
            if mu[te[i]] != i:
                return {"ok": False, "law": "mult-after-Te", "witness": (n, i)}
        e_t = monad.unit_map(tn)
        for i in range(tn):
            if mu[e_t[i]] != i:
                return {"ok": False, "law": "mult-after-eT", "witness": (n, i)}
        ttn = monad.size(tn)
        try:
            tttn = monad.size(ttn)
        except BudgetExceeded:
            continue
        if tttn > max_enum:
            continue
        mu_t = monad.mult_map(tn)
        tmu = monad.tmap(mu, ttn, tn)
        for i in range(tttn):
            if mu[tmu[i]] != mu[mu_t[i]]:
                return {"ok": False, "law": "mult-associativity", "witness": (n, i)}
        assoc_checked.append(n)
    return {"ok": True, "associativity_checked_sizes": assoc_checked}


def enumerate_filter_families(n):
    """All ultrafilters on {0..n-1} found by scanning every family of subsets.

    Oracle used to confirm that ultrafilters on a finite set are exactly the
    principal ones: a family qualifies when it is a proper filter (upward
    closed, closed under intersection, without the empty set) that is prime
    in the strong sense of containing A or its complement for every A.
    """
    subsets = [frozenset(b for b in range(n) if m & (1 << b)) for m in range(1 << n)]
    found = []
    for fam_mask in range(1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if fam_mask & (1 << i)]
        famset = set(fam)
        if not fam or frozenset() in famset:
            continue
        ok = True
        for a in fam:
            for b in subsets:
                if a <= b and b not in famset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in fam:
                for b in fam:
                    if a & b not in famset:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            full = frozenset(range(n))
            for a in subsets:
                if (a in famset) == (full - a in famset):
                    ok = False
                    break
        if ok:
            found.append(frozenset(famset))
    return found


def test_catalog():
    assert sorted(builtin_monads()) == ["id", "powerset", "ultra"]


def test_powerset_carrier_and_union():
    p = builtin_monad("powerset")
    assert p.labels(2, ("0", "1")) == ("{}", "{0}", "{1}", "{0,1}")
    # multiplication is union: the family {{0},{0,1}} has index with bits 1 and 3
    fam = (1 << 1) | (1 << 3)
    assert p.mult_map(2)[fam] == 0b11


def test_powerset_unit_is_singleton():
    p = builtin_monad("powerset")
    assert p.unit_map(3) == (1, 2, 4)


def test_ultrafilters_on_three_points_are_exactly_principal():
    families = enumerate_filter_families(3)
    assert len(families) == 3
    assert sorted(families, key=sorted) == sorted(
        (principal_ultrafilter(3, i) for i in range(3)), key=sorted
    )


def test_ultrafilter_family_properties():
    fam = principal_ultrafilter(3, 1)
    full = frozenset(range(3))
    for a in fam:
        for b in fam:
            assert a & b in fam
    for a in fam:
        assert all(c in fam for c in map(frozenset, _supersets(a, 3)))
    for mask in range(1 << 3):
        s = frozenset(b for b in range(3) if mask & (1 << b))
        assert (s in fam) != (full - s in fam)


def _supersets(s, n):
    rest = [x for x in range(n) if x not in s]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            yield s | set(extra)


def test_t_empty():
    assert builtin_monad("powerset").size(0) == 1
    assert builtin_monad("ultra").size(0) == 0
    assert builtin_monad("id").size(0) == 0


@pytest.mark.parametrize("name", ["id", "powerset", "ultra"])
def test_functor_and_naturality_laws(name):
    m = builtin_monad(name)
    cap = 2 if name == "powerset" else 3
    assert check_functor_laws(m, cap)["ok"]
    assert check_naturality(m, cap)["ok"]


def test_monad_laws():
    assert check_monad_laws(builtin_monad("id"), 4)["ok"]
    assert check_monad_laws(builtin_monad("ultra"), 4)["associativity_checked_sizes"] == [
        0,
        1,
        2,
        3,
        4,
    ]
    rep = check_monad_laws(builtin_monad("powerset"), 3)
    assert rep["ok"]
    # the triple powerset carrier only fits the budget up to two points
    assert rep["associativity_checked_sizes"] == [0, 1, 2]


def test_corrupted_mult_fails_with_witness():
    class Corrupted(PowersetMonad):
        def mult_map(self, n):
            table = list(super().mult_map(n))
            if len(table) > 3:
                table[3] = 0
            return tuple(table)

    rep = check_monad_laws(Corrupted(), 2)
    assert not rep["ok"]
    assert rep["witness"] is not None


@pytest.mark.parametrize("name,max_n", [("id", 3), ("ultra", 3), ("powerset", 3)])
def test_bc_reports(name, max_n):
    rep = check_bc(builtin_monad(name), max_n)
    assert rep["m_bc"], rep
    functor = reference_functor_bc(builtin_monad(name), max_n)
    assert functor["functor_bc"], functor


class CollapsedMult(PowersetMonad):
    """Powerset with a multiplication that sends everything to the empty set."""

    def mult_map(self, n):
        return (0,) * self.size(self.size(n))


def test_bc_report_names_the_first_square_that_is_not_a_weak_pullback():
    from lawcat.completeness import completeness_gate
    from lawcat.laxext import LaxExtension
    from lawcat.quantale import builtin

    # the first square is m at f: 0 -> 1, where m(alpha) = Tf(empty) for
    # every alpha in TT(1), but TT(f) reaches only alpha 0 and 1 (the
    # empty set and {empty}); the first gap is alpha = 2, {{x}}
    rep = check_bc(CollapsedMult(), 2)
    assert rep == {"m_bc": False, "m_witness": (0, 1, (), 2, 0), "max_n": 2}
    assert not monad_capabilities(CollapsedMult())["m_bc"]
    assert completeness_gate(LaxExtension(CollapsedMult(), builtin("2"))) is None


def test_capabilities_extend_no_relation(monkeypatch):
    # m-BC reads the multiplication tables; the functor's pullback
    # squares, which extend relations, are swept by the tests only
    def refuse(*args):
        raise AssertionError("extend_relation called")

    monkeypatch.setattr(FiniteMonad, "extend_relation", refuse)
    monkeypatch.setattr(PowersetMonad, "extend_relation", refuse)
    caps = monad_capabilities(PowersetMonad())
    assert caps["m_bc"] and caps["bc_max_n"] == 2


def test_capability_flags():
    caps = monad_capabilities(builtin_monad("powerset"))
    assert not caps["t1_is_one"]
    assert not caps["t_empty_is_empty"]
    caps = monad_capabilities(builtin_monad("ultra"))
    assert caps["t1_is_one"]
    assert caps["t_empty_is_empty"]


def test_powerset_extension_matches_span_reference():
    p = builtin_monad("powerset")
    rng = random.Random(5)
    for _ in range(300):
        nx, ny = rng.randrange(0, 4), rng.randrange(0, 4)
        pairs = [(x, y) for x in range(nx) for y in range(ny) if rng.random() < 0.45]
        assert p.extend_relation(pairs, nx, ny) == FiniteMonad.extend_relation(p, pairs, nx, ny)


def test_identity_and_ultra_extension_is_the_relation_itself():
    for name in ("id", "ultra"):
        m = builtin_monad(name)
        pairs = [(0, 1), (1, 0), (2, 1)]
        assert m.extend_relation(pairs, 3, 2) == frozenset(pairs)


def test_powerset_budget_guard():
    with pytest.raises(BudgetExceeded):
        builtin_monad("powerset").mult_map(5)


def _tmap_per_bit(f, n_src):
    out = []
    for mask in range(1 << n_src):
        img = 0
        for b in range(n_src):
            if mask & (1 << b):
                img |= 1 << f[b]
        out.append(img)
    return tuple(out)


def _mult_map_per_bit(n):
    out = []
    for fam in range(1 << (1 << n)):
        u = 0
        for b in range(1 << n):
            if fam & (1 << b):
                u |= b
        out.append(u)
    return tuple(out)


@pytest.mark.parametrize("n_src", range(13))
def test_powerset_tmap_matches_per_bit_reference(n_src):
    p = builtin_monad("powerset")
    rng = random.Random(n_src)
    for n_tgt in (1, 3, 12):
        f = tuple(rng.randrange(n_tgt) for _ in range(n_src))
        assert p.tmap(f, n_src, n_tgt) == _tmap_per_bit(f, n_src)


def test_powerset_mult_map_matches_per_bit_reference():
    # n = 4 is the largest carrier whose table T(T(n)) fits the hard cap
    p = builtin_monad("powerset")
    for n in range(5):
        assert p.mult_map(n) == _mult_map_per_bit(n)


def zip_mult_image(monad, g, n, k):
    """The pairs (m(s), T(g)(s)) read off the full tables, one per s."""
    return set(zip(monad.mult_map(n), monad.tmap(g, monad.size(n), k)))


def zip_tmap_image(monad, maps, n):
    return set(zip(*(monad.tmap(f, n, k) for f, k in maps)))


@pytest.mark.parametrize("name", ["powerset", "id", "ultra"])
def test_mult_image_matches_the_full_tables(name):
    monad = builtin_monad(name)
    checked = 0
    for n in range(4):
        tn = monad.size(n)
        for k in range(4):
            for g in itertools.product(range(k), repeat=tn):
                assert monad.mult_image(g, n, k) == zip_mult_image(monad, g, n, k), (n, k, g)
                checked += 1
    assert checked > (6561 if name == "powerset" else 27)


@pytest.mark.parametrize("name", ["powerset", "id", "ultra"])
def test_tmap_image_matches_the_full_tables(name):
    monad = builtin_monad(name)
    rng = random.Random(name)
    for _ in range(300):
        n = rng.randrange(7)
        maps = []
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(1, 5)
            maps.append((tuple(rng.randrange(k) for _ in range(n)), k))
        assert monad.tmap_image(maps, n) == zip_tmap_image(monad, maps, n), maps


def test_powerset_images_stay_small_where_the_tables_do_not():
    p = builtin_monad("powerset")
    g = tuple(bin(a).count("1") % 4 for a in range(16))
    assert len(p.mult_image(g, 4, 4)) <= 1 << 8 < p.size(16)
    pi1 = tuple(u for u in range(4) for _ in range(4))
    pi2 = tuple(v for _ in range(4) for v in range(4))
    image = p.tmap_image(((pi1, 4), (pi2, 4)), 16)
    # (A, B) with A and B both empty or both nonempty
    assert len(image) == 1 + 15 * 15


def test_tables_are_kept_on_the_monad_within_the_bound(monkeypatch):
    from lawcat import monad as monad_module
    from lawcat.completeness import decide_lawvere_complete
    from lawcat.laxext import LaxExtension
    from lawcat.quantale import builtin
    from lawcat.tvcat import all_tvcategories

    m = PowersetMonad()
    assert m.unit_table(3) is m.unit_table(3) == m.unit_map(3)
    assert m.mult_table(2) is m.mult_table(2) == m.mult_map(2)
    fibers = m.mult_fibers(2)
    assert fibers is m.mult_fibers(2)
    mu = m.mult_map(2)
    assert fibers == tuple(tuple(big for big in range(16) if mu[big] == s) for s in range(4))
    # every extension of the monad reads the monad's tables and keeps none
    kept = ("unit_map", "mult_map", "mult_fibers", "projections")
    assert not any(hasattr(LaxExtension, name) for name in kept)
    first, second = LaxExtension(m, builtin("2")), LaxExtension(m, builtin("c3"))
    for x in all_tvcategories(first, 2):
        decide_lawvere_complete(x)
    assert first.monad.mult_fibers(2) is second.monad.mult_fibers(2) is fibers
    assert not any(key[0] in kept for key in first.cache)
    # past the bound the oldest tables go first; a larger table is not kept
    monkeypatch.setattr(monad_module, "TABLE_ENTRIES", 20)
    m = PowersetMonad()
    m.mult_table(2)
    m.unit_table(2)
    assert (list(m._tables), m._tables.size) == ([("mult", 2), ("unit", 2)], 18)
    m.mult_table(1)
    assert (list(m._tables), m._tables.size) == ([("unit", 2), ("mult", 1)], 6)
    assert m.mult_table(3) == m.mult_map(3) and m.mult_table(3) is not m.mult_table(3)
    assert (list(m._tables), m._tables.size) == ([("unit", 2), ("mult", 1)], 6)
    assert {key: m._tables.measure(t) for key, t in m._tables.items()} == {("unit", 2): 2, ("mult", 1): 4}


def reference_store(limit, measure, stores):
    """The (key, value) pairs a BoundedStore keeps after stores, oldest
    first: a value over limit or under a kept key is dropped, and the
    oldest pairs go until the new one fits."""
    kept = []
    for key, value in stores:
        size = measure(value)
        if size > limit or any(k == key for k, _ in kept):
            continue
        while sum(measure(v) for _, v in kept) + size > limit:
            kept.pop(0)
        kept.append((key, value))
    return kept


def test_a_bounded_store_keeps_the_newest_values_within_its_limit():
    from lawcat.laxext import _cells
    from lawcat.quantale import builtin

    # measure "ints held": index tables, and tuples of them (fibres,
    # projection pairs)
    store = BoundedStore(10, _ints_held)
    fibers = ((0, 1), (2,), ())
    assert store.remember("unit", (0, 1, 2)) == (0, 1, 2)
    assert store.remember("fibers", fibers) is fibers
    assert (list(store), store.size) == (["unit", "fibers"], 6)
    big = tuple(range(11))
    assert store.remember("big", big) is big and "big" not in store
    store.remember("mult", (5,) * 5)
    assert (list(store), store.size) == (["fibers", "mult"], 8)
    store.remember("fibers", (9,))
    assert store["fibers"] is fibers and store.size == 8
    # measure rows x cols: extend memo entries
    q = builtin("c3")
    memo = BoundedStore(12, _cells)
    shapes = ((2, 3), (3, 2), (1, 1), (4, 4), (2, 2), (2, 5), (3, 3))
    matrices = [VMatrix(q, r, c, [[0] * c for _ in range(r)]) for r, c in shapes]
    for i, m in enumerate(matrices[:5]):
        memo.remember(i, m)
    # 6 + 6 cells, then 1 evicts the first 6, 16 is too large, 4 fits
    assert (list(memo), memo.size) == ([1, 2, 4], 6 + 1 + 4)
    # random stores against the reference, for both measures
    rng = random.Random("bounded-store")
    for limit, measure, draw in (
        (40, _ints_held, lambda: tuple(range(rng.randrange(12)))),
        (40, _ints_held, lambda: tuple(tuple(range(rng.randrange(4))) for _ in range(rng.randrange(1, 5)))),
        (30, _cells, lambda: matrices[rng.randrange(len(matrices))]),
    ):
        store = BoundedStore(limit, measure)
        stores = [(rng.randrange(20), draw()) for _ in range(300)]
        for key, value in stores:
            assert store.remember(key, value) is value
            assert store.size == sum(map(measure, store.values())) <= limit
        assert list(store.items()) == reference_store(limit, measure, stores)


def test_powerset_quantales_are_labelled_as_the_powerset_monad_labels_rows():
    from lawcat.quantale import builtin

    for k in (1, 2, 3):
        base = ("a", "b", "c")[:k]
        assert builtin(f"pset{k}").labels == PowersetMonad().labels(k, base)


def test_row_lookup_reads_exactly_the_row_labels():
    # Each monad's reader agrees with the default, which lists labels():
    # every row label reads as its index, and any other text as None.
    base = ("a", "b", "c")
    bad = ["", "a", "{", "}", "{}}", "{{}", "{a", "a}", "{a,}", "{,a}", "{,}", "{b,a}", "{a,a}",
           "{a, b}", "{ a}", "{d}", "{a,b,c,a}", "{a}{b}", "x{a}", "xa}", "{ax"]
    for m in (builtin_monad("id"), builtin_monad("ultra"), PowersetMonad()):
        for n in range(len(base) + 1):
            col_index = {lab: i for i, lab in enumerate(base[:n])}
            rows = m.labels(n, base[:n])
            reference = FiniteMonad.row_lookup(m, col_index)
            row_of = m.row_lookup(col_index)
            assert [row_of(lab) for lab in rows] == list(range(m.size(n)))
            for lab in bad + list(PowersetMonad().labels(n, base[:n])) + list(base):
                assert row_of(lab) == reference(lab), (m.name, n, lab)


def test_capabilities_are_computed_once_per_monad_object():
    m = PowersetMonad()
    assert m._capabilities is None
    caps = m.capabilities()
    assert caps == monad_capabilities(m) and m.capabilities() is caps
    assert PowersetMonad()._capabilities is None


def test_threads_share_one_bounded_table_store(monkeypatch):
    # threads asking one monad for tables under a small bound get exact
    # tables, and the store's count of entries stays exact and within it
    import sys
    import threading

    from lawcat import monad as monad_module

    monkeypatch.setattr(monad_module, "TABLE_ENTRIES", 40)
    m = PowersetMonad()
    reference = {n: (PowersetMonad().unit_map(n), PowersetMonad().mult_map(n)) for n in range(4)}
    errors, checked = [], []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                n = rng.randrange(4)
                assert (m.unit_table(n), m.mult_table(n)) == reference[n]
                assert sum(map(len, m.mult_fibers(n))) == len(reference[n][1])
                checked.append(1)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(f"tables/{i}",)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(checked) == 6 * 300
    assert all(key[0] in ("unit", "mult", "fibers") and key[1] < 4 for key in m._tables)
    assert m._tables.size == sum(map(m._tables.measure, m._tables.values())) <= 40
