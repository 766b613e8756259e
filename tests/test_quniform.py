import itertools
import random
import time

import pytest

import lawcat.quniform
from lawcat import suite
from lawcat.errors import BudgetExceeded
from lawcat.instances import FinitePreorder, enumerate_preorders
from lawcat.laxext import LaxExtension
from lawcat.monad import builtin_monad
from lawcat.quantale import builtin
from lawcat.quniform import (
    QuasiUniformity,
    all_quniformities,
    curated_three_point,
    decide_cauchy_complete,
    decide_lawvere_q,
    is_minimal_pair,
    lax_algebra_bridge,
    rel_compose,
    validate_quniformity,
)
from support import reference_cauchy_by_masks


def discrete_quniformity(n):
    return QuasiUniformity(n, [frozenset((x, x) for x in range(n))])


def indiscrete_quniformity(n):
    return QuasiUniformity(n, [frozenset((x, y) for x in range(n) for y in range(n))])


def preorder_quniformity(p):
    pairs = frozenset(
        (x, y) for x in range(p.n) for y in range(p.n) if p.leq[x][y]
    )
    return QuasiUniformity(p.n, [pairs])


def entourages(u):
    """All relations containing the base intersection, in the canonical
    order of their sorted pair lists."""
    allpairs = [(x, y) for x in range(u.n) for y in range(u.n)]
    rest = [p for p in allpairs if p not in u.w]
    out = []
    for mask in range(1 << len(rest)):
        extra = {rest[i] for i in range(len(rest)) if mask & (1 << i)}
        out.append(u.w | extra)
    return sorted(out, key=lambda r: sorted(r))


def nbhd_left(u, x0):
    """Points reaching x0 through every entourage."""
    return frozenset(x for x in range(u.n) if (x, x0) in u.w)


def nbhd_right(u, x0):
    return frozenset(y for y in range(u.n) if (x0, y) in u.w)


class FilterPair:
    """Reference filter pair: principal subset filters with pairwise
    intersection, by their minima, as frozensets."""

    def __init__(self, n, left_min, right_min):
        self.n = n
        self.left = frozenset(left_min)
        self.right = frozenset(right_min)
        if not self.left or not self.right:
            raise ValueError("improper filter in pair")
        if not self.left & self.right:
            raise ValueError("filter pair members must intersect")

    def key(self):
        return (tuple(sorted(self.left)), tuple(sorted(self.right)))

    def __eq__(self, other):
        return isinstance(other, FilterPair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FilterPair({sorted(self.left)}, {sorted(self.right)})"


def is_cauchy(u, fp):
    """Some member rectangle fits inside every entourage."""
    return all((x, y) in u.w for x in fp.left for y in fp.right)


def converges_to(u, fp):
    """All points x0 with the pair inside the two neighbourhood filters."""
    out = []
    for x0 in range(u.n):
        if fp.left <= nbhd_left(u, x0) and fp.right <= nbhd_right(u, x0):
            out.append(x0)
    return out


def is_minimal_cauchy(u, fp):
    """Cauchy, and no pair that adds one point to one side is Cauchy
    (the proof that this suffices is in quniform.is_minimal_pair)."""
    if not is_cauchy(u, fp):
        return False
    w = u.w
    left_ext = (x for x in range(u.n) if x not in fp.left)
    if any(all((x, y) in w for y in fp.right) for x in left_ext):
        return False
    right_ext = (y for y in range(u.n) if y not in fp.right)
    return not any(all((x, y) in w for x in fp.left) for y in right_ext)


def neighbourhood_pair(u, x0):
    return FilterPair(u.n, nbhd_left(u, x0), nbhd_right(u, x0))


def cauchy_machinery(u, fp):
    return {
        "is_cauchy": is_cauchy(u, fp),
        "converges_to": converges_to(u, fp),
        "is_minimal": is_minimal_cauchy(u, fp),
    }


def all_filter_pairs(n):
    subsets = []
    for mask in range(1, 1 << n):
        subsets.append(frozenset(x for x in range(n) if mask & (1 << x)))
    out = []
    for left in subsets:
        for right in subsets:
            if left & right:
                out.append(FilterPair(n, left, right))
    return out


def reference_cauchy_complete(u):
    """decide_cauchy_complete over all 4^n frozenset filter pairs."""
    pairs = all_filter_pairs(u.n)
    all_converge = all(converges_to(u, fp) for fp in pairs if is_cauchy(u, fp))
    nbhd = {neighbourhood_pair(u, x0) for x0 in range(u.n)}
    minimal = [fp for fp in pairs if is_minimal_cauchy(u, fp)]
    minimal_are_nbhd = all(fp in nbhd for fp in minimal)
    assert all_converge == minimal_are_nbhd
    return {
        "complete": all_converge,
        "minimal_are_neighbourhoods": minimal_are_nbhd,
        "minimal_pairs": [fp.key() for fp in minimal],
    }


def mask(points):
    return sum(1 << x for x in points)


class RelFilterModule:
    """Reference module pair candidate: principal filters of relations to and
    from the point, by their minima, as frozensets.

    phi_min is the minimum subset standing for the filter of relations
    from the point into the carrier, psi_min the one towards the point.
    """

    def __init__(self, u, phi_min, psi_min):
        self.u = u
        self.phi = frozenset(phi_min)
        self.psi = frozenset(psi_min)

    def key(self):
        return (tuple(sorted(self.psi)), tuple(sorted(self.phi)))

    def is_phi_bimodule(self):
        # composing with the structure filter keeps the minimum inside
        return frozenset(z for (y, z) in self.u.w if y in self.phi) <= self.phi

    def is_psi_bimodule(self):
        return frozenset(y for (y, z) in self.u.w if z in self.psi) <= self.psi

    def is_adjoint(self):
        unit = bool(self.phi & self.psi)
        counit = all((x, y) in self.u.w for x in self.psi for y in self.phi)
        return unit and counit

    def filter_pair(self):
        return FilterPair(self.u.n, self.psi, self.phi)


def adjoint_module_pairs(u):
    """Reference: every adjoint bimodule pair from and to the point, over
    all 4^n candidate pairs of minima, canonically ordered."""
    out = []
    for phi_mask in range(1, 1 << u.n):
        phi = frozenset(x for x in range(u.n) if phi_mask & (1 << x))
        for psi_mask in range(1, 1 << u.n):
            psi = frozenset(x for x in range(u.n) if psi_mask & (1 << x))
            cand = RelFilterModule(u, phi, psi)
            if cand.is_phi_bimodule() and cand.is_psi_bimodule() and cand.is_adjoint():
                out.append(cand)
    out.sort(key=RelFilterModule.key)
    return out


def point_induced_module(u, x0):
    """The pair cut out by the map picking x0: structure after and before it."""
    return RelFilterModule(u, nbhd_right(u, x0), nbhd_left(u, x0))


def walked_quniformities(n):
    """Reference: the walk over all 2^(2^(n(n-1))) bases of reflexive
    relations, keeping the first valid base for each base intersection."""
    diag = frozenset((x, x) for x in range(n))
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    rels = []
    for mask in range(1 << len(offdiag)):
        extra = frozenset(offdiag[i] for i in range(len(offdiag)) if mask & (1 << i))
        rels.append(diag | extra)
    out = []
    seen = set()
    for r in range(1, 1 << len(rels)):
        base = [rels[i] for i in range(len(rels)) if r & (1 << i)]
        u = QuasiUniformity(n, base)
        if validate_quniformity(u)["ok"] and u.w not in seen:
            seen.add(u.w)
            out.append(u)
    return out


def check_uniform_continuity(f, u, v):
    """For each target base relation, some source base intersection works."""
    src_cands = [u.w]
    for b in v.base:
        ok = any(
            all((f[x], f[y]) in b for (x, y) in cand) for cand in src_cands + u.base
        )
        if not ok:
            return {"ok": False, "witness": sorted(b)}
    return {"ok": True}


def check_lax_morphism(f, u, v):
    """f . a <= b . f for a witness a per b, phrased with relation composites."""
    graph = frozenset((x, f[x]) for x in range(u.n))
    for b in v.base + [v.w]:
        b_after_f = rel_compose(graph, b)
        ok = any(rel_compose(a, graph) <= b_after_f for a in u.base + [u.w])
        if not ok:
            return {"ok": False, "witness": sorted(b)}
    return {"ok": True}


def test_discrete_and_indiscrete_validate():
    assert validate_quniformity(discrete_quniformity(3))["ok"]
    assert validate_quniformity(indiscrete_quniformity(3))["ok"]


def test_non_reflexive_base_rejected():
    u = QuasiUniformity(2, [frozenset({(0, 0)})])
    rep = validate_quniformity(u)
    assert not rep["ok"] and rep["law"] == "reflexivity"
    assert rep["witness"] == (0, 1)


def test_missing_square_root_rejected():
    u = QuasiUniformity(3, [frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)})])
    rep = validate_quniformity(u)
    assert not rep["ok"] and rep["law"] == "square-root"


def reference_validate_quniformity(u):
    """The intersection closure as a list with every repeat, 2^k long for k base relations."""
    if not u.base:
        return {"ok": False, "law": "empty-base", "witness": None}
    for i, r in enumerate(u.base):
        for x in range(u.n):
            if (x, x) not in r:
                return {"ok": False, "law": "reflexivity", "witness": (i, x)}
    closure = [u.base[0]]
    for r in u.base[1:]:
        closure += [c & r for c in closure] + [r]
    closure = set(closure)
    for r in closure:
        if not any(rel_compose(v, v) <= r for v in closure):
            return {"ok": False, "law": "square-root", "witness": sorted(r)}
    return {"ok": True}


def test_repeated_base_relations_validate_quickly():
    full = frozenset((x, y) for x in range(3) for y in range(3))
    start = time.perf_counter()
    assert validate_quniformity(QuasiUniformity(3, [full] * 40)) == {"ok": True}
    assert time.perf_counter() - start < 0.5


def test_intersection_closure_matches_the_repeated_list():
    rng = random.Random(1601)
    verdicts = set()
    for _ in range(400):
        n = rng.randrange(2, 4)
        diag = [(x, x) for x in range(n)]
        offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
        pool = [
            frozenset(diag + rng.sample(offdiag, rng.randrange(len(offdiag) + 1)))
            for _ in range(rng.randrange(1, 5))
        ]
        u = QuasiUniformity(n, [rng.choice(pool) for _ in range(rng.randrange(1, 10))])
        rep = validate_quniformity(u)
        assert rep == reference_validate_quniformity(u)
        verdicts.add(rep["ok"])
    assert verdicts == {True, False}


def random_distinct_base(rng, n, size, missing):
    """size distinct reflexive relations on n points, each without missing
    random off-diagonal pairs."""
    diag = [(x, x) for x in range(n)]
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    base = []
    while len(base) < size:
        r = frozenset(diag + rng.sample(offdiag, len(offdiag) - missing))
        if r not in base:
            base.append(r)
    return base


def test_square_roots_are_computed_once_per_intersection():
    # The diagonal among 11 dense relations: 460 distinct intersections,
    # each needing a square root.  Squaring the candidates again for every
    # intersection took 0.9 s; squaring each once takes 0.02 s.
    rng = random.Random(1701)
    diag = frozenset((x, x) for x in range(5))
    u = QuasiUniformity(5, random_distinct_base(rng, 5, 11, 3) + [diag])
    start = time.perf_counter()
    assert validate_quniformity(u) == {"ok": True}
    assert time.perf_counter() - start < 0.5


def test_square_root_witness_matches_the_scan_per_intersection():
    # The reference squares each candidate again for every intersection.
    rng = random.Random(1702)
    verdicts = []
    for _ in range(300):
        n = rng.randrange(3, 5)
        missing = rng.randrange(1, 4)
        u = QuasiUniformity(n, random_distinct_base(rng, n, rng.randrange(1, 6), missing))
        rep = validate_quniformity(u)
        assert rep == reference_validate_quniformity(u)
        verdicts.append(rep["ok"])
    assert True in verdicts and False in verdicts


def test_preorder_base_passes_by_transitivity():
    p = FinitePreorder.from_pairs(3, [(0, 1), (1, 2)])
    assert validate_quniformity(preorder_quniformity(p))["ok"]


def test_every_map_from_discrete_uniformly_continuous():
    d = discrete_quniformity(3)
    targets = [discrete_quniformity(2), indiscrete_quniformity(2),
               preorder_quniformity(FinitePreorder.from_pairs(2, [(0, 1)]))]
    for v in targets:
        for f in itertools.product(range(2), repeat=3):
            assert check_uniform_continuity(f, d, v)["ok"]


def test_continuity_failure_witness():
    d = discrete_quniformity(2)
    p = preorder_quniformity(FinitePreorder.from_pairs(2, [(0, 1)]))
    # from the chain into the discrete uniformity the collapse 0,1 -> 0,1
    # must fail: the chain relates 0 to 1 but the target diagonal does not
    rep = check_uniform_continuity((0, 1), p, d)
    assert not rep["ok"]


def test_lax_algebra_bridge_and_entourage_count():
    rep = lax_algebra_bridge(discrete_quniformity(2))
    assert rep["ok"]
    assert rep["entourage_count"] == 4


def materialised_bridge(u):
    """Reference bridge: both laws searched over every listed entourage."""
    ents = entourages(u)
    for a in ents:
        for x in range(u.n):
            if (x, x) not in a:
                return {"ok": False, "law": "unit", "witness": (sorted(a), x)}
    for a in ents:
        if not any(rel_compose(b, b) <= a for b in ents):
            return {"ok": False, "law": "composition", "witness": sorted(a)}
    return {"ok": True, "entourage_count": len(ents)}


def seeded_bases(count, seed):
    """Random bases on at most 3 points, half of them reflexive."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randrange(1, 4)
        density = rng.choice((0.2, 0.5, 0.8))
        base = []
        for _ in range(rng.randrange(1, 3)):
            rel = {(x, y) for x in range(n) for y in range(n) if rng.random() < density}
            if i % 2:
                rel |= {(x, x) for x in range(n)}
            base.append(frozenset(rel))
        out.append(QuasiUniformity(n, base))
    return out


def test_lax_algebra_bridge_matches_materialised_search():
    laws = set()
    for u in all_quniformities(2) + curated_three_point() + seeded_bases(300, 5):
        rep = lax_algebra_bridge(u)
        assert rep == materialised_bridge(u), sorted(u.w)
        laws.add(rep.get("law", "ok"))
    assert laws == {"ok", "unit", "composition"}


def test_lax_algebra_bridge_counts_entourages_without_listing_them():
    assert lax_algebra_bridge(discrete_quniformity(4)) == {"ok": True, "entourage_count": 2**12}
    assert lax_algebra_bridge(discrete_quniformity(5)) == {"ok": True, "entourage_count": 2**20}
    assert lax_algebra_bridge(indiscrete_quniformity(5)) == {"ok": True, "entourage_count": 1}


def test_lax_morphisms_match_uniform_continuity():
    instances = [
        discrete_quniformity(3),
        indiscrete_quniformity(3),
        preorder_quniformity(FinitePreorder.from_pairs(3, [(0, 1), (1, 2)])),
        preorder_quniformity(FinitePreorder.from_pairs(3, [(0, 1), (1, 0)])),
    ]
    for u in instances:
        for v in instances:
            for f in itertools.product(range(3), repeat=3):
                assert (
                    check_lax_morphism(f, u, v)["ok"]
                    == check_uniform_continuity(f, u, v)["ok"]
                )


def test_neighbourhood_pair_is_minimal_cauchy():
    for u in [discrete_quniformity(3), indiscrete_quniformity(3),
              preorder_quniformity(FinitePreorder.from_pairs(3, [(0, 1)]))]:
        for x0 in range(3):
            rep = cauchy_machinery(u, neighbourhood_pair(u, x0))
            assert rep["is_cauchy"] and rep["is_minimal"]
            assert x0 in rep["converges_to"]


def test_principal_whole_carrier_pair_on_indiscrete():
    u = indiscrete_quniformity(2)
    fp = FilterPair(2, {0, 1}, {0, 1})
    assert cauchy_machinery(u, fp)["is_cauchy"]


def test_non_intersecting_pair_rejected_at_construction():
    with pytest.raises(ValueError):
        FilterPair(2, {0}, {1})
    with pytest.raises(ValueError):
        FilterPair(2, set(), {0})


def coarser_pairs(fp):
    """Reference: every filter pair contained in this one (larger minima)."""
    n = fp.n
    rest_l = [x for x in range(n) if x not in fp.left]
    rest_r = [x for x in range(n) if x not in fp.right]
    for ml in range(1 << len(rest_l)):
        left = fp.left | {rest_l[i] for i in range(len(rest_l)) if ml & (1 << i)}
        for mr in range(1 << len(rest_r)):
            right = fp.right | {rest_r[i] for i in range(len(rest_r)) if mr & (1 << i)}
            if (left, right) != (fp.left, fp.right):
                yield FilterPair(n, left, right)


def searched_minimal_cauchy(u, fp):
    """Reference minimality: no coarser pair at all is Cauchy."""
    if not is_cauchy(u, fp):
        return False
    return all(not is_cauchy(u, coarser) for coarser in coarser_pairs(fp))


def reference_bridge(u):
    """Bijection between adjoint module pairs and minimal Cauchy filter pairs,
    with minimality by the full search over coarser pairs."""
    mods = adjoint_module_pairs(u)
    from_mods = {m.filter_pair() for m in mods}
    minimal = {fp for fp in all_filter_pairs(u.n) if searched_minimal_cauchy(u, fp)}
    forward_ok = all(searched_minimal_cauchy(u, m.filter_pair()) for m in mods)
    return {
        "forward": forward_ok,
        "bijection": from_mods == minimal,
        "module_pairs": len(mods),
        "minimal_cauchy_pairs": len(minimal),
    }


def suite_uniformities():
    return all_quniformities(2) + curated_three_point()


def preorder_bases(max_n):
    return [preorder_quniformity(p) for n in range(1, max_n + 1) for p in enumerate_preorders(n)]


def test_minimality_by_one_point_extension_matches_the_full_search():
    # both the one-point test on frozensets and the mask rule R = U(L),
    # L = D(R)
    checked = minimal = 0
    for u in suite_uniformities() + preorder_bases(4):
        order = u.order
        down, up = order.down, order.up
        for fp in all_filter_pairs(u.n):
            expected = searched_minimal_cauchy(u, fp)
            assert is_minimal_cauchy(u, fp) == expected, (sorted(u.w), fp)
            assert is_minimal_pair(down, up, mask(fp.left), mask(fp.right)) == expected
            checked += 1
            minimal += expected
    assert checked == 63588 and 0 < minimal < checked


def test_decide_lawvere_q_reports_the_reference_bridge(ext_factory):
    ext = ext_factory("id", "2")
    bijections = set()
    for u in suite_uniformities() + preorder_bases(3):
        rep = decide_lawvere_q(ext, u)
        bridge = reference_bridge(u)
        assert rep["pair_count"] == bridge["module_pairs"]
        for key in ("forward", "bijection", "minimal_cauchy_pairs"):
            assert rep[key] == bridge[key], (sorted(u.w), key)
        bijections.add(rep["bijection"])
    assert bijections == {True}


def test_item_quniform_enumerates_module_pairs_once_per_uniformity(monkeypatch):
    calls = []
    original = lawcat.quniform.decide_lawvere_complete

    def counted(x, oracle=False):
        calls.append(x)
        return original(x, oracle)

    monkeypatch.setattr(lawcat.quniform, "decide_lawvere_complete", counted)
    assert suite.item_quniform() == {"ok": True, "uniformities": 13}
    assert len(calls) == 13


def test_mask_cauchy_side_matches_the_frozenset_reference():
    # the whole report, minimal_pairs order included, on every
    # quasi-uniformity on 1 to 4 points and the curated three-point ones
    spaces = [u for n in range(1, 5) for u in all_quniformities(n)] + curated_three_point()
    assert len(spaces) == 389 + 9
    minimal = set()
    for u in spaces:
        rep = decide_cauchy_complete(u)
        assert rep == reference_cauchy_complete(u), sorted(u.w)
        minimal.add(len(rep["minimal_pairs"]))
    assert minimal == {1, 2, 3, 4}


def test_cauchy_side_matches_the_mask_walk_up_to_five_points():
    # the walk over all 4^n pairs of point masks that the neighbourhood
    # pairs replace: the whole report, on every quasi-uniformity on 1 to
    # 5 points and the curated three-point ones
    spaces = [u for n in range(1, 6) for u in all_quniformities(n)] + curated_three_point()
    assert len(spaces) == 7331 + 9
    for u in spaces:
        assert decide_cauchy_complete(u) == reference_cauchy_by_masks(u), sorted(u.w)


def test_a_valid_base_is_decided_on_w():
    # the full relation on 5 points without one off-diagonal pair, 15
    # times, and the diagonal: the closure walk meets 2^15 intersections
    n = 5
    full = frozenset((x, y) for x in range(n) for y in range(n))
    offdiag = sorted(p for p in full if p[0] != p[1])
    base = [full - {p} for p in offdiag[:15]] + [frozenset((x, x) for x in range(n))]
    start = time.perf_counter()
    assert validate_quniformity(QuasiUniformity(n, base)) == {"ok": True}
    assert time.perf_counter() - start < 0.5


def test_an_invalid_base_is_refused_with_the_failing_cell(ext_factory):
    diag = frozenset((x, x) for x in range(3))
    u = QuasiUniformity(3, [diag | {(0, 1), (1, 2)}])
    assert validate_quniformity(u)["law"] == "square-root"
    message = r"not transitive: \(0, 1\) and \(1, 2\), not \(0, 2\)"
    with pytest.raises(ValueError, match=message):
        decide_lawvere_q(ext_factory("id", "2"), u)
    with pytest.raises(ValueError, match=message):
        decide_cauchy_complete(u)
    with pytest.raises(ValueError, match=r"not reflexive: \(2, 2\) is missing"):
        QuasiUniformity(3, [diag - {(2, 2)}]).order
    with pytest.raises(ValueError, match="empty base"):
        QuasiUniformity(3, []).order


def test_a_nonempty_base_is_valid_iff_w_is_a_preorder():
    # one and two relations on 2 points, and reflexive ones on 3 points
    def relations(n, reflexive):
        cells = [(x, y) for x in range(n) for y in range(n) if not (reflexive and x == y)]
        fixed = {(x, x) for x in range(n)} if reflexive else set()
        return [
            frozenset(fixed | {c for i, c in enumerate(cells) if mask >> i & 1})
            for mask in range(1 << len(cells))
        ]

    checked = 0
    for n, reflexive in ((2, False), (3, True)):
        rels = relations(n, reflexive)
        for base in [[r] for r in rels] + [[r, t] for r in rels for t in rels]:
            u = QuasiUniformity(n, base)
            try:
                u.order
                preorder = True
            except ValueError:
                preorder = False
            assert validate_quniformity(u)["ok"] == preorder, base
            checked += 1
    assert checked == 16 + 256 + 64 + 4096


def test_complete_discrete_and_indiscrete():
    for u in (discrete_quniformity(2), indiscrete_quniformity(3)):
        rep = decide_cauchy_complete(u)
        assert rep["complete"] and rep["minimal_are_neighbourhoods"]


def test_all_two_point_uniformities_complete_and_bridge(ext_factory):
    us = all_quniformities(2)
    assert len(us) == 4
    for u in us:
        assert decide_cauchy_complete(u)["complete"]
        rep = decide_lawvere_q(ext_factory("id", "2"), u)
        assert rep["forward"] and rep["bijection"]
        assert rep["agree"] and rep["lawvere"]


def test_curated_three_point_sweep(ext_factory):
    for u in curated_three_point():
        assert validate_quniformity(u)["ok"]
        rep = decide_lawvere_q(ext_factory("id", "2"), u)
        assert rep["forward"] and rep["bijection"]
        assert rep["agree"]


def test_point_induced_pair_maps_to_neighbourhood_filter():
    for u in curated_three_point():
        for x0 in range(u.n):
            mod = point_induced_module(u, x0)
            assert mod.is_phi_bimodule() and mod.is_psi_bimodule() and mod.is_adjoint()
            assert mod.filter_pair() == neighbourhood_pair(u, x0)


def test_filter_pair_count_matches_module_pairs(ext_factory):
    for u in all_quniformities(2) + curated_three_point():
        rep = decide_lawvere_q(ext_factory("id", "2"), u)
        assert rep["pair_count"] == rep["minimal_cauchy_pairs"]


def test_adjunction_inequalities_decompose_into_filter_and_cauchy():
    # raw pairs: the unit says the two minima intersect, the counit says
    # their rectangle fits the entourage minimum; together they say the
    # induced pair is Cauchy, and adding the module laws says minimal
    for u in all_quniformities(2) + curated_three_point():
        n = u.n
        for fmask, gmask in itertools.product(range(1, 1 << n), repeat=2):
            phi = frozenset(x for x in range(n) if fmask & (1 << x))
            psi = frozenset(x for x in range(n) if gmask & (1 << x))
            cand = RelFilterModule(u, phi, psi)
            intersects = bool(phi & psi)
            cauchy_rect = all((x, y) in u.w for x in psi for y in phi)
            assert cand.is_adjoint() == (intersects and cauchy_rect)
            if intersects:
                fp = FilterPair(n, psi, phi)
                assert is_cauchy(u, fp) == cauchy_rect
                if cand.is_adjoint():
                    full = cand.is_phi_bimodule() and cand.is_psi_bimodule()
                    assert full == cauchy_machinery(u, fp)["is_minimal"]


def test_up_closure_idempotent():
    u = preorder_quniformity(FinitePreorder.from_pairs(3, [(0, 1)]))
    again = QuasiUniformity(u.n, entourages(u))
    assert again.w == u.w
    assert entourages(again) == entourages(u)


def test_up_closure_independent_of_base_presentation():
    chain = FinitePreorder.from_pairs(2, [(0, 1)])
    w = frozenset({(0, 0), (1, 1), (0, 1)})
    full = frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})
    u1 = QuasiUniformity(2, [w])
    u2 = QuasiUniformity(2, [w, full])
    assert entourages(u1) == entourages(u2)


def test_module_pairs_match_the_frozenset_reference_on_every_small_space(ext_factory):
    # Every quasi-uniformity on 1 to 4 points: the adjoint pairs of the
    # (id, 2)-category on w are the reference's pairs of minima.
    ext = ext_factory("id", "2")
    spaces = [u for n in range(1, 5) for u in all_quniformities(n)]
    assert len(spaces) == 389
    for u in spaces:
        rep = decide_lawvere_q(ext, u)
        mods = adjoint_module_pairs(u)
        induced = {point_induced_module(u, x0).key() for x0 in range(u.n)}
        assert rep["module_pairs"] == [m.key() for m in mods], sorted(u.w)
        assert rep["pair_count"] == len(mods)
        assert rep["lawvere"] and all(m.key() in induced for m in mods)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_all_quniformities_matches_the_walk_over_bases(n):
    walked = walked_quniformities(n)
    listed = all_quniformities(n)
    assert [(u.n, u.base) for u in listed] == [(u.n, u.base) for u in walked]
    assert len(listed) == [1, 1, 4][n]


def test_curated_spaces_are_among_the_three_point_preorders():
    spaces = {u.w for u in all_quniformities(3)}
    assert len(spaces) == 29
    curated = curated_three_point()
    assert len(curated) == 9
    assert all(u.w in spaces for u in curated)


@pytest.mark.parametrize(
    "n,what,needed",
    [(1, "psi space", 2), (2, "psi space", 4), (3, "extended matrix size", 9)],
    ids=["n1", "n2", "n3"],
)
def test_module_side_refuses_exactly_above_needed(n, what, needed):
    # max(2^n psi points, n^2 cells of the extended structure); on 3 points
    # the psi space (8) refuses first below 8
    u = all_quniformities(n)[-1]

    def run(budget):
        return decide_lawvere_q(LaxExtension(builtin_monad("id"), builtin("2"), budget), u)

    with pytest.raises(BudgetExceeded) as info:
        run(needed - 1)
    assert (info.value.what, info.value.needed, info.value.budget) == (what, needed, needed - 1)
    assert run(needed)["agree"]
    if n == 3:
        with pytest.raises(BudgetExceeded) as info:
            run(7)
        assert (info.value.what, info.value.needed) == ("psi space", 8)
