import itertools
import random

import pytest

from lawcat.completeness import decide_lawvere_complete
from lawcat.errors import GateUnavailable
from lawcat.instances import (
    FinitePreorder,
    approach_surrogate,
    companion_masks,
    enumerate_preorders,
    level_masks,
    sober_vs_lawvere,
    tvcategory_from_space,
    weakly_sober,
)
from lawcat.laxext import LaxExtension
from lawcat.monad import builtin_monad
from lawcat.quantale import builtin
from lawcat.tvcat import TVCategory, _points, all_tvcategories
from lawcat.vmatrix import VMatrix

from support import (
    closed_sets,
    distance_readings,
    join_all,
    reference_approach_surrogate,
    reference_closed,
    reference_companion,
    reference_levels,
    reference_enumerate_preorders,
    reference_point_distance,
    weakly_sober_by_closed_sets,
)


def is_valid(leq):
    """Reflexivity and transitivity of a preorder's table, cell by cell."""
    n = len(leq)
    ok_refl = all(leq[x][x] for x in range(n))
    ok_trans = all(
        not (leq[x][y] and leq[y][z]) or leq[x][z]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    return ok_refl and ok_trans


def closure(order, pts):
    """The points below some point of pts in the specialization order."""
    return tuple(sorted(y for y in range(order.n) if any(order.leq[y][x] for x in pts)))


def open_sets(order):
    full = set(range(order.n))
    return [tuple(sorted(full - set(c))) for c in closed_sets(order)]


def space_from_tvcategory(cat):
    # rows index the converging point, columns the limit: u below v iff v -> u
    n = cat.n
    k = cat.q.unit
    return FinitePreorder(
        n, tuple(tuple(cat.a.data[v][u] == k for v in range(n)) for u in range(n))
    )


def preorder_roundtrip(p):
    """Preorder -> space -> structure -> space -> preorder, with verdicts."""
    ultra = builtin_monad("ultra")
    ext = LaxExtension(ultra, builtin("2"))
    cat = tvcategory_from_space(ext, p)
    back = space_from_tvcategory(cat)
    id_ext = LaxExtension(builtin_monad("id"), builtin("2"))
    as_order_cat = TVCategory(id_ext, p.n, VMatrix(id_ext.q, p.n, p.n, cat.a.data))
    ultra_verdict = decide_lawvere_complete(cat)["complete"]
    order_verdict = decide_lawvere_complete(as_order_cat)["complete"]
    return {
        "roundtrip_identity": back == p,
        "ultra_complete": ultra_verdict,
        "order_complete": order_verdict,
        "verdicts_agree": ultra_verdict == order_verdict,
    }


def row_from_levels(q, n, levels):
    """The value of each point: the largest v whose level holds it."""
    row = []
    for x in range(n):
        holding = [v for v in range(q.n) if levels[v] >> x & 1]
        row.append(next(v for v in holding if all(q.leq[w][v] for w in holding)))
    return tuple(row)


def point_levels(cat):
    """level_masks of each point's row a(x, -): its distance profile."""
    return [level_masks(cat.q, cat.a.data[x]) for x in range(cat.n)]


def test_preorder_counts():
    assert len(enumerate_preorders(1)) == 1
    assert len(enumerate_preorders(2)) == 4
    assert len(enumerate_preorders(3)) == 29


def filter_preorders(n):
    """Reference enumerator: every reflexive relation in mask order, filtered
    before it is built, since FinitePreorder refuses a table that is not a
    preorder."""
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for mask in range(1 << len(offdiag)):
        leq = [[x == y for y in range(n)] for x in range(n)]
        for i, (x, y) in enumerate(offdiag):
            if mask & (1 << i):
                leq[x][y] = True
        if is_valid(leq):
            out.append(FinitePreorder(n, leq))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_backtracking_preorders_match_the_filter(n):
    assert enumerate_preorders(n) == filter_preorders(n)


@pytest.mark.parametrize("n", range(6))
def test_enumerate_preorders_matches_the_walk_it_replaced(n):
    # each row walks only the subsets of its bound and each leaf is built
    # trusted: the same preorders as the reference walk, in its order,
    # with the same up and down masks
    expected = reference_enumerate_preorders(n)
    got = enumerate_preorders(n)
    assert [(p.n, p.up, p.down) for p in got] == [(p.n, p.up, p.down) for p in expected]
    assert len(got) == (1, 1, 4, 29, 355, 6942)[n]


def closure_table(n, pairs):
    """The reflexive-transitive closure of pairs as a boolean table, by
    adding x <= z for x <= y <= z until nothing changes."""
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    changed = True
    while changed:
        changed = False
        for x, y, z in itertools.product(range(n), repeat=3):
            if leq[x][y] and leq[y][z] and not leq[x][z]:
                leq[x][z] = changed = True
    return leq


def test_trusted_preorders_match_the_checked_constructor():
    # every preorder on at most 5 points, then seeded closures of pairs on
    # up to 7: trusted keeps the masks from_up accepts and derives the same
    # down masks; from_pairs' closure is the table's closure
    rng = random.Random("trusted/from_up")
    seeded = []
    for n in range(1, 8):
        offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
        for _ in range(60):
            pairs = rng.sample(offdiag, rng.randrange(min(2 * n, len(offdiag)) + 1))
            order = FinitePreorder.from_pairs(n, pairs)
            assert order == FinitePreorder(n, closure_table(n, pairs))
            seeded.append(order)
    every = [p for n in range(6) for p in enumerate_preorders(n)]
    for p in every + seeded:
        checked = FinitePreorder.from_up(p.n, p.up)
        trusted = FinitePreorder.trusted(p.n, list(p.up))
        assert (trusted.n, trusted.up, trusted.down, trusted.leq) == (
            checked.n, checked.up, checked.down, checked.leq
        )
        assert (p.down, p.leq) == (checked.down, checked.leq)


@pytest.mark.parametrize("pair", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_from_pairs_refuses_a_point_off_the_carrier(pair):
    with pytest.raises(ValueError, match=r"is not on 2 points"):
        FinitePreorder.from_pairs(2, [pair])


def test_five_point_preorder_count():
    preorders = enumerate_preorders(5)
    assert len(preorders) == 6942
    assert len(set(preorders)) == 6942
    assert all(is_valid(p.leq) for p in preorders)


def test_preorders_come_out_in_increasing_off_diagonal_mask_order():
    offdiag = [(x, y) for x in range(5) for y in range(5) if x != y]
    masks = [
        sum(1 << i for i, (x, y) in enumerate(offdiag) if p.up[x] >> y & 1)
        for p in enumerate_preorders(5)
    ]
    assert all(a < b for a, b in zip(masks, masks[1:]))


def table_check(n, leq):
    """The preorder check on a boolean table, as FinitePreorder ran it
    before its up masks were the representation: (up, down, leq) of a
    preorder, or its ValueError."""
    rows = tuple([tuple(map(bool, row)) for row in leq])
    if list(map(len, rows)) != [n] * n:
        raise ValueError(f"not a {n}x{n} table")
    bits = [1 << y for y in range(n)]
    up = tuple([sum(itertools.compress(bits, row)) for row in rows])
    down = tuple([sum(itertools.compress(bits, column)) for column in zip(*rows)])
    for x, mask in enumerate(up):
        if not mask >> x & 1:
            raise ValueError(f"not reflexive: ({x}, {x}) is missing")
        for y in itertools.compress(range(n), rows[x]):
            if up[y] & ~mask:
                z = min(z for z in range(n) if (up[y] & ~mask) >> z & 1)
                raise ValueError(f"not transitive: ({x}, {y}) and ({y}, {z}), not ({x}, {z})")
    return up, down, rows


def outcome(build, *args):
    """(up, down, leq) of what build returns, or the text of its ValueError."""
    try:
        p = build(*args)
    except ValueError as err:
        return str(err)
    return (p.up, p.down, p.leq) if isinstance(p, FinitePreorder) else p


def check_tables():
    """Every 0/1 table on at most 3 points, then seeded tables on 4 and 5:
    random ones, and preorders with one cell flipped."""
    for n in range(4):
        for cells in itertools.product((False, True), repeat=n * n):
            yield n, [list(cells[x * n : (x + 1) * n]) for x in range(n)]
    rng = random.Random("mask-check")
    for n in (4, 5):
        offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
        for _ in range(300):
            density = rng.choice((0.2, 0.5, 0.8))
            yield n, [[rng.random() < density or (x == y and rng.random() < 0.9)
                       for y in range(n)] for x in range(n)]
            order = FinitePreorder.from_pairs(n, rng.sample(offdiag, rng.randrange(2 * n)))
            leq = [list(row) for row in order.leq]
            x, y = rng.randrange(n), rng.randrange(n)
            leq[x][y] = not leq[x][y]
            yield n, leq


def test_mask_check_agrees_with_the_table_check():
    seen = set()
    for n, leq in check_tables():
        expected = outcome(table_check, n, leq)
        assert outcome(FinitePreorder, n, leq) == expected, (n, leq)
        masks = [sum(1 << y for y in range(n) if row[y]) for row in leq]
        assert outcome(FinitePreorder.from_up, n, masks) == expected, (n, leq)
        seen.add((n, expected.split(":")[0] if isinstance(expected, str) else "preorder"))
    assert seen == {(0, "preorder")} | {
        (n, kind) for n in range(1, 6) for kind in ("preorder", "not reflexive", "not transitive")
    } - {(1, "not transitive"), (2, "not transitive")}


def test_from_up_refuses_masks_of_the_wrong_shape():
    with pytest.raises(ValueError, match="not 2 masks on 2 points"):
        FinitePreorder.from_up(2, [1])
    with pytest.raises(ValueError, match="not 2 masks on 2 points"):
        FinitePreorder.from_up(2, [1, 6])


def test_the_converse_is_the_preorder_of_the_transposed_table():
    # converse() swaps the masks without a check; from_up checks them
    for n in range(5):
        for p in enumerate_preorders(n):
            transposed = FinitePreorder(n, [[p.leq[y][x] for y in range(n)] for x in range(n)])
            for converse in (p.converse(), FinitePreorder.from_up(n, p.down)):
                assert (converse.n, converse.up, converse.down, converse.leq) == (
                    transposed.n, transposed.up, transposed.down, transposed.leq
                )
                assert converse.down == p.up
            assert p.converse().converse() == p


def reference_closed_sets(order):
    """Down-sets as sorted tuples, by a membership test on each subset."""
    out = []
    for mask in range(1 << order.n):
        pts = [x for x in range(order.n) if mask & (1 << x)]
        if all(not order.leq[y][x] or y in pts for x in pts for y in range(order.n)):
            out.append(tuple(pts))
    return out


def reference_weakly_sober(order):
    """Set algebra over every pair of closed sets."""
    closed = reference_closed_sets(order)
    closed_sets = [set(c) for c in closed]
    details = []
    sober = True
    for c in closed:
        cs = set(c)
        if not cs:
            continue
        if any(a < cs and b < cs and a | b == cs for a in closed_sets for b in closed_sets):
            continue
        generic = tuple(x for x in c if set(closure(order, (x,))) == cs)
        if not generic:
            sober = False
        details.append({"closed_set": c, "generic_points": generic})
    return {"weakly_sober": sober, "irreducible": details}


def test_bitmask_sobriety_matches_set_reference():
    rng = random.Random(8)
    offdiag = [(x, y) for x in range(5) for y in range(5) if x != y]
    seeded = [
        FinitePreorder.from_pairs(5, rng.sample(offdiag, rng.randrange(10))) for _ in range(200)
    ]
    for p in [p for n in range(5) for p in enumerate_preorders(n)] + seeded:
        assert closed_sets(p) == reference_closed_sets(p)
        assert weakly_sober(p) == reference_weakly_sober(p)


def test_point_closures_match_the_closed_set_search():
    # weakly_sober reads the point closures; the reference walks all 2^n
    # masks and tests each closed one against its proper closed subsets
    rng = random.Random("sobriety/closures")
    seeded = []
    for n in (6, 7, 8):
        offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
        for _ in range(300):
            seeded.append(FinitePreorder.from_pairs(n, rng.sample(offdiag, rng.randrange(2 * n))))
    every = [p for n in range(6) for p in enumerate_preorders(n)]
    assert len(every) == 7332
    for p in every + seeded:
        assert weakly_sober(p) == weakly_sober_by_closed_sets(p), p.leq


def test_weak_sobriety_reaches_twenty_points():
    rep = weakly_sober(FinitePreorder.from_pairs(20, []))
    assert rep["weakly_sober"]
    assert rep["irreducible"] == [
        {"closed_set": (x,), "generic_points": (x,)} for x in range(20)
    ]


def test_finite_preorder_refuses_a_non_reflexive_table():
    with pytest.raises(ValueError, match=r"not reflexive: \(1, 1\) is missing"):
        FinitePreorder(2, [[True, True], [False, False]])


def test_finite_preorder_refuses_a_non_transitive_table():
    leq = [[x == y or (x, y) in ((0, 1), (1, 2)) for y in range(3)] for x in range(3)]
    with pytest.raises(ValueError, match=r"not transitive: \(0, 1\) and \(1, 2\), not \(0, 2\)"):
        FinitePreorder(3, leq)
    with pytest.raises(ValueError, match="not a 3x3 table"):
        FinitePreorder(3, leq[:2])


def test_preorder_closure():
    p = FinitePreorder.from_pairs(3, [(0, 1), (1, 2)])
    assert p.leq[0][2]
    assert is_valid(p.leq)


def test_discrete_preorder_gives_discrete_space():
    p = FinitePreorder.from_pairs(2, [])
    assert len(closed_sets(p)) == 4


def test_two_chain_gives_sierpinski():
    p = FinitePreorder.from_pairs(2, [(0, 1)])
    assert closed_sets(p) == [(), (0,), (0, 1)]
    assert len(open_sets(p)) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_roundtrip_bijective(n):
    seen = set()
    for p in enumerate_preorders(n):
        rep = preorder_roundtrip(p)
        assert rep["roundtrip_identity"]
        assert rep["verdicts_agree"]
        seen.add(p.leq)
    assert len(seen) == len(enumerate_preorders(n))


def test_sierpinski_weakly_sober():
    rep = weakly_sober(FinitePreorder.from_pairs(2, [(0, 1)]))
    assert rep["weakly_sober"]
    assert len(rep["irreducible"]) == 2
    assert all(d["generic_points"] for d in rep["irreducible"])


def test_indiscrete_has_non_unique_generic_point():
    rep = weakly_sober(FinitePreorder.from_pairs(2, [(0, 1), (1, 0)]))
    assert rep["weakly_sober"]
    assert rep["irreducible"][0]["generic_points"] == (0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sober_agrees_with_completeness(ext_factory, n):
    ext = ext_factory("ultra", "2")
    for p in enumerate_preorders(n):
        rep = sober_vs_lawvere(ext, p)
        assert rep["agree"] and rep["weakly_sober"]


def test_space_category_space_roundtrip(ext_factory):
    ext = ext_factory("ultra", "2")
    for p in enumerate_preorders(3)[:10]:
        cat = tvcategory_from_space(ext, p)
        assert space_from_tvcategory(cat) == p


def test_variable_set_bijection_with_rows():
    q = builtin("plus3")
    for row in itertools.product(range(q.n), repeat=2):
        levels = level_masks(q, row)
        assert row_from_levels(q, 2, levels) == row
        assert levels[q.bottom] == 0b11
        expected = reference_levels(q, 2, row)
        assert [sum(1 << x for x in expected[v]) for v in range(q.n)] == levels


def test_point_distance_is_minimum():
    # the distance from a set is the join of the structure values into x,
    # read as a distance: the least one, inf (bottom) for the empty set
    ext_q = builtin("plus3")
    num = distance_readings(ext_q)
    ext = LaxExtension(builtin_monad("ultra"), ext_q)

    def distance(cat, pts, x):
        return num[join_all(ext_q, (cat.a.data[y][x] for y in pts))]

    a = VMatrix(ext_q, 2, 2, ((3, 2), (0, 3)))
    cat = TVCategory(ext, 2, a)
    assert distance(cat, [0, 1], 1) == 0
    assert distance(cat, [0], 1) == 1
    assert distance(cat, [1], 0) is None
    assert distance(cat, [], 0) is None
    for cells in itertools.product(range(ext_q.n), repeat=4):
        cat = TVCategory(ext, 2, VMatrix(ext_q, 2, 2, (cells[:2], cells[2:])))
        for pts in ((), (0,), (1,), (0, 1)):
            for x in range(2):
                assert distance(cat, pts, x) == reference_point_distance(cat, pts, x)


def closed_by_distances(cat, levels):
    """The reference closedness test on a mask family."""
    return reference_closed(cat, [frozenset(_points(mask)) for mask in levels])


def irreducible(cat, levels):
    companion = companion_masks(cat.q, point_levels(cat), levels)
    return all(level & comp for level, comp in zip(levels, companion))


def positive_levels_meet_companions(cat, levels):
    """The literal half-line form of irreducibility: only strictly positive
    levels meet their companion levels.  Strictly weaker on a finite chain."""
    q = cat.q
    num = distance_readings(q)
    companion = companion_masks(q, point_levels(cat), levels)
    return all(levels[u] & companion[u] for u in range(q.n) if num[u] != 0)


def test_one_point_distance_one_profile_not_irreducible(ext_factory):
    # regression for the attained-infimum reading: over the real half-line
    # the positive-level form would fail at levels below one, which do not
    # exist on the finite chain, so level zero must participate
    ext = ext_factory("ultra", "plus3")
    q = ext.q
    cats = all_tvcategories(ext, 1)
    cat = cats[0]
    row = (q.label_index["1"],)
    levels = level_masks(q, row)
    assert closed_by_distances(cat, levels)
    assert positive_levels_meet_companions(cat, levels)
    assert not irreducible(cat, levels)


def test_one_point_surrogate():
    ext = LaxExtension(builtin_monad("ultra"), builtin("plus3"))
    for cat in all_tvcategories(ext, 1):
        rep = approach_surrogate(cat)
        assert rep["equivalence"]
        profile = level_masks(cat.q, cat.a.data[0])
        assert [x for x, ball in enumerate(point_levels(cat)) if ball == profile] == [0]


@pytest.mark.parametrize("n", [1, 2])
def test_surrogate_equivalence_exhaustive(ext_factory, n):
    ext = ext_factory("ultra", "plus3")
    for cat in all_tvcategories(ext, n):
        rep = approach_surrogate(cat)
        assert rep["equivalence"], (cat.a.data, rep["mismatches"][:2])
        assert rep["analysis_complete"] == rep["lawvere_complete"]


def test_discrete_structure_profiles(ext_factory):
    # every irreducible closed family over the discrete structure is a
    # point's distance profile
    ext = ext_factory("ultra", "plus3")
    q = ext.q
    from lawcat.tvcat import discrete_tvcategory

    cat = discrete_tvcategory(ext, 2)
    profiles = []
    for row in itertools.product(range(q.n), repeat=2):
        levels = level_masks(q, row)
        if closed_by_distances(cat, levels) and irreducible(cat, levels):
            assert levels in point_levels(cat), row
            profiles.append(row)
    assert len(profiles) == 2


def test_companion_matches_adjoint_levels(ext_factory):
    ext = ext_factory("ultra", "plus3")
    q = ext.q
    for cat in all_tvcategories(ext, 2)[:8]:
        verdict = decide_lawvere_complete(cat)
        for pair in verdict["pairs"]:
            row = pair.phi.data[0]
            levels = level_masks(q, row)
            companion = companion_masks(q, point_levels(cat), levels)
            psi_row = tuple(r[0] for r in pair.psi.data)
            assert companion == level_masks(q, psi_row)
            expected = reference_companion(cat, reference_levels(q, 2, row))
            assert [sum(1 << y for y in expected[v]) for v in range(q.n)] == companion


def test_surrogate_requires_chain(ext_factory):
    ext = ext_factory("ultra", "pset2")
    cat = all_tvcategories(ext, 1)[0]
    with pytest.raises(GateUnavailable, match="chain quantale"):
        approach_surrogate(cat)


def test_surrogate_accepts_the_one_letter_powerset_chain(ext_factory):
    # pset1 is the chain {} < {a}: the gate reads the order, not a table
    # of distances, so it is analysed like 2
    ext = ext_factory("ultra", "pset1")
    for n in (1, 2):
        for cat in all_tvcategories(ext, n):
            rep = approach_surrogate(cat)
            assert rep["equivalence"], (cat.a.data, rep["mismatches"][:2])
            assert rep == reference_approach_surrogate(cat)


CHAIN_DISTANCES = {
    "2": (None, 0),
    "c3": (None, 1, 0),
    "c4": (None, 2, 1, 0),
}


@pytest.mark.parametrize("name", ["2", "c3", "c4", "plus2", "plus3", "plus4"])
def test_distance_readings_reverse_the_chain_order(name):
    q = builtin(name)
    num = distance_readings(q)
    if name.startswith("plus"):
        assert num == tuple(None if label == "inf" else int(label) for label in q.labels)
    else:
        assert num == CHAIN_DISTANCES[name]
    for u, v in itertools.product(range(q.n), repeat=2):
        at_most = num[v] is None or (num[u] is not None and num[u] <= num[v])
        assert at_most == q.leq[v][u], (q.labels[u], q.labels[v])


def test_surrogate_matches_the_distance_reference_on_small_matrices():
    # every matrix on 1 and 2 points, categories or not
    total = mismatched = 0
    for mname in ("id", "ultra"):
        for qname in ("2", "c3", "plus2", "plus3"):
            ext = LaxExtension(builtin_monad(mname), builtin(qname))
            q = ext.q
            for n in (1, 2):
                for cells in itertools.product(range(q.n), repeat=n * n):
                    data = [cells[i * n : (i + 1) * n] for i in range(n)]
                    cat = TVCategory(ext, n, VMatrix(q, n, n, data))
                    rep = approach_surrogate(cat)
                    assert rep == reference_approach_surrogate(cat), (mname, qname, data)
                    total += 1
                    mismatched += bool(rep["mismatches"])
    assert (total, mismatched) == (892, 80)


def test_surrogate_matches_the_distance_reference_on_closed_three_point_structures(ext_factory):
    # seeded structures, closed under composition and given the unit on
    # the diagonal, so each is a category
    ext = ext_factory("ultra", "plus3")
    q = ext.q
    rng = random.Random("approach/three-point")
    for _ in range(20):
        a = [[q.unit if x == y else rng.randrange(q.n) for y in range(3)] for x in range(3)]
        changed = True
        while changed:
            changed = False
            for x, y, z in itertools.product(range(3), repeat=3):
                v = q.join_t[a[x][z]][q.tensor[a[x][y]][a[y][z]]]
                if v != a[x][z]:
                    a[x][z], changed = v, True
        cat = TVCategory(ext, 3, VMatrix(q, 3, 3, a))
        assert cat.verdict()["ok"]
        assert approach_surrogate(cat) == reference_approach_surrogate(cat), a
