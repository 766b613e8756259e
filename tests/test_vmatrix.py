import itertools
import os
import random

import pytest

from lawcat.errors import DEFAULT_MAX_ENUM, BudgetExceeded, DimensionMismatch, QuantaleMismatch
from lawcat.fileio import parse_quantale_text
from lawcat.laxext import LaxExtension
from lawcat.monad import builtin_monad
from lawcat.quantale import (
    builtin,
    builtin_quantales,
    same_quantale,
    tensor_complement_scan,
    validate_quantale,
)
from lawcat.suite import ACCEPT_QUANTALES
from lawcat.vmatrix import (
    VMatrix,
    all_matrices,
    check_order_reversal,
    composite_le,
    is_left_adjoint,
    left_adjoint_map_criterion,
    mcompose,
    postcompose_map,
    precompose_map,
    right_adjoint_candidate,
    select_cols,
)

from support import constant_matrix, group_quantale, identity_matrix, join_all


def id_ext(q, max_enum=DEFAULT_MAX_ENUM):
    """The (id, V) extension a V-matrix sweep holds its budget on."""
    return LaxExtension(builtin_monad("id"), q, max_enum)


def check_adjunction(r, s):
    """Decide r -| s for r: X -|-> Y, s: Y -|-> X.

    Evaluates 1_X <= s.r and r.s <= 1_Y, plus the pointwise reading
    (unit join equals the quantale unit on each x; cross terms at
    distinct targets annihilate) and confirms the two agree.
    """
    same_quantale(r.q, s.q)
    q = r.q
    if r.rows != s.cols or r.cols != s.rows:
        raise DimensionMismatch("adjunction needs opposed shapes")
    unit_fail = []
    sr = mcompose(s, r)
    for x in range(r.rows):
        if not q.leq[q.unit][sr.data[x][x]]:
            unit_fail.append(x)
    counit_fail = []
    rs = mcompose(r, s)
    eye = identity_matrix(q, r.cols)
    for y in range(r.cols):
        for y2 in range(r.cols):
            if not q.leq[rs.data[y][y2]][eye.data[y][y2]]:
                counit_fail.append((y, y2))
    ok = not unit_fail and not counit_fail

    pointwise_ok = True
    for x in range(r.rows):
        acc = q.bottom
        for y in range(r.cols):
            acc = q.join_t[acc][q.tensor[r.data[x][y]][s.data[y][x]]]
        if acc != q.unit:
            pointwise_ok = False
        for y in range(r.cols):
            for y2 in range(r.cols):
                if y != y2 and q.tensor[s.data[y][x]][r.data[x][y2]] != q.bottom:
                    pointwise_ok = False
    if pointwise_ok != ok:
        raise AssertionError("adjunction characterizations disagree; composition bug")
    return {"is_adjoint": ok, "unit_failures": unit_fail, "counit_failures": counit_fail}


def naive_compose(outer, inner):
    """Reference evaluator: independent double loop, no shortcuts."""
    q = inner.q
    data = []
    for x in range(inner.rows):
        row = []
        for z in range(outer.cols):
            acc = q.bottom
            for y in range(inner.cols):
                acc = q.join_t[acc][q.tensor[inner.data[x][y]][outer.data[y][z]]]
            row.append(acc)
        data.append(tuple(row))
    return VMatrix(q, inner.rows, outer.cols, data)


def rand_matrix(rng, q, rows, cols):
    return VMatrix(q, rows, cols, [[rng.randrange(q.n) for _ in range(cols)] for _ in range(rows)])


def test_compose_against_naive_reference():
    rng = random.Random(7)
    for name in ("2", "c3", "plus3", "pset2"):
        q = builtin(name)
        for _ in range(40):
            nx, ny, nz = (rng.randrange(1, 4) for _ in range(3))
            r = rand_matrix(rng, q, nx, ny)
            s = rand_matrix(rng, q, ny, nz)
            assert mcompose(s, r) == naive_compose(s, r)


def test_single_point_relation_composes_to_unit():
    q = builtin("2")
    r = VMatrix(q, 1, 2, ((q.unit, q.bottom),))
    s = VMatrix(q, 2, 1, ((q.unit,), (q.bottom,)))
    assert mcompose(s, r).data == ((q.unit,),)


def test_identity_is_neutral_and_composition_associative():
    rng = random.Random(11)
    q = builtin("plus3")
    for _ in range(25):
        r = rand_matrix(rng, q, 2, 3)
        s = rand_matrix(rng, q, 3, 2)
        t = rand_matrix(rng, q, 2, 2)
        assert mcompose(identity_matrix(q, 3), r) == r
        assert mcompose(r, identity_matrix(q, 2)) == r
        assert mcompose(t, mcompose(s, r)) == mcompose(mcompose(t, s), r)


def test_transpose_involution_and_antihomomorphism():
    rng = random.Random(13)
    q = builtin("c3")
    for _ in range(25):
        r = rand_matrix(rng, q, 2, 3)
        s = rand_matrix(rng, q, 3, 2)
        assert r.transpose().transpose() == r
        assert mcompose(s, r).transpose() == mcompose(r.transpose(), s.transpose())
    assert identity_matrix(q, 3).transpose() == identity_matrix(q, 3)


def test_transpose_preserves_order():
    rng = random.Random(17)
    q = builtin("c4")
    for _ in range(25):
        r = rand_matrix(rng, q, 2, 2)
        r2 = r.join(rand_matrix(rng, q, 2, 2))
        assert r.le(r2)
        assert r.transpose().le(r2.transpose())


def test_from_map_identity_and_functoriality():
    q = builtin("2")
    assert VMatrix.from_map(q, (0, 1), 2, 2) == identity_matrix(q, 2)
    f = (1, 0, 1)
    g = (0, 0)
    fg = tuple(g[f[x]] for x in range(3))
    assert mcompose(VMatrix.from_map(q, g, 2, 2), VMatrix.from_map(q, f, 3, 2)) == VMatrix.from_map(
        q, fg, 3, 2
    )


def test_map_composition_shortcuts():
    rng = random.Random(19)
    q = builtin("plus3")
    for _ in range(30):
        f = tuple(rng.randrange(3) for _ in range(2))
        s = rand_matrix(rng, q, 3, 2)
        lhs = mcompose(s, VMatrix.from_map(q, f, 2, 3))
        for x in range(2):
            for z in range(2):
                assert lhs.data[x][z] == s.data[f[x]][z]
        g = tuple(rng.randrange(2) for _ in range(3))
        r = rand_matrix(rng, q, 2, 3)
        rhs = mcompose(VMatrix.from_map(q, g, 3, 2), r)
        for x in range(2):
            for z in range(2):
                expect = join_all(q, (r.data[x][y] for y in range(3) if g[y] == z))
                assert rhs.data[x][z] == expect


def test_every_map_is_left_adjoint_to_its_transpose():
    q = builtin("c3")
    for f in itertools.product(range(2), repeat=3):
        m = VMatrix.from_map(q, f, 3, 2)
        assert check_adjunction(m, m.transpose())["is_adjoint"]


def test_singleton_valued_row_is_adjoint_but_not_map():
    q = builtin("pset2")
    r = VMatrix(q, 1, 2, ((q.label_index["{a}"], q.label_index["{b}"]),))
    assert check_adjunction(r, r.transpose())["is_adjoint"]
    assert not r.is_map()


def test_bottom_matrix_is_not_left_adjoint():
    q = builtin("2")
    r = constant_matrix(q, 2, 2, q.bottom)
    verdict = check_adjunction(r, r.transpose())
    assert not verdict["is_adjoint"]
    assert verdict["unit_failures"]


def test_right_adjoint_candidate_matches_full_scan():
    # the residual candidate agrees with brute force over every partner
    q = builtin("2")
    for r in all_matrices(q, 2, 2):
        partners = [s for s in all_matrices(q, 2, 2) if check_adjunction(r, s)["is_adjoint"]]
        cand = is_left_adjoint(r)
        if partners:
            assert cand is not None
            assert len(partners) == 1
            assert partners[0] == cand or check_adjunction(r, cand)["is_adjoint"]
            assert partners[0] == right_adjoint_candidate(r)
        else:
            assert cand is None


def reference_right_adjoint(r):
    """Largest s with r.s <= 1_Y, cell by cell from the meet and hom of q."""
    q = r.q
    data = []
    for y in range(r.cols):
        row = []
        for x in range(r.rows):
            acc = q.top
            for z in range(r.cols):
                acc = q.meet_t[acc][q.hom_t[r.data[x][z]][q.unit if y == z else q.bottom]]
            row.append(acc)
        data.append(row)
    return VMatrix(q, r.cols, r.rows, data)


def reference_is_left_adjoint(r):
    s = reference_right_adjoint(r)
    sr = mcompose(s, r)
    return s if all(r.q.leq[r.q.unit][sr.data[x][x]] for x in range(r.rows)) else None


@pytest.mark.parametrize("name", ACCEPT_QUANTALES)
def test_adjoint_kernel_matches_mcompose_reference(name):
    q = builtin(name)
    for rows, cols in itertools.product((1, 2), repeat=2):
        for r in all_matrices(q, rows, cols):
            assert r == VMatrix(q, rows, cols, r.data)
            assert right_adjoint_candidate(r) == reference_right_adjoint(r)
            assert is_left_adjoint(r) == reference_is_left_adjoint(r)


def _one_cell_changes(m):
    """m, then every matrix that differs from m in exactly one cell."""
    yield m
    for x, row in enumerate(m.data):
        for z, old in enumerate(row):
            for v in range(m.q.n):
                if v != old:
                    data = [list(r) for r in m.data]
                    data[x][z] = v
                    yield VMatrix(m.q, m.rows, m.cols, data)


@pytest.mark.parametrize("name", [*ACCEPT_QUANTALES, "plus2"])
def test_composite_le_matches_the_built_composite(name):
    """composite_le(q, r, s, b) is mcompose(s, r).le(b).  Every matrix up to
    2 x 2 is tried as the inner factor, the outer factor and the bound, the
    other two drawn from bottom, top and a random matrix; a factor's
    composite is compared with itself and with every one-cell change of it,
    so each cell is tried just below, at and above its value."""
    q = builtin(name)
    rng = random.Random(name)

    def partners(rows, cols):
        return (
            constant_matrix(q, rows, cols, q.bottom),
            constant_matrix(q, rows, cols, q.top),
            rand_matrix(rng, q, rows, cols),
        )

    outcomes = []

    def agree(r, s, bounds):
        c = mcompose(s, r)
        for b in bounds:
            got = composite_le(q, r.data, s.data, b.data)
            assert got == c.le(b), (r.data, s.data, b.data)
            outcomes.append(got)

    for rows, cols in itertools.product((1, 2), repeat=2):
        for m in all_matrices(q, rows, cols):
            for n in (1, 2):
                for p in partners(cols, n):
                    agree(m, p, _one_cell_changes(mcompose(p, m)))
                for p in partners(n, rows):
                    agree(p, m, _one_cell_changes(mcompose(m, p)))
                for r, s in itertools.product(partners(rows, n), partners(n, cols)):
                    agree(r, s, (m,))
    assert True in outcomes and False in outcomes


def test_trusted_builders_return_valid_matrices():
    rng = random.Random(11)
    q = builtin("c4")
    for _ in range(50):
        nx, ny, nz = (rng.randrange(1, 4) for _ in range(3))
        r, s = rand_matrix(rng, q, nx, ny), rand_matrix(rng, q, ny, nz)
        f = tuple(rng.randrange(nx) for _ in range(nz))
        g = tuple(rng.randrange(nz) for _ in range(ny))
        h = tuple(rng.randrange(ny) for _ in range(nz))
        r2 = rand_matrix(rng, q, nx, ny)
        built = [
            (mcompose(s, r), (nx, nz)),
            (precompose_map(r, f, nz), (nz, ny)),
            (postcompose_map(g, nz, r), (nx, nz)),
            (select_cols(r, h), (nx, nz)),
            (r.join(r2), (nx, ny)),
        ]
        for m, shape in built:
            assert (m.rows, m.cols) == shape
            assert m == VMatrix(q, m.rows, m.cols, m.data)
            assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
    # transpose and from_map, at every shape up to 3 x 3 with 0 rows or 0
    # columns included, against the cell-by-cell formulas
    for nx, ny in itertools.product(range(4), repeat=2):
        r = rand_matrix(rng, q, nx, ny)
        built = [(r.transpose(), (ny, nx), [[r.data[x][y] for x in range(nx)] for y in range(ny)])]
        if ny or not nx:
            f = tuple(rng.randrange(ny) for _ in range(nx))
            graph = [[q.unit if f[x] == y else q.bottom for y in range(ny)] for x in range(nx)]
            built.append((VMatrix.from_map(q, f, nx, ny), (nx, ny), graph))
        for m, shape, cells in built:
            assert (m.rows, m.cols) == shape
            assert m == VMatrix(q, m.rows, m.cols, cells)
            assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)


@pytest.mark.parametrize(
    "name,expect_hyp",
    [("2", True), ("c3", True), ("plus3", True), ("pset1", True), ("pset2", False)],
)
def test_left_adjoint_map_criterion(name, expect_hyp):
    q = builtin(name)
    report = left_adjoint_map_criterion(id_ext(q), bound=2)
    assert report["hypotheses_hold"] == expect_hyp
    assert report["equivalence_holds"]
    if name == "pset2":
        rows = [
            [q.labels[v] for v in w.data[0]]
            for w in report["non_map_witnesses"]
            if w.rows == 1 and w.cols == 2
        ]
        assert ["{a}", "{b}"] in rows


def reference_map_criterion(ext, bound):
    """The sweep as a filter: every matrix of each shape through is_left_adjoint.

    Each shape charges its matrix space here, before it is listed."""
    q = ext.q
    non_maps = []
    adjunctions = []
    total_left = 0
    for nx in range(1, bound + 1):
        for ny in range(1, bound + 1):
            count = q.n ** (nx * ny)
            if count > ext.max_enum:
                raise BudgetExceeded(f"matrix space {nx}x{ny} over {q.name}", count, ext.max_enum)
            shape_adj = []
            for r in all_matrices(q, nx, ny):
                s = is_left_adjoint(r)
                if s is not None:
                    shape_adj.append((r, s))
                    if not r.is_map():
                        non_maps.append(r)
            total_left += len(shape_adj)
            adjunctions.append(((nx, ny), shape_adj))
    return {
        "hypotheses_hold": tensor_complement_scan(q)["hypotheses_hold"],
        "left_adjoint_count": total_left,
        "non_map_witnesses": non_maps,
        "adjunctions": adjunctions,
    }


def _sweep_cases():
    """(quantale, bound): every built-in at 2, `2` at 3, two.quantale and z3 at 2."""
    with open(os.path.join(os.path.dirname(__file__), "data", "two.quantale")) as fh:
        two = parse_quantale_text(fh.read(), "two.quantale")
    assert validate_quantale(two)["ok"]
    cases = [(q, 2) for _, q in sorted(builtin_quantales().items())]
    return cases + [(builtin("2"), 3), (two, 2), (group_quantale(), 2)]


SWEEP_CASES = _sweep_cases()
SWEEP_IDS = [f"{q.name}-{bound}" for q, bound in SWEEP_CASES]


def _assert_tuples(matrix):
    assert type(matrix.data) is tuple and all(type(row) is tuple for row in matrix.data)


@pytest.mark.parametrize("q,bound", SWEEP_CASES, ids=SWEEP_IDS)
def test_row_sweep_matches_the_filter(q, bound):
    report = left_adjoint_map_criterion(id_ext(q), bound)
    expected = reference_map_criterion(id_ext(q), bound)
    for key in ("hypotheses_hold", "left_adjoint_count", "non_map_witnesses", "adjunctions"):
        assert report[key] == expected[key], key
    for _, pairs in report["adjunctions"]:
        for r, s in pairs:
            _assert_tuples(r)
            _assert_tuples(s)
    assert report["left_adjoint_count"] == sum(len(pairs) for _, pairs in report["adjunctions"])


@pytest.mark.parametrize("name", ["c3", "pset2", "z3"])
def test_left_adjointness_is_row_local(name):
    q = group_quantale() if name == "z3" else builtin(name)
    for r in all_matrices(q, 2, 2):
        row_adjoints = [is_left_adjoint(VMatrix(q, 1, 2, (row,))) for row in r.data]
        s = is_left_adjoint(r)
        assert (s is not None) == all(t is not None for t in row_adjoints), r.data
        if s is not None:
            for x, t in enumerate(row_adjoints):
                assert tuple(s.data[y][x] for y in range(2)) == tuple(v for (v,) in t.data)


def _sweep_outcome(sweep, q, bound, max_enum):
    try:
        report = sweep(id_ext(q, max_enum), bound)
    except BudgetExceeded as err:
        return ("refused", str(err))
    return ("ran", report["left_adjoint_count"], report["adjunctions"])


@pytest.mark.parametrize("q,bound", SWEEP_CASES, ids=SWEEP_IDS)
def test_row_sweep_charges_the_budget_like_the_filter(q, bound):
    sizes = sorted({q.n ** (nx * ny) for nx in range(1, bound + 1) for ny in range(1, bound + 1)})
    for size in sizes:
        for max_enum in (size - 1, size):
            outcome = _sweep_outcome(left_adjoint_map_criterion, q, bound, max_enum)
            assert outcome == _sweep_outcome(reference_map_criterion, q, bound, max_enum), max_enum
            assert outcome[0] == ("refused" if max_enum < sizes[-1] else "ran")


def test_order_reversal_on_generated_adjunctions():
    for name in ("2", "c3", "pset2"):
        report = left_adjoint_map_criterion(id_ext(builtin(name)), bound=2)
        assert check_order_reversal(report["adjunctions"])["ok"]


def test_adjoint_pair_order_reversal_forces_equality():
    # r <= r' and s <= s' for adjoint pairs forces both equalities
    report = left_adjoint_map_criterion(id_ext(builtin("c3")), bound=2)
    for _, pairs in report["adjunctions"]:
        for (r, s) in pairs:
            for (r2, s2) in pairs:
                if r.le(r2) and s.le(s2):
                    assert r == r2 and s == s2


def test_composition_monotone_in_both_arguments():
    rng = random.Random(23)
    q = builtin("pset2")
    for _ in range(30):
        r = rand_matrix(rng, q, 2, 2)
        r2 = r.join(rand_matrix(rng, q, 2, 2))
        s = rand_matrix(rng, q, 2, 2)
        s2 = s.join(rand_matrix(rng, q, 2, 2))
        assert mcompose(s, r).le(mcompose(s, r2))
        assert mcompose(s, r).le(mcompose(s2, r))


def test_cross_quantale_and_shape_errors():
    q2 = builtin("2")
    q3 = builtin("c3")
    a = identity_matrix(q2, 2)
    b = identity_matrix(q3, 2)
    with pytest.raises(QuantaleMismatch):
        mcompose(a, b)
    with pytest.raises(DimensionMismatch):
        mcompose(a, constant_matrix(q2, 2, 3, 0))


def test_validation_stays_at_the_boundary():
    import os

    from lawcat.errors import ParseError
    from lawcat.fileio import load_file, parse_category_text

    q = builtin("c3")
    with pytest.raises(DimensionMismatch):
        VMatrix(q, 2, 2, ((0, 1), (1,)))
    with pytest.raises(DimensionMismatch):
        VMatrix(q, 2, 2, [[0, 1]])
    # the trusted constructor takes its tuples as they are
    data = ((0, 1), (1, 2))
    m = VMatrix.trusted(q, 2, 2, data)
    assert m.data is data and m == VMatrix(q, 2, 2, [[0, 1], [1, 2]])
    # a file's values are checked against the quantale's label table, so
    # resolve builds trusted rows that the checked constructor accepts
    data_dir = os.path.join(os.path.dirname(__file__), "data")
    for name in ("chain2.vcat", "disc2pset.vcat", "notcat.vcat", "chain2u.tvcat", "pair2p.tvcat"):
        kind, parsed = load_file(os.path.join(data_dir, name))
        fq, n, matrix = parsed.resolve()
        _assert_tuples(matrix)
        assert matrix.cols == n and matrix == VMatrix(fq, matrix.rows, n, matrix.data)
    for entry in ("m[a] = 1", "m[a,zz] = 1", "m[a,b] = 7"):
        parsed = parse_category_text(f"vcat bad over 2\nelements: a b\n{entry}\n")
        with pytest.raises(ParseError):
            parsed.resolve()


@pytest.mark.parametrize("name", ["2", "c3", "pset2"])
def test_an_entry_off_the_carrier_is_refused(name):
    # -1 would read the last table row, as top; q.n and 1.0 would fail on
    # a later read
    q = builtin(name)
    for bad in (-1, q.n, 1.0):
        rows = [[q.bottom] * 3 for _ in range(2)]
        rows[1][2] = bad
        with pytest.raises(DimensionMismatch, match=rf"^entry \(1, 2\) is {bad}, not an element of {name}$"):
            VMatrix(q, 2, 3, rows)
        # the first bad cell in row-major order is named
        rows[0][1] = bad
        with pytest.raises(DimensionMismatch, match=r"^entry \(0, 1\)"):
            VMatrix(q, 2, 3, rows)
    with pytest.raises(DimensionMismatch, match="ragged"):
        VMatrix(q, 2, 3, [[q.bottom] * 3, [q.bottom] * 2])
    assert VMatrix(q, 1, 2, ((0, q.n - 1),)).data == ((0, q.n - 1),)
