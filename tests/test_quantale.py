import inspect
import itertools

import pytest

from lawcat.quantale import (
    Quantale,
    builtin,
    builtin_quantales,
    meet_chain,
    plus_chain,
    powerset_quantale,
    tensor_complement_scan,
    two_chain,
    validate_quantale,
)

ALL_NAMES = sorted(builtin_quantales())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtins_validate(name):
    q = builtin(name)
    fresh = Quantale(q.name, q.labels, q.leq, q.tensor, q.unit)
    assert validate_quantale(fresh)["ok"]


def test_index_reads_the_label_table():
    for q in builtin_quantales().values():
        assert q.label_index == {label: i for i, label in enumerate(q.labels)}
    # a repeated label reads as its first index, as tuple.index reads it
    twice = Quantale("r", ("a", "a"), [[1, 1], [0, 1]], [[0, 0], [0, 1]], 1)
    assert twice.label_index == {"a": 0}


def test_two_chain_shape():
    q = two_chain()
    assert q.n == 2
    assert q.unit == q.top
    assert q.tensor[q.top][q.bottom] == q.bottom
    assert q.is_meet_tensor()


def test_plus2_is_the_three_element_truncated_chain():
    q = plus_chain(2)
    assert q.labels == ("inf", "1", "0")
    assert validate_quantale(Quantale(q.name, q.labels, q.leq, q.tensor, q.unit))["ok"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hom_adjunction_exhaustive(name):
    q = builtin(name)
    for u, v, w in itertools.product(range(q.n), repeat=3):
        assert q.leq[q.tensor[u][v]][w] == q.leq[v][q.hom_t[u][w]]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hom_unit_and_top_laws(name):
    q = builtin(name)
    for u in range(q.n):
        assert q.hom_t[q.unit][u] == u
        assert q.hom_t[u][q.top] == q.top
        assert q.hom_t[q.bottom][u] == q.top
        for v in range(q.n):
            assert q.leq[v][q.hom_t[u][q.tensor[u][v]]]


def test_hom_on_plus_chain_is_surrogate_truncated_minus():
    # cap-aware truncated minus: the brute-force residual on the finite
    # chain, computed independently from the distances the labels name
    q = plus_chain(2)
    num = [None if label == "inf" else int(label) for label in q.labels]
    idx = {num[i]: i for i in range(q.n)}

    def expected(u, w):
        nu, nw = num[u], num[w]
        if nw is None:
            if nu is None:
                return q.top
            need = 2 - nu  # smallest value pushing the sum past the cap
            return idx[need] if need in idx else q.bottom
        if nu is None:
            return q.top
        diff = max(nw - nu, 0)
        return idx[diff]

    for u in range(q.n):
        for w in range(q.n):
            assert q.hom_t[u][w] == expected(u, w), (q.labels[u], q.labels[w])
    inf, one, zero = 0, 1, 2
    assert q.hom_t[inf][one] == zero
    assert q.hom_t[zero][one] == one


def test_validate_rejects_broken_associativity():
    # three-element chain with a hand-broken tensor table
    leq = [[i <= j for j in range(3)] for i in range(3)]
    tensor = [[min(i, j) for j in range(3)] for i in range(3)]
    tensor[1][1] = 2
    report = validate_quantale(Quantale("broken", ("a", "b", "c"), leq, tensor, 2))
    assert not report["ok"]
    assert report["law"] in ("tensor-associative", "tensor-commutative", "tensor-join-distributive")
    assert report["witness"]


def test_validate_rejects_trivial_quantale():
    # the unit can only be the bottom on a one-element carrier
    report = validate_quantale(Quantale("trivial", ("z",), ((True,),), ((0,),), 0))
    assert not report["ok"]
    assert report["law"] == "trivial-quantale"


def test_validate_rejects_non_lattice_order():
    leq = [[i == j for j in range(2)] for i in range(2)]  # antichain: no joins
    tensor = [[0, 0], [0, 1]]
    report = validate_quantale(Quantale("antichain", ("a", "b"), leq, tensor, 1))
    assert not report["ok"]
    assert report["law"] == "join-missing"


def test_complement_scan_two_chain():
    scan = tensor_complement_scan(builtin("2"))
    assert scan["pairs"] == [("0", "1"), ("1", "0")]
    assert scan["hypotheses_hold"]


def test_complement_scan_pset2():
    scan = tensor_complement_scan(builtin("pset2"))
    assert ("{a}", "{b}") in scan["pairs"]
    assert ("{b}", "{a}") in scan["pairs"]
    assert not scan["hypotheses_hold"]
    assert not scan["only_trivial_complemented"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_complemented_elements_are_idempotent(name):
    scan = tensor_complement_scan(builtin(name))
    assert scan["complemented_idempotent"]
    assert scan["at_most_one_complement"]


def test_group_algebra_quantale_has_unit_below_top():
    # powerset of the two-element group under setwise products
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
    assert q.unit != q.top


def test_meet_chain_numeric_metadata():
    # the labels name the distances; no second table of them is kept
    q = meet_chain(4)
    assert q.labels == ("inf", "2", "1", "0")
    assert q.labels[q.unit] == "0"
    assert not hasattr(q, "numeric")


def test_powerset_quantale_order_is_inclusion():
    q = powerset_quantale(("a", "b"))
    assert q.leq[q.label_index["{a}"]][q.label_index["{a,b}"]]
    assert not q.leq[q.label_index["{a}"]][q.label_index["{b}"]]


def test_a_quantale_is_its_tables():
    # name, labels, order, tensor and unit; the rest is derived
    assert list(inspect.signature(Quantale).parameters) == ["name", "labels", "leq", "tensor", "unit"]
    q = builtin("c4")
    assert not hasattr(q, "validated")
