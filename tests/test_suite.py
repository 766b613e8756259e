import json
import sys

import pytest

import lawcat.laxext
from lawcat.errors import BudgetExceeded
from lawcat.monad import PowersetMonad
from lawcat.suite import _ext, item_hom_xi, item_xi_algebra


def test_extension_cache_honours_budget():
    assert _ext("powerset", "c3").max_enum != 100
    assert _ext("powerset", "c3", 100).max_enum == 100


def test_xi_algebra_checks_each_extension_once(monkeypatch):
    calls = []
    original = lawcat.laxext.check_xi_compat

    def counted(ext, *args, **kwargs):
        calls.append(ext)
        return original(ext, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("lawcat") and getattr(module, "check_xi_compat", None) is original:
            monkeypatch.setattr(module, "check_xi_compat", counted)
    rep = item_xi_algebra()
    assert len(rep["per_combo"]) == 21
    assert len(calls) == 21
    assert len({id(ext) for ext in calls}) == 21


def test_xi_items_build_no_table_over_a_double_powerset(monkeypatch):
    # T(T(V)) and T(V x V) have 2^16 elements for |V| = 4; the two items
    # decide their laws on images and build no table of that length.
    lengths = {"tmap": [], "mult_map": []}
    for name, seen in lengths.items():
        original = getattr(PowersetMonad, name)

        def recorded(self, *args, _original=original, _seen=seen):
            table = _original(self, *args)
            _seen.append(len(table))
            return table

        monkeypatch.setattr(PowersetMonad, name, recorded)
    assert item_hom_xi()["ok"]
    assert item_xi_algebra()["ok"]
    assert lengths["tmap"]
    assert max(lengths["tmap"] + lengths["mult_map"]) < 1 << 16


def test_determinism_reruns_the_quick_items_once(monkeypatch):
    import lawcat.suite as suite

    calls = []
    original = dict(suite.REGISTRY)["quantale-laws"]

    def counted(max_enum):
        calls.append(max_enum)
        return original(max_enum)

    registry = tuple((name, counted if name == "quantale-laws" else fn) for name, fn in suite.REGISTRY)
    monkeypatch.setattr(suite, "REGISTRY", registry)
    report = suite.run_suite()
    assert report["items"][-1]["id"] == "determinism" and report["items"][-1]["ok"]
    # the main run, then one rerun compared with it
    assert len(calls) == 2
    calls.clear()
    # quick items left out of the main run are run twice, as before
    report = suite.run_suite(only={"determinism"})
    assert [it["id"] for it in report["items"]] == ["determinism"] and report["ok"]
    assert len(calls) == 2


def test_map_criterion_sweeps_run_once_per_run_items(monkeypatch):
    import lawcat.suite as suite

    swept = []
    original = suite.left_adjoint_map_criterion
    monkeypatch.setattr(
        suite, "left_adjoint_map_criterion", lambda ext, *args: swept.append(ext.q.name) or original(ext, *args)
    )
    assert [it["ok"] for it in suite.run_items(suite.SWEEP_ITEMS)] == [True, True]
    assert swept == list(suite.ACCEPT_QUANTALES)
    swept.clear()
    assert suite.run_suite()["ok"]
    # the main run, then the determinism rerun with a sweep of its own
    assert swept == list(suite.ACCEPT_QUANTALES) * 2
    # a refused sweep skips both items, each as it would alone
    for item in suite.run_items(suite.SWEEP_ITEMS, 100):
        with pytest.raises(BudgetExceeded) as err:
            dict(suite.REGISTRY)[item["id"]](100)
        assert item == {"id": item["id"], "ok": None, "skipped": True, "reason": str(err.value)}


def test_one_run_checks_no_order_structure(monkeypatch):
    # order_tvcategory's structures carry their verdict over id and ultra,
    # and the suite builds none over powerset, so none is checked again;
    # all_tvcategories lists the id and ultra categories by backtracking,
    # so only its powerset filter and the suite's own checks remain
    import lawcat.suite as suite
    import lawcat.tvcat as tvcat

    built, checked = [], []
    order_tvcategory, check_tvcategory = tvcat.order_tvcategory, tvcat.check_tvcategory

    def order(*args, **kwargs):
        cat = order_tvcategory(*args, **kwargs)
        built.append(cat.a)
        return cat

    def check(ext, n, a):
        checked.append(a)
        return check_tvcategory(ext, n, a)

    for name, module in list(sys.modules.items()):
        if name.startswith("lawcat."):
            if getattr(module, "order_tvcategory", None) is order_tvcategory:
                monkeypatch.setattr(module, "order_tvcategory", order)
            if getattr(module, "check_tvcategory", None) is check_tvcategory:
                monkeypatch.setattr(module, "check_tvcategory", check)
    assert suite.run_suite()["ok"]
    assert len(checked) == 58
    assert len(built) > 1000
    orders = {id(a) for a in built}
    assert not [a for a in checked if id(a) in orders]


def test_report_json_matches_json_dumps():
    from lawcat.suite import report_json, run_suite

    values = [
        run_suite(),
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}, [[]], {"d": ()}]},
        ("x", (1, ("y",)), []),
        {"é": "ü€", "\x00\n\t\"\\": ["\x1f", " ", "😀", ""], "": "/"},
        [True, 1, False, 0, {"t": True, "o": 1, "f": False, "z": 0}],
        [-1, -(2**70), 2**64, 2**64 + 1, 0],
        None,
        {"n": None, "l": [None, None]},
        "plain",
        7,
    ]
    for value in values:
        assert report_json(value) == json.dumps(value, sort_keys=True, indent=2)


class _Label(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {1, 2},
        object(),
        [0.0],
        {"k": {"s": frozenset()}},
        {1: "a"},
        {("a",): 1},
        ["a", _Label("b"), "c"],
        {"k": _Label("v")},
    ],
)
def test_report_json_refuses_other_types(value):
    from lawcat.suite import report_json

    with pytest.raises(TypeError):
        report_json(value)
