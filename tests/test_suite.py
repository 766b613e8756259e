import sys

import lawcat.laxext
from lawcat.suite import _ext, item_xi_algebra


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
