from lawcat.suite import _ext


def test_extension_cache_honours_budget():
    assert _ext("powerset", "c3").max_enum != 100
    assert _ext("powerset", "c3", 100).max_enum == 100
