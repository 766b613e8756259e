import pytest

from lawcat.laxext import LaxExtension
from lawcat.monad import builtin_monads
from lawcat.quantale import builtin_quantales, validate_quantale


@pytest.fixture(scope="session")
def quantales():
    return builtin_quantales()


@pytest.fixture(scope="session")
def monads():
    return builtin_monads()


@pytest.fixture(scope="session")
def validated_copy():
    """A fresh validated copy of a quantale: the same tables, and extend
    memos of its own (empty), apart from every other extension's."""

    def copy(q):
        fresh = type(q)(q.name, q.labels, q.leq, q.tensor, q.unit)
        assert validate_quantale(fresh)["ok"]
        return fresh

    return copy


_EXT_CACHE = {}


@pytest.fixture(scope="session")
def ext_factory(quantales, monads):
    def make(monad_name, quantale_name):
        key = (monad_name, quantale_name)
        if key not in _EXT_CACHE:
            _EXT_CACHE[key] = LaxExtension(monads[monad_name], quantales[quantale_name])
        return _EXT_CACHE[key]

    return make
