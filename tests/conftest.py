import sys

import pytest

from quadnorm.cyclicext import period_polynomial
from quadnorm.quadfield import make_field

# The quadnorm modules these tests were collected against.  The benchmark's
# tests re-import quadnorm from scratch, and a test run after them would
# otherwise meet two copies: its own imports, and the ones that importlib,
# pickling and monkeypatching reach through sys.modules.
COLLECTED_MODULES = pytest.StashKey[dict]()


def _is_quadnorm(name: str) -> bool:
    return name == "quadnorm" or name.startswith("quadnorm.")


def pytest_collection_finish(session):
    session.config.stash[COLLECTED_MODULES] = {
        n: m for n, m in sys.modules.items() if _is_quadnorm(n)
    }


@pytest.fixture(autouse=True)
def collected_quadnorm_modules(request):
    collected = request.config.stash[COLLECTED_MODULES]
    for name in [n for n in sys.modules if _is_quadnorm(n) and n not in collected]:
        del sys.modules[name]
    sys.modules.update(collected)


@pytest.fixture(scope="session")
def field79():
    return make_field(79)


@pytest.fixture(scope="session")
def field10():
    return make_field(10)


@pytest.fixture(scope="session")
def desc7():
    return period_polynomial(7, 3, 1)


@pytest.fixture(scope="session")
def desc13():
    return period_polynomial(13, 3, 1)


@pytest.fixture(scope="session")
def desc37():
    return period_polynomial(37, 3, 1)
