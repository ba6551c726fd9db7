import tracemalloc

import pytest

from invsem import fixtures


@pytest.fixture(scope="session")
def catalog():
    return fixtures.catalog()


@pytest.fixture(scope="session")
def lsd_fixtures():
    return fixtures.lsd_fixtures()


@pytest.fixture(scope="session")
def rsd_fixtures():
    return fixtures.rsd_fixtures()


def _peak_traced(fn):
    """Call fn() and return the peak of the memory traced meanwhile, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_traced():
    """peak_traced(fn): the traced peak, in bytes, of calling fn()."""
    return _peak_traced
