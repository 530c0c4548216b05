import tracemalloc

import pytest

from raflab.sieve import sieve


@pytest.fixture(scope="session")
def table_small():
    return sieve(1000)


@pytest.fixture(scope="session")
def table_100k():
    return sieve(100_000)


def _traced_peak(fn):
    """fn's result and the most memory it held at once beyond what was
    allocated before it ran, as tracemalloc sees it (numpy reports its
    array buffers there)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
