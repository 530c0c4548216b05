import pytest

from raflab.sieve import sieve


@pytest.fixture(scope="session")
def table_small():
    return sieve(1000)


@pytest.fixture(scope="session")
def table_100k():
    return sieve(100_000)
