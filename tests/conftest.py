import pytest

from quadpcf.sievedb import build_db, first_odd_primes


@pytest.fixture(scope="session")
def small_primes():
    return first_odd_primes(25)


@pytest.fixture(scope="session")
def small_db(small_primes):
    """In-memory database over the first 25 odd primes (3..101)."""
    return build_db(small_primes)


@pytest.fixture(scope="session")
def small_db_file(small_primes, tmp_path_factory):
    """The same 25-prime database persisted to disk."""
    path = tmp_path_factory.mktemp("db") / "small.db"
    build_db(small_primes, path=str(path))
    return str(path)
