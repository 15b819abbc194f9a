import pytest
from hypothesis import Phase, settings

from quadpcf.exact_arith import first_odd_primes
from quadpcf.sievedb import build_db

from oracles import ScalarDatabase

# tools/mutation_gate.py runs its tests under this profile: a failing
# property is reported without shrinking, which can take minutes when the
# code under test is wrong
settings.register_profile("mutation", phases=(Phase.explicit, Phase.generate),
                          database=None)


@pytest.fixture(scope="session")
def small_primes():
    return first_odd_primes(25)


@pytest.fixture(scope="session")
def small_db(small_primes):
    """In-memory database over the first 25 odd primes (3..101)."""
    return build_db(small_primes)


@pytest.fixture(scope="session")
def scalar_db():
    """The reference lookup for any prime the sieve takes, memoised over
    the session."""
    return ScalarDatabase()


@pytest.fixture(scope="session")
def small_db_file(small_primes, tmp_path_factory):
    """The same 25-prime database persisted to disk."""
    path = tmp_path_factory.mktemp("db") / "small.db"
    build_db(small_primes, path=str(path))
    return str(path)
