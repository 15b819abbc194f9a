import pytest
from hypothesis import Phase, settings

from quadpcf import ffdyn
from quadpcf.exact_arith import first_odd_primes, odd_primes_up_to
from quadpcf.sievedb import Database, build_db

from oracles import ScalarDatabase

# tools/mutation_gate.py runs its tests under this profile: a failing
# property is reported without shrinking, which can take minutes when the
# code under test is wrong, and the examples are the same on every run, so
# a mutant killed once is killed every time
settings.register_profile("mutation", phases=(Phase.explicit, Phase.generate),
                          database=None, derandomize=True)


@pytest.fixture(scope="session")
def small_primes():
    return first_odd_primes(25)


@pytest.fixture(scope="session")
def small_db(small_primes):
    """In-memory database over the first 25 odd primes (3..101)."""
    return build_db(small_primes)


@pytest.fixture(scope="session")
def walked_db():
    """build_db's database over every prime the sieve takes, without its
    p^2 walks per prime: the period tables compute an entry when it is
    first looked up."""
    return Database({p: ffdyn.PeriodTable(p) for p in odd_primes_up_to(ffdyn.LANE_PRIME_LIMIT)})


@pytest.fixture(scope="session")
def scalar_db():
    """The plain-loop oracle's lookup for any prime the sieve takes,
    memoised over the session."""
    return ScalarDatabase()


@pytest.fixture(scope="session")
def small_db_file(small_db, tmp_path_factory):
    """The same 25-prime database persisted to disk."""
    path = tmp_path_factory.mktemp("db") / "small.db"
    small_db.save(str(path))
    return str(path)
