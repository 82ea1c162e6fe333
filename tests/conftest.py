import pytest

from minkqm import verification


@pytest.fixture(scope="session")
def suite_results():
    """verification.run_suite(name), run once per suite and session.

    The suites are deterministic (fixed seeds), so test_suite_passes and
    the `verify all` golden test can share one run of each.
    """
    cache = {}

    def results(name):
        if name not in cache:
            cache[name] = verification.run_suite(name)
        return cache[name]

    return results
