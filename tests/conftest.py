import time

import pytest

from minkqm import verification


class SuiteRuns:
    """Each verification suite, run at most once per session.

    The suites are deterministic (fixed seeds), so test_suite_passes, the
    `verify all` golden test and the acceptance criteria share one run of
    each.  Calling the object with a suite name gives its CheckResults.
    """

    def __init__(self):
        self._runs = {}

    def _run(self, suite):
        if suite not in self._runs:
            t0 = time.perf_counter()
            results = verification.run_suite(suite)
            self._runs[suite] = (results, time.perf_counter() - t0)
        return self._runs[suite]

    def __call__(self, suite):
        return self._run(suite)[0]

    def elapsed(self, suite):
        """Wall time in seconds of the session's one run of the suite."""
        return self._run(suite)[1]

    def check(self, name):
        """The CheckResult of one check, named as `verify` prints it (suite.check)."""
        suite, _, check = name.partition(".")
        (result,) = [r for r in self(suite) if r.name == check]
        return result


@pytest.fixture(scope="session")
def suite_results():
    return SuiteRuns()
