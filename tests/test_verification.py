"""The named invariant suites must all pass; `verify all` is the library's
self-check surface and the CLI exposes exactly these results."""

import pytest

from minkqm import verification


@pytest.mark.parametrize("suite", verification.SUITES)
def test_suite_passes(suite, suite_results):
    results = suite_results(suite)
    assert results, f"suite {suite} ran no checks"
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)


def test_all_combines_every_suite(monkeypatch):
    # stub suites: the real ones run once each in test_suite_passes
    for suite in verification.SUITES:
        stub = [verification.CheckResult(suite, f"check{i}", 0.0, 1.0, True) for i in range(2)]
        monkeypatch.setitem(verification._SUITE_FUNCS, suite, lambda stub=stub: stub)
    combined = verification.run_suite("all")
    assert [(r.suite, r.name) for r in combined] == [
        (suite, f"check{i}") for suite in verification.SUITES for i in range(2)
    ]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        verification.run_suite("bogus")
