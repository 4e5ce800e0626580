import pytest

from sttt import checks


@pytest.fixture(scope="session")
def suite_run():
    """``checks.run_suite`` run at most once per (suite, cases, seed) in a
    test session: the acceptance suite, tests/test_checks.py and the CLI's
    pinned fuzz outputs draw the same seeded streams.  A miss calls the real
    function; no expected output is stored here, only this session's runs."""
    results = {}

    def run(name, cases, seed):
        key = (name, cases, seed)
        if key not in results:
            results[key] = checks.run_suite(name, cases=cases, seed=seed)
        return results[key]

    return run
