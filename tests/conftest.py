import pytest

from skewtor import suites


@pytest.fixture(scope="session")
def all_run():
    """One `verify all` run: its report and the raw (id, value, expected) of every check."""
    raw = []
    check = suites.check

    def recording_check(check_id, anchor, ok, value="", expected="", provenance="derived"):
        raw.append((check_id, value, expected))
        return check(check_id, anchor, ok, value, expected, provenance)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "check", recording_check)
        report = suites.run_suite("all")
    return report, raw


@pytest.fixture(scope="session")
def all_report(all_run):
    """One `verify all` report, shared by the tests that only read it."""
    return all_run[0]
