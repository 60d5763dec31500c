import pytest

from skewtor.suites import run_suite


@pytest.fixture(scope="session")
def all_report():
    """One `verify all` report, shared by the tests that only read it."""
    return run_suite("all")
