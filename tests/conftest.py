import pytest

from fpcavity import _memo, run_suite


@pytest.fixture(autouse=True)
def _empty_memo():
    """Each test starts with an empty last-result memo, so a test that
    patches a layer under a memoized route computes afresh and no test
    depends on the one before it."""
    _memo._entries.clear()


@pytest.fixture(scope="session")
def full_summary():
    """One aggregate verification run shared by every test that needs it."""
    return run_suite("all")
