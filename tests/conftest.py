import pytest

from onfdr import scenarios


@pytest.fixture
def forking(monkeypatch):
    """Two workers, and every ``estimate_many`` call with more than one
    worker and more than 32 replicates forks, whatever its work, so that a
    test of the forked path runs it on small, fast calls."""
    monkeypatch.setattr(scenarios, "_FORK_WORK", 0)
    monkeypatch.setenv(scenarios.THREADS_ENV, "2")
