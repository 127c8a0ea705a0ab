"""Test-wide Hypothesis settings and os.fork wrappers for the scan's workers.

Scans in the property tests fork workers, whose start-up time on a small
shared machine varies far more than Hypothesis' default 200 ms deadline
allows, so no test runs under a deadline.  The example budget is
Hypothesis' default, stated here so it stays bounded; a test that needs a
smaller one says so with its own @settings.

A scan's workers are real forks of the test process, so a monkeypatch made
before the scan reaches them: a stub kernel runs in the workers.
"""

import errno
import os

import pytest
from hypothesis import settings

settings.register_profile("collatz-descent", deadline=None, max_examples=100)
settings.load_profile("collatz-descent")


def reaped(pid):
    """Whether this process's child pid has been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """Count the workers a scan forks: yields the list of their pids, and
    checks at teardown that every one was reaped."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    assert all(map(reaped, pids))


@pytest.fixture
def unforkable(monkeypatch, forks):
    """Let a scan fork one worker, then refuse the next fork for want of
    processes; returns the list of the pids forked."""
    fork = os.fork

    def refuse_the_second():
        if forks:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", refuse_the_second)
    return forks
