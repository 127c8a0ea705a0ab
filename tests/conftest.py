"""Test-wide Hypothesis settings and an in-process stand-in for the scan's pool.

Scans in the property tests start process pools, whose start-up time on a
small shared machine varies far more than Hypothesis' default 200 ms
deadline allows, so no test runs under a deadline.  The example budget is
Hypothesis' default, stated here so it stays bounded; a test that needs a
smaller one says so with its own @settings.
"""

import concurrent.futures
import errno
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import settings

from collatz_descent import scanner

settings.register_profile("collatz-descent", deadline=None, max_examples=100)
settings.load_profile("collatz-descent")


class InlinePool(Executor):
    """A stand-in process pool that runs the initializer and each task in
    this process and counts the futures whose result is not taken yet."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.untaken = self.most_untaken = 0
        initializer(*initargs)

    def submit(self, fn, *args):
        pool = self

        class Taken(Future):
            def result(self, timeout=None):
                pool.untaken -= 1
                return super().result(timeout)

        future = Taken()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        self.untaken += 1
        self.most_untaken = max(self.most_untaken, self.untaken)
        return future


@pytest.fixture
def inline_pools(monkeypatch):
    """Route sieve_scan's pools through InlinePool; returns the pools made."""
    pools = []

    def make(*args, **kwargs):
        pools.append(InlinePool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    monkeypatch.setattr(scanner, "_WORKER_STATE", {})
    return pools


@pytest.fixture
def dead_pools(inline_pools, monkeypatch):
    """Inline pools whose every future raises BrokenProcessPool("a worker died")."""

    def die(*args):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(scanner, "_scan_block", die)
    return inline_pools


@pytest.fixture
def unforkable_pools(inline_pools, monkeypatch):
    """Inline pools whose submit fails as a fork refused for want of processes."""

    def refuse(self, fn, *args):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(InlinePool, "submit", refuse)
    return inline_pools
