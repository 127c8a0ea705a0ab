"""Test-wide Hypothesis settings.

Scans in the property tests start process pools, whose start-up time on a
small shared machine varies far more than Hypothesis' default 200 ms
deadline allows, so no test runs under a deadline.  The example budget is
Hypothesis' default, stated here so it stays bounded; a test that needs a
smaller one says so with its own @settings.
"""

from hypothesis import settings

settings.register_profile("collatz-descent", deadline=None, max_examples=100)
settings.load_profile("collatz-descent")
