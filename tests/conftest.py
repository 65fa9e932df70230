"""Hypothesis settings shared by every property test.

Single examples run quadratures and coset sums that take longer than
hypothesis's default 200 ms deadline on a slow machine, so no example
has a deadline; each test sets only its own max_examples.
"""

from hypothesis import settings

settings.register_profile("wpstrata", deadline=None)
settings.load_profile("wpstrata")
