"""Shared test settings: one hypothesis profile for every property test.

Derandomized, with no example database and no per-example deadline, so a
test run sees the same examples every time and on every machine.  Each test
keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("latheights", derandomize=True, database=None, deadline=None)
settings.load_profile("latheights")
