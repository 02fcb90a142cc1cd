"""One Hypothesis profile for every property test: the same examples on every run.

Examples are derived from each test alone (``derandomize``), nothing is
replayed from a database, and no example has a deadline, since the first
call of a test may build grids and factor matrices.  Each test sets only
its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("pmclab", derandomize=True, database=None, deadline=None)
settings.load_profile("pmclab")
