"""One hypothesis profile for every property test: derandomized, so tier-1
runs the same examples each time, with no example database and no
per-example deadline. Each test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile(
    "recistkit", derandomize=True, database=None, deadline=None
)
settings.load_profile("recistkit")
