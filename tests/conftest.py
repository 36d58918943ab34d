"""Settings shared by the test modules."""

from hypothesis import settings

# Property tests draw the same examples on every run, keep no example database and have
# no per-example deadline, so neither their inputs nor their verdicts depend on earlier
# runs or on the host's load.
settings.register_profile("hnbody", deadline=None, derandomize=True, database=None, max_examples=100)
settings.load_profile("hnbody")
